"""The sizing routine as it stood when it eliminated the junction system, kept as a test oracle.

``tilecircuit.dissection.solve_sizes`` now sizes a sketch by one grounded
Laplacian solve of the dual network, reads the x-coordinates off the node
potentials and refuses four-tile points by the Euler count.  This is the
function it replaced, copied verbatim with its result type and position
propagator: it builds ``junction_system``, solves it with ``gauss_jordan``
and propagates both x and y.  ``test_sizing_exactness.py`` requires both to
give the same sizing, value types included, or the same exception.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from tilecircuit.dissection import (
    CutStructure,
    Dissection,
    SizingError,
    Tile,
    extract_cuts,
    junction_system,
    validate_geometric,
)
from tilecircuit.fields import format_scalar
from tilecircuit.linear import Inconsistent, LinearSystem, Parametric, gauss_jordan


@dataclass(frozen=True)
class SizingResult:
    sized: Dissection
    ratio: object          # big horizontal side / big vertical side
    system: LinearSystem
    assignment: dict       # variable name -> solved value
    cuts: CutStructure


def solve_sizes(d: Dissection) -> SizingResult:
    """Size a sketched dissection exactly.

    The big vertical side is taken from ``d.big_h`` when present (1
    otherwise); a unique junction solution is turned into exact rectangles
    by propagating cut positions, and the result is geometrically
    validated.  Inconsistent and parametric outcomes, nonpositive sides,
    and a contradicted declared width all raise ``SizingError``.
    """
    cs = extract_cuts(d)
    normalization = d.big_h if d.big_h is not None else d.field.one
    if not normalization > d.field.zero:
        raise SizingError("big vertical side must be positive")
    system = junction_system(cs, d.tiles, d.field, normalization)
    outcome = gauss_jordan(system)
    if isinstance(outcome, Inconsistent):
        raise SizingError("tiling cannot be sized with these ratios")
    if isinstance(outcome, Parametric):
        raise SizingError("combinatorics under-determined")
    assignment = outcome.assignment

    v = {t.tid: assignment[f"v{t.tid}"] for t in d.tiles}
    h = {t.tid: t.aspect * v[t.tid] for t in d.tiles}
    zero = d.field.zero
    for tid, side in v.items():
        if not side > zero:
            raise SizingError(f"degenerate sizing: tile {tid} gets a nonpositive side")
    x_val = assignment["x"]
    if d.big_w is not None and d.big_w != x_val:
        raise SizingError(
            f"declared width {format_scalar(d.big_w)} contradicts the solved "
            f"width {format_scalar(x_val)}"
        )

    node_x = _propagate(
        count=len(cs.v_nodes),
        start=cs.left_boundary,
        zero=zero,
        links=[(cs.tile_ends[tid][0], cs.tile_ends[tid][1], h[tid]) for tid in v],
        what="vertical node",
    )
    cut_y = _propagate(
        count=len(cs.h_cuts),
        start=cs.bottom_cut,
        zero=zero,
        links=[(cs.tile_spans[tid][0], cs.tile_spans[tid][1], v[tid]) for tid in v],
        what="horizontal cut",
    )

    tiles = tuple(
        Tile(
            t.tid,
            t.sketch,
            t.aspect,
            (
                node_x[cs.tile_ends[t.tid][0]],
                cut_y[cs.tile_spans[t.tid][0]],
                h[t.tid],
                v[t.tid],
            ),
        )
        for t in d.tiles
    )
    sized = Dissection(d.field, tiles, big_w=x_val, big_h=normalization)
    report = validate_geometric(sized)
    if not report.ok:
        raise SizingError(
            "solved sides do not assemble into an exact tiling: "
            + "; ".join(report.issues)
        )
    ratio = x_val / normalization
    return SizingResult(sized, ratio, system, assignment, cs)


def _propagate(count, start, zero, links, what):
    """Assign positions along a chain of exact length links, checking agreement."""
    pos = {start: zero}
    adjacency: dict[int, list] = {}
    for lo, hi, length in links:
        adjacency.setdefault(lo, []).append((hi, length, 1))
        adjacency.setdefault(hi, []).append((lo, length, -1))
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for other, length, sense in adjacency.get(cur, ()):
            candidate = pos[cur] + length if sense > 0 else pos[cur] - length
            if other in pos:
                if pos[other] != candidate:
                    raise SizingError(f"{what} positions are contradictory")
            else:
                pos[other] = candidate
                queue.append(other)
    if len(pos) != count:
        raise SizingError(f"some {what} is unreachable from the boundary")
    return pos
