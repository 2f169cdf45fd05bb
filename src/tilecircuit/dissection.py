"""Axis-aligned rectangle dissections: modeling, sizing, checking, drawing.

A dissection is described twice over.  Decimal *sketch* rectangles define
the combinatorics only: which tiles meet along which cuts, read off the
drawing up to a relative tolerance of 1e-6.  Exact sizes are never taken
from the sketch.  They must satisfy the junction conditions -- along every
vertical cut the vertical sides meeting from the left balance those from
the right, along every horizontal cut the horizontal sides from above
balance those from below -- with the big rectangle's vertical side
normalized and each tile's horizontal side expressed through its aspect
ratio.  These are Kirchhoff's laws for the network whose nodes are the
vertical cuts and whose resistors are the tiles, so sizing is one grounded
Laplacian solve: tile heights are the currents and cut x-coordinates the
potentials.  Each axis's cuts are then placed by one ordered pass from the
left or bottom side.  The solved dissection carries exact coordinates and
can be validated, tested for the all-squares/rational-ratio property, or
rendered.  A sized dissection keeps its own coordinates once they are
checked on its sketch's cuts.

Dissection file format (JSON)::

    {"field": {"kind": "rational"} | {"kind": "quadratic", "d": 3},
     "big": {"w": scalar-or-null, "h": scalar-or-null} | null,
     "tiles": [{"id": 1, "sketch": [x, y, w, h], "aspect": scalar,
                "rect": [x, y, w, h] | null}, ...]}

where scalars are strings in the shared textual syntax (a rect is 4 of
them), sketch entries are plain JSON numbers, and ids and d are JSON
integers (never booleans).  Rects are on every tile or on none, and rects
need both big sides.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

from .fields import FieldSpec, InputError, QuadExt, _on_grid, _order_keys, format_scalar
from .linear import (
    LinearSystem,
    gauss_jordan,  # noqa: F401  a module-level name that perfbench/spans.py wraps
    laplacian_potentials,
)

SKETCH_REL_TOL = 1e-6


class DissectionError(Exception):
    """A dissection that cannot be read, cut, sized or validated."""


class _MalformedDissection(DissectionError, InputError):
    """A dissection file or object that breaks the format."""


class SizingError(DissectionError):
    """The junction system does not size this combinatorics."""


@dataclass(frozen=True)
class Tile:
    tid: int
    sketch: tuple[float, float, float, float]  # x, y, w, h; combinatorics only
    aspect: object                             # horizontal/vertical ratio
    rect: tuple | None = None                  # exact (x, y, w, h) once solved


@dataclass(frozen=True)
class Dissection:
    field: FieldSpec
    tiles: tuple[Tile, ...]
    big_w: object | None = None
    big_h: object | None = None

    def __post_init__(self):
        object.__setattr__(self, "tiles", tuple(self.tiles))
        seen = set()
        zero = self.field.zero
        for t in self.tiles:
            if t.tid in seen:
                raise _MalformedDissection(f"duplicate tile id {t.tid}")
            seen.add(t.tid)
            if not (t.sketch[2] > 0 and t.sketch[3] > 0):
                raise _MalformedDissection(f"tile {t.tid} has a degenerate sketch")
            if not t.aspect > zero:
                raise _MalformedDissection(
                    f"tile {t.tid} has a nonpositive aspect ratio"
                )
        for t in self.tiles:
            if not all(math.isfinite(c) for c in t.sketch):
                raise _MalformedDissection(f"tile {t.tid} has a non-finite sketch coordinate")
        unsized = [t.tid for t in self.tiles if t.rect is None]
        if 0 < len(unsized) < len(self.tiles):
            raise _MalformedDissection(f"tile {unsized[0]} has no rect, but other tiles have one")
        if self.tiles and not unsized and (self.big_w is None or self.big_h is None):
            raise _MalformedDissection("a dissection with rects needs both big sides")

    @property
    def is_sized(self) -> bool:
        return (
            self.big_w is not None
            and self.big_h is not None
            and all(t.rect is not None for t in self.tiles)
        )


@dataclass(frozen=True)
class VNode:
    nid: int
    x: float
    y_lo: float
    y_hi: float
    left_tiles: tuple[int, ...]   # tiles whose right edge lies on this node
    right_tiles: tuple[int, ...]  # tiles whose left edge lies on this node


@dataclass(frozen=True)
class HCut:
    cid: int
    y: float
    x_lo: float
    x_hi: float
    above_tiles: tuple[int, ...]  # tiles whose bottom edge lies on this cut
    below_tiles: tuple[int, ...]  # tiles whose top edge lies on this cut


@dataclass(frozen=True)
class CutStructure:
    v_nodes: tuple[VNode, ...]
    h_cuts: tuple[HCut, ...]
    left_boundary: int
    right_boundary: int
    bottom_cut: int
    top_cut: int
    tile_ends: dict    # tile id -> (left node id, right node id)
    tile_spans: dict   # tile id -> (bottom cut id, top cut id)


def _classes(values, eps: float) -> tuple[list[float], list[int]]:
    """Sorted class representatives and each value's class.  In ascending
    order a value joins the last representative when within eps of it and
    starts a class of its own otherwise."""
    reps: list[float] = []
    labels = [0] * len(values)
    for k in sorted(range(len(values)), key=values.__getitem__):
        if not reps or values[k] - reps[-1] > eps:
            reps.append(values[k])
        labels[k] = len(reps) - 1
    return reps, labels


def _merge_segments(intervals):
    """Merge [lo, hi] class intervals; touching intervals join one segment."""
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _segments(spans, count: int, extent: int, what: str):
    """Maximal segments of the tile edges across one axis.

    ``spans`` maps tile id -> (c0, c1, lo, hi): the classes of the tile's
    two edges along the axis, then its class span across it.  ``count`` is
    the number of classes along the axis; the two outer boundaries span
    (0, extent).  Returns the segments as (class, lo, hi, tiles ending on
    it, tiles starting on it), numbered by class and then by position; the
    (lo, hi, segment id) triples of each class; and each tile's (start,
    end) segment ids.
    """
    intervals: dict[int, list] = {c: [] for c in range(count)}
    for c0, c1, lo, hi in spans.values():
        intervals[c0].append((lo, hi))
        intervals[c1].append((lo, hi))
    intervals[0].append((0, extent))
    intervals[count - 1].append((0, extent))

    segments = []
    ids: dict[int, list] = {}
    for c in range(count):
        ids[c] = []
        for lo, hi in _merge_segments(intervals[c]):
            ids[c].append((lo, hi, len(segments)))
            segments.append((c, lo, hi, [], []))

    def segment_for(c: int, lo: int, hi: int, tid: int) -> int:
        for slo, shi, sid in ids[c]:
            if slo <= lo and hi <= shi:
                return sid
        raise DissectionError(f"tile {tid} touches no {what} {c}")

    ends = {}
    for tid, (c0, c1, lo, hi) in spans.items():
        start = segment_for(c0, lo, hi, tid)
        end = segment_for(c1, lo, hi, tid)
        segments[end][3].append(tid)
        segments[start][4].append(tid)
        ends[tid] = (start, end)
    return segments, ids, ends


def extract_cuts(d: Dissection) -> CutStructure:
    """Read the cut combinatorics off the sketch.

    Vertical nodes are the maximal connected vertical segments of the union
    of tile vertical edges (plus the big rectangle's sides); horizontal cuts
    are the same thing sideways.  Ordering is by coordinate, so the result
    is deterministic.  Each x-strip must be covered exactly once; one sweep
    over the strips checks that in time linear in the tiles and classes,
    and the first faulty strip names its first gap or overlap.
    """
    tiles = d.tiles
    if not tiles:
        raise DissectionError("dissection has no tiles")
    x0 = min(t.sketch[0] for t in tiles)
    y0 = min(t.sketch[1] for t in tiles)
    x1 = max(t.sketch[0] + t.sketch[2] for t in tiles)
    y1 = max(t.sketch[1] + t.sketch[3] for t in tiles)
    eps = SKETCH_REL_TOL * max(x1 - x0, y1 - y0)

    n = len(tiles)
    xs, x_class = _classes(
        [t.sketch[0] for t in tiles] + [t.sketch[0] + t.sketch[2] for t in tiles], eps)
    ys, y_class = _classes(
        [t.sketch[1] for t in tiles] + [t.sketch[1] + t.sketch[3] for t in tiles], eps)

    snapped = {}
    for k, t in enumerate(tiles):
        ix0, ix1, iy0, iy1 = x_class[k], x_class[n + k], y_class[k], y_class[n + k]
        if ix1 <= ix0 or iy1 <= iy0:
            raise DissectionError(f"tile {t.tid} collapses at sketch tolerance")
        snapped[t.tid] = (ix0, ix1, iy0, iy1)

    # Spans rise, so a strip's spans chain from class 0 to the top exactly
    # when each class starts as many spans as end there, one more at 0 and
    # one fewer at the top.  The sweep carries that balance across strips.
    balance = [-1] + [0] * (len(ys) - 2) + [1]  # spans starting - ending - wanted
    faults = 2
    changes = [[] for _ in xs]
    for ix0, ix1, iy0, iy1 in snapped.values():
        changes[ix0] += ((iy0, 1), (iy1, -1))
        changes[ix1] += ((iy0, -1), (iy1, 1))
    for sx in range(len(xs) - 1):
        for c, step in changes[sx]:
            faults -= balance[c] != 0
            balance[c] += step
            faults += balance[c] != 0
        if not faults:
            continue
        spans = sorted(
            (iy0, iy1, tid)
            for tid, (ix0, ix1, iy0, iy1) in snapped.items()
            if ix0 <= sx < ix1
        )
        cursor = 0
        for lo, hi, tid in spans:
            if lo > cursor:
                raise DissectionError(
                    f"sketch gap near x={xs[sx]:.6g}, y={ys[cursor]:.6g}"
                )
            if lo < cursor:
                raise DissectionError(f"sketch overlap at tile {tid}")
            cursor = hi
        raise DissectionError(f"sketch gap near x={xs[sx]:.6g} (top)")

    v_nodes, node_ids, tile_ends = _segments(
        snapped, len(xs), len(ys) - 1, "vertical node at x class"
    )
    h_cuts, cut_ids, tile_spans = _segments(
        {tid: (iy0, iy1, ix0, ix1) for tid, (ix0, ix1, iy0, iy1) in snapped.items()},
        len(ys), len(xs) - 1, "horizontal cut at y class",
    )

    def _single_segment(ids, what: str) -> int:
        if len(ids) != 1:
            raise DissectionError(f"{what} boundary splits into several segments")
        return ids[0][2]

    left_boundary = _single_segment(node_ids[0], "left")
    right_boundary = _single_segment(node_ids[len(xs) - 1], "right")
    bottom_cut = _single_segment(cut_ids[0], "bottom")
    top_cut = _single_segment(cut_ids[len(ys) - 1], "top")

    nodes = tuple(
        VNode(nid, xs[c], ys[lo], ys[hi], tuple(sorted(ends)), tuple(sorted(starts)))
        for nid, (c, lo, hi, ends, starts) in enumerate(v_nodes)
    )
    cuts = tuple(
        HCut(cid, ys[c], xs[lo], xs[hi], tuple(sorted(starts)), tuple(sorted(ends)))
        for cid, (c, lo, hi, ends, starts) in enumerate(h_cuts)
    )
    return CutStructure(
        nodes, cuts, left_boundary, right_boundary, bottom_cut, top_cut,
        tile_ends, tile_spans,
    )


def junction_system(
    cs: CutStructure, tiles, field: FieldSpec, vertical_side=None
) -> LinearSystem:
    """Stitching conditions as a linear system over the dissection's field.

    Unknowns are v<k> (the vertical side of tile k) plus x (the big
    horizontal side); the big vertical side is fixed to ``vertical_side``
    (1 by default).  Equations: the left-boundary balance, one balance per
    interior vertical node, the top-edge equation x = sum of horizontal
    sides, and one balance per interior horizontal cut, every horizontal
    side entering as aspect * vertical side.  Rows are built sparse, so the
    system costs O(tiles + cuts) until its dense ``rows`` view is read.
    """
    one = field.one
    zero = field.zero
    if vertical_side is None:
        vertical_side = one
    # a first coefficient is stored as it is, so lift an int or Fraction aspect
    kind = type(zero)
    aspect = {t.tid: t.aspect if type(t.aspect) is kind else zero + t.aspect for t in tiles}
    order = sorted(aspect)
    variables = tuple(f"v{tid}" for tid in order) + ("x",)
    column = {tid: k for k, tid in enumerate(order)}
    unit = dict.fromkeys(order, one)
    rows = []

    def balance(plus, minus, weight, rhs=zero):
        """Append sum of weight over plus tiles - sum over minus tiles = rhs."""
        coeffs = {}
        for tid in plus:
            k, w = column[tid], weight[tid]
            coeffs[k] = coeffs[k] + w if k in coeffs else w
        for tid in minus:
            k, w = column[tid], weight[tid]
            coeffs[k] = coeffs[k] - w if k in coeffs else -w
        rows.append((coeffs, rhs))
        return coeffs

    balance(cs.v_nodes[cs.left_boundary].right_tiles, (), unit, vertical_side)
    boundary_nodes = {cs.left_boundary, cs.right_boundary}
    for node in cs.v_nodes:
        if node.nid not in boundary_nodes:
            balance(node.left_tiles, node.right_tiles, unit)

    top = balance((), cs.h_cuts[cs.top_cut].below_tiles, aspect)
    top[len(order)] = one  # the x column
    boundary_cuts = {cs.bottom_cut, cs.top_cut}
    for cut in cs.h_cuts:
        if cut.cid not in boundary_cuts:
            balance(cut.above_tiles, cut.below_tiles, aspect)

    return LinearSystem.from_sparse(variables, rows, zero)


@dataclass(frozen=True)
class SizingResult:
    sized: Dissection
    ratio: object          # big horizontal side / big vertical side
    cuts: CutStructure


def solve_sizes(d: Dissection) -> SizingResult:
    """The exact sizing of a dissection: a sketch's solved, a sized one's checked.

    A sized ``d`` keeps its sizes, with no elimination and no Euler count.
    Its rects must pass geometric validation, and ``_place``, laying its
    widths and heights on its sketch's cuts, must give back every rect and
    far edge; otherwise the error names the first tile that differs.  Its
    heights then obey Kirchhoff's laws on the cuts, so they are the flow.

    A sketch is sized with the big vertical side taken from ``d.big_h``
    when present (1 otherwise).  Tile k is a resistor of conductance
    1/aspect from its left vertical node to its right one; with potential 1
    on the left side and 0 on the right, the network conducts G, so scaling
    by U = big_h / G makes the big horizontal side U, each tile's
    horizontal side its potential drop times U, and its vertical side that
    times 1/aspect, its current.  Each node and cut is placed at the start
    of a tile ending on it plus that tile's width or height; whichever tile
    reaches it, a node lands at (1 - V) * U and a cut at one height.  The
    result is geometrically validated.  Four tiles meeting at a point (the
    Euler count), nonpositive sides, and a contradicted declared width
    raise ``SizingError``.
    """
    if d.is_sized:
        validate_geometric(d).require()
        cs = extract_cuts(d)
        edges = _edges(cs, {t.tid: t.rect[2] for t in d.tiles},
                       {t.tid: t.rect[3] for t in d.tiles}, d.field.zero)
        for t in d.tiles:
            x, y, w, h = t.rect
            if edges[t.tid] != (x, x + w, y, y + h):
                raise DissectionError(f"tile {t.tid}'s rect is not the one its sketch sizes to")
        # times one, so that int big sides give a field ratio, not a float
        return SizingResult(d, d.field.one * d.big_w / d.big_h, cs)
    cs = extract_cuts(d)
    field = d.field
    normalization = d.big_h if d.big_h is not None else field.one
    if not normalization > field.zero:
        raise SizingError("big vertical side must be positive")
    # The junction system has V + H - 2 equations for T + 1 unknowns, and a
    # point where four tiles meet leaves it one equation short.
    if len(d.tiles) + 1 != len(cs.v_nodes) + len(cs.h_cuts) - 2:
        raise SizingError("combinatorics under-determined")

    g = {t.tid: field.one / t.aspect for t in d.tiles}
    potential, conductance = laplacian_potentials(
        [(*cs.tile_ends[tid], g[tid]) for tid in g],
        cs.left_boundary, cs.right_boundary, field.one,
    )
    x_val = normalization / conductance
    h, v = {}, {}
    for tid, gt in g.items():
        left, right = cs.tile_ends[tid]
        h[tid] = (potential[left] - potential[right]) * x_val
        v[tid] = h[tid] * gt  # aspect * g = 1, so the width is aspect * height
    zero = field.zero
    for tid, side in v.items():
        if not side > zero:
            raise SizingError(f"degenerate sizing: tile {tid} gets a nonpositive side")
    if d.big_w is not None and d.big_w != x_val:
        raise SizingError(
            f"declared width {format_scalar(d.big_w)} contradicts the solved "
            f"width {format_scalar(x_val)}"
        )

    edges = _edges(cs, h, v, zero)
    tiles = tuple(Tile(t.tid, t.sketch, t.aspect,
                       (edges[t.tid][0], edges[t.tid][2], h[t.tid], v[t.tid]))
                  for t in d.tiles)
    sized = Dissection(field, tiles, big_w=x_val, big_h=normalization)
    validate_geometric(sized).require(
        SizingError, "solved sides do not assemble into an exact tiling"
    )
    ratio = x_val / normalization
    return SizingResult(sized, ratio, cs)


def _edges(cs: CutStructure, widths, heights, zero) -> dict:
    """Each tile's (left, right, bottom, top) edge, as ``_place`` lays the
    widths and heights on the cuts of ``cs``."""
    node_x = _place([n.left_tiles for n in cs.v_nodes], cs.tile_ends, widths, zero)
    cut_y = _place([c.below_tiles for c in cs.h_cuts], cs.tile_spans, heights, zero)
    edges = {}
    for tid, (left, right) in cs.tile_ends.items():
        bottom, top = cs.tile_spans[tid]
        edges[tid] = (node_x[left], node_x[right], cut_y[bottom], cut_y[top])
    return edges


def _place(ending, ends, size, zero) -> list:
    """Positions of one axis's segments: segment 0, the left or bottom
    boundary, at 0, and segment k at the start of ``ending[k][0]``, its
    first ending tile, plus that tile's ``size``.  ``ends`` gives each tile's
    (start, end) segment ids.  Segments are numbered by class and a tile
    starts in a lower class than it ends, so one forward pass places every
    start before it is read."""
    pos = [zero]
    for tiles in ending[1:]:
        first = tiles[0]
        pos.append(pos[ends[first][0]] + size[first])
    return pos


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[str, ...] = ()

    def require(self, error=DissectionError, what="dissection fails geometric validation"):
        """Raise ``error("what: issue; issue")`` unless the tiling is valid."""
        if not self.ok:
            raise error(f"{what}: " + "; ".join(self.issues))


def validate_geometric(d: Dissection) -> ValidationReport:
    """Certify that the exact rectangles tile the big rectangle.

    Positive big sides, exact containment of every tile, pairwise disjoint
    interiors, and the area identity together guarantee an exact tiling.
    Every coordinate (0, the big sides, each tile edge) is replaced by its
    rank on its axis.  Ranks keep strict order exactly, so size,
    containment and overlap tests compare ints.  Each axis is first put on
    its own grid, times a constant L > 0, which keeps order, equality and
    sums.  Over Q, L is the common denominator, so the edges, ranks and the
    area identity run on ints too.  Over Q(sqrt d) the grid holds elements
    of Z[sqrt d], which are ranked by their exact int order keys and summed
    on ints.  Only the aspect check reads the field.
    """
    if not d.is_sized:
        raise DissectionError("validate_geometric needs exact rectangles and big sides")
    issues = []
    if not (d.big_w > 0 and d.big_h > 0):
        issues.append("the big rectangle has a nonpositive side")
    tiles = d.tiles
    rects = [t.rect for t in tiles]
    big_w, xs, ws = _axis(d.big_w, [r[0] for r in rects], [r[2] for r in rects])
    big_h, ys, hs = _axis(d.big_h, [r[1] for r in rects], [r[3] for r in rects])
    boxes = [(xs[k], xs[k + 1], ys[k], ys[k + 1]) for k in range(2, len(xs), 2)]
    area = 0
    for t, (_, _, w, h), (x0, x1, y0, y1), gw, gh in zip(tiles, rects, boxes, ws, hs):
        if not (x0 < x1 and y0 < y1):
            issues.append(f"tile {t.tid} has nonpositive size")
            continue
        if w != t.aspect * h:
            issues.append(f"tile {t.tid} violates its aspect ratio")
        if x0 < xs[0] or y0 < ys[0] or x1 > xs[1] or y1 > ys[1]:
            issues.append(f"tile {t.tid} leaves the big rectangle")
        area = area + gw * gh
    for i, j in _overlapping_pairs(boxes):
        issues.append(f"tiles {tiles[i].tid} and {tiles[j].tid} overlap")
    if area != big_w * big_h:
        issues.append("tile areas do not sum to the big rectangle's area")
    return ValidationReport(not issues, tuple(issues))


def _axis(big, starts, sizes):
    """One axis of ``validate_geometric``: the big side and the sizes, on
    the axis's grid, and the ranks of 0, the big side and each tile's two
    edges."""
    ((big,), starts, sizes), _ = _on_grid((big,), starts, sizes)
    return big, _ranks([0, big] + [
        v for s, size in zip(starts, sizes) for v in (s, s + size)]), sizes


def _ranks(values) -> list[int]:
    """Each value's rank among the distinct values, by one sort of their
    order keys."""
    values = _order_keys(values)
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for prev, k in zip(order, order[1:]):
        ranks[k] = ranks[prev] + (values[prev] < values[k])
    return ranks


def _overlapping_pairs(boxes) -> list[tuple[int, int]]:
    """Sorted position pairs i < j of int boxes (x0, x1, y0, y1) with
    overlapping interiors, exactly those of the all-pairs test.

    Positive boxes are swept along x, leaving before others join at the same
    x; the active ones are kept sorted by y0.  A joining box is tested
    against those starting below its top, downwards.  While no overlap is
    known they are disjoint, so the test stops at the first that ends at or
    below its bottom.  A box with a nonpositive side (already an issue of
    its own) is tested against every other one.
    """
    positive = [k for k, (x0, x1, y0, y1) in enumerate(boxes) if x0 < x1 and y0 < y1]
    events = sorted([(boxes[k][1], 0, k) for k in positive]
                    + [(boxes[k][0], 1, k) for k in positive])
    active: list[tuple[int, int]] = []  # (y0, position), sorted
    pairs = set()
    for _, joins, b in events:
        _, _, yb, yb_end = boxes[b]
        if not joins:
            del active[bisect.bisect_left(active, (yb, b))]
            continue
        for n in range(bisect.bisect_left(active, (yb_end, -1)) - 1, -1, -1):
            a = active[n][1]
            if boxes[a][3] > yb:
                pairs.add((min(a, b), max(a, b)))
            elif not pairs:
                break
        bisect.insort(active, (yb, b))
    for a in set(range(len(boxes))) - set(positive):
        xa, xa_end, ya, ya_end = boxes[a]
        for b, (xb, xb_end, yb, yb_end) in enumerate(boxes):
            if b != a and xa < xb_end and xb < xa_end and ya < yb_end and yb < ya_end:
                pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


@dataclass(frozen=True)
class DehnReport:
    all_squares: bool
    non_square_tiles: tuple[int, ...]
    ratio: object
    ratio_is_rational: bool

    @property
    def ok(self) -> bool:
        return self.all_squares and self.ratio_is_rational


def dehn_check(d: Dissection) -> DehnReport:
    """Executable form of the squares-force-rational-ratio theorem.

    Confirms every tile is an exact square and reports whether the big
    rectangle's horizontal/vertical ratio is rational.
    """
    validate_geometric(d).require()
    non_square = tuple(t.tid for t in d.tiles if t.rect[2] != t.rect[3])
    ratio = d.big_w / d.big_h
    rational = not isinstance(ratio, QuadExt) or ratio.is_rational
    return DehnReport(not non_square, non_square, ratio, rational)


# --- JSON round trip --------------------------------------------------------


def dissection_to_json(d: Dissection) -> dict:
    return {
        "field": d.field.to_json(),
        "big": {
            "w": format_scalar(d.big_w) if d.big_w is not None else None,
            "h": format_scalar(d.big_h) if d.big_h is not None else None,
        },
        "tiles": [
            {
                "id": t.tid,
                "sketch": list(t.sketch),
                "aspect": format_scalar(t.aspect),
                "rect": [format_scalar(c) for c in t.rect] if t.rect else None,
            }
            for t in d.tiles
        ],
    }


def dissection_from_json(obj: dict) -> Dissection:
    """Read the JSON object; anything off the file format raises an error
    that is both a ``DissectionError`` and an ``InputError``."""
    if not isinstance(obj, dict):
        raise _MalformedDissection(
            f"malformed dissection object: a {type(obj).__name__}, not an object"
        )
    try:
        field = FieldSpec.from_json(obj["field"])
        big = obj.get("big")
        if big is None:
            big = {}
        elif not isinstance(big, dict):
            raise _MalformedDissection("big needs an object or null")
        big_w, big_h = (_scalar_or_null(field, big.get(side), f"big {side}")
                        for side in "wh")
        entries = obj["tiles"]
        if type(entries) is not list or not all(isinstance(e, dict) for e in entries):
            raise _MalformedDissection("tiles needs a list of tile objects")
        tiles = []
        for entry in entries:
            where = f"tile {entry.get('id')}"
            sketch = entry["sketch"]
            if not (type(sketch) is list and len(sketch) == 4
                    and all(type(c) in (int, float) for c in sketch)):
                raise _MalformedDissection(f"{where} sketch needs 4 numbers")
            sketch = tuple(float(c) for c in sketch)
            rect = entry.get("rect")
            if rect is not None and not (
                    type(rect) is list and len(rect) == 4
                    and all(type(c) is str for c in rect)):
                raise _MalformedDissection(f"{where} rect needs 4 scalars")
            tid = entry["id"]
            if type(tid) is not int:
                raise _MalformedDissection(f"tile id {json.dumps(tid)} is not an integer")
            aspect = entry["aspect"]
            if type(aspect) is not str:
                raise _MalformedDissection(f"{where} aspect needs a scalar")
            tiles.append(
                Tile(
                    tid,
                    sketch,
                    field.parse(aspect),
                    tuple(field.parse(c) for c in rect) if rect is not None else None,
                )
            )
    except InputError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise _MalformedDissection(f"malformed dissection object: {exc}") from exc
    return Dissection(field, tiles, big_w=big_w, big_h=big_h)


def _scalar_or_null(field: FieldSpec, value, what: str):
    """A scalar string parsed in ``field``; None for null."""
    if value is None:
        return None
    if type(value) is not str:
        raise _MalformedDissection(f"{what} needs a scalar or null")
    return field.parse(value)


def read_json(text: str, malformed: type[InputError]):
    """``json.loads`` for an input file.

    A syntax error stays a ``json.JSONDecodeError``.  The two other ways
    ``json.loads`` fails, a number over Python's int-string digit limit and
    nesting past the recursion limit, raise ``malformed`` instead.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise malformed("malformed JSON: a number has too many digits") from None
    except RecursionError:
        raise malformed("malformed JSON: nested too deeply") from None


def load_dissection(text: str) -> Dissection:
    return dissection_from_json(read_json(text, _MalformedDissection))


def dump_dissection(d: Dissection) -> str:
    return json.dumps(dissection_to_json(d), indent=2) + "\n"


# --- rendering ---------------------------------------------------------------

_SVG_SIZE = 480.0


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def render_svg(d: Dissection) -> str:
    """Deterministic SVG for a sized dissection, one labeled rect per tile."""
    if not d.is_sized:
        raise DissectionError("render needs a sized dissection")
    big_w = float(d.big_w)
    big_h = float(d.big_h)
    scale = _SVG_SIZE / max(big_w, big_h)
    width = big_w * scale
    height = big_h * scale
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
        'fill="white" stroke="none"/>',
    ]
    for t in d.tiles:
        x, y, w, h = (float(c) for c in t.rect)
        sx = x * scale
        sy = (big_h - y - h) * scale  # flip: sketch y grows upward, SVG downward
        sw = w * scale
        sh = h * scale
        lines.append(
            f'<rect x="{_fmt(sx)}" y="{_fmt(sy)}" width="{_fmt(sw)}" '
            f'height="{_fmt(sh)}" fill="none" stroke="black" stroke-width="1"/>'
        )
        font = min(sw, sh) / 2.5
        lines.append(
            f'<text x="{_fmt(sx + sw / 2)}" y="{_fmt(sy + sh / 2 + font / 3)}" '
            f'font-size="{_fmt(font)}" text-anchor="middle" '
            f'font-family="sans-serif" fill="black">{t.tid}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


