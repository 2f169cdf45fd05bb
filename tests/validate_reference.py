"""The scans that the certificate ran before they were made near-linear, kept as test oracles.

``tilecircuit.dissection`` now validates a tiling on the exact ranks of
its coordinates with a sweep that lists overlapping pairs, checks sketch
strip coverage in one sweep that carries the active spans from strip to
strip, labels each sketch coordinate while it clusters them, and builds
the junction system from sparse rows.  These are the functions they
replaced, copied verbatim: ``validate_geometric`` with its pairwise
``_overlapping_pairs`` over the field, ``extract_cuts`` with its per-strip
rescan of every tile and its ``_cluster`` and ``_class_of``, and
``junction_system`` with its dense rows.  ``test_sweep_exactness.py``
requires the same reports, cut structures, systems, classes and
exceptions from both.
"""

from __future__ import annotations

import bisect

from tilecircuit.dissection import (
    SKETCH_REL_TOL,
    CutStructure,
    Dissection,
    DissectionError,
    HCut,
    ValidationReport,
    VNode,
    _segments,
)
from tilecircuit.fields import FieldSpec
from tilecircuit.linear import LinearSystem


def _cluster(values, eps: float) -> list[float]:
    """Sorted class representatives; values closer than eps share a class."""
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > eps:
            out.append(v)
    return out


def _class_of(value: float, classes: list[float], eps: float, what: str) -> int:
    i = bisect.bisect_left(classes, value)
    for j in (i - 1, i):
        if 0 <= j < len(classes) and abs(classes[j] - value) <= eps:
            return j
    raise DissectionError(f"{what} coordinate {value} matches no grid class")


def extract_cuts(d: Dissection) -> CutStructure:
    """Read the cut combinatorics off the sketch.

    Vertical nodes are the maximal connected vertical segments of the union
    of tile vertical edges (plus the big rectangle's sides); horizontal cuts
    are the same thing sideways.  Ordering is by coordinate, so the result
    is deterministic.
    """
    tiles = d.tiles
    if not tiles:
        raise DissectionError("dissection has no tiles")
    x0 = min(t.sketch[0] for t in tiles)
    y0 = min(t.sketch[1] for t in tiles)
    x1 = max(t.sketch[0] + t.sketch[2] for t in tiles)
    y1 = max(t.sketch[1] + t.sketch[3] for t in tiles)
    eps = SKETCH_REL_TOL * max(x1 - x0, y1 - y0)

    xs = _cluster(
        [t.sketch[0] for t in tiles] + [t.sketch[0] + t.sketch[2] for t in tiles],
        eps,
    )
    ys = _cluster(
        [t.sketch[1] for t in tiles] + [t.sketch[1] + t.sketch[3] for t in tiles],
        eps,
    )

    snapped = {}
    for t in tiles:
        ix0 = _class_of(t.sketch[0], xs, eps, f"tile {t.tid} left")
        ix1 = _class_of(t.sketch[0] + t.sketch[2], xs, eps, f"tile {t.tid} right")
        iy0 = _class_of(t.sketch[1], ys, eps, f"tile {t.tid} bottom")
        iy1 = _class_of(t.sketch[1] + t.sketch[3], ys, eps, f"tile {t.tid} top")
        if ix1 <= ix0 or iy1 <= iy0:
            raise DissectionError(f"tile {t.tid} collapses at sketch tolerance")
        snapped[t.tid] = (ix0, ix1, iy0, iy1)

    # every x-strip between consecutive classes must be covered exactly once
    for sx in range(len(xs) - 1):
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
        if cursor != len(ys) - 1:
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
    side entering as aspect * vertical side.
    """
    one = field.one
    zero = field.zero
    if vertical_side is None:
        vertical_side = one
    aspect = {t.tid: t.aspect for t in tiles}
    order = sorted(aspect)
    variables = tuple(f"v{tid}" for tid in order) + ("x",)
    column = {tid: k for k, tid in enumerate(order)}
    unit = dict.fromkeys(order, one)
    rows = []

    def balance(plus, minus, weight, rhs=zero):
        """Append sum of weight over plus tiles - sum over minus tiles = rhs."""
        coeffs = [zero] * len(variables)
        for tid in plus:
            coeffs[column[tid]] = coeffs[column[tid]] + weight[tid]
        for tid in minus:
            coeffs[column[tid]] = coeffs[column[tid]] - weight[tid]
        rows.append((coeffs, rhs))
        return coeffs

    balance(cs.v_nodes[cs.left_boundary].right_tiles, (), unit, vertical_side)
    boundary_nodes = {cs.left_boundary, cs.right_boundary}
    for node in cs.v_nodes:
        if node.nid not in boundary_nodes:
            balance(node.left_tiles, node.right_tiles, unit)

    top = balance((), cs.h_cuts[cs.top_cut].below_tiles, aspect)
    top[-1] = one  # the x column
    boundary_cuts = {cs.bottom_cut, cs.top_cut}
    for cut in cs.h_cuts:
        if cut.cid not in boundary_cuts:
            balance(cut.above_tiles, cut.below_tiles, aspect)

    return LinearSystem(variables, tuple(rows))


def validate_geometric(d: Dissection) -> ValidationReport:
    """Certify that the exact rectangles tile the big rectangle.

    Exact containment of every tile, pairwise disjoint interiors, and the
    area identity together guarantee an exact tiling.
    """
    if not d.is_sized:
        raise DissectionError("validate_geometric needs exact rectangles and big sides")
    issues = []
    zero = d.field.zero
    area = zero
    tiles = d.tiles
    for t in tiles:
        x, y, w, h = t.rect
        if not (w > zero and h > zero):
            issues.append(f"tile {t.tid} has nonpositive size")
            continue
        if w != t.aspect * h:
            issues.append(f"tile {t.tid} violates its aspect ratio")
        if x < zero or y < zero or x + w > d.big_w or y + h > d.big_h:
            issues.append(f"tile {t.tid} leaves the big rectangle")
        area = area + w * h
    for i, j in _overlapping_pairs([t.rect for t in tiles], zero):
        issues.append(f"tiles {tiles[i].tid} and {tiles[j].tid} overlap")
    if area != d.big_w * d.big_h:
        issues.append("tile areas do not sum to the big rectangle's area")
    return ValidationReport(not issues, tuple(issues))


def _overlapping_pairs(rects, zero) -> list[tuple[int, int]]:
    """Sorted position pairs i < j of rectangles with overlapping interiors.

    Rectangles of positive size are swept in order of their left edge, and
    only those whose x-intervals overlap get the y test.  A rectangle with a
    nonpositive side (already an issue of its own) is tested against every
    other one, so the pairs are exactly those of the all-pairs test.
    """
    boxes = [(x, x + w, y, y + h) for x, y, w, h in rects]

    def overlap(a, b):
        xa, xa_end, ya, ya_end = boxes[a]
        xb, xb_end, yb, yb_end = boxes[b]
        return xa < xb_end and xb < xa_end and ya < yb_end and yb < ya_end

    positive = {k for k, (_, _, w, h) in enumerate(rects) if w > zero and h > zero}
    swept = sorted(positive, key=lambda k: boxes[k][0])
    pairs = set()
    for n, a in enumerate(swept):
        xa_end = boxes[a][1]
        for b in swept[n + 1:]:
            if not boxes[b][0] < xa_end:
                break
            if overlap(a, b):
                pairs.add((min(a, b), max(a, b)))
    for a in set(range(len(rects))) - positive:
        for b in range(len(rects)):
            if b != a and overlap(a, b):
                pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)
