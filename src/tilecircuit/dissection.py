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
potentials, and cut y-coordinates are then propagated from the bottom.  The
solved dissection carries exact coordinates and can be validated, tested
for the all-squares/rational-ratio property, or rendered.

Dissection file format (JSON)::

    {"field": {"kind": "rational"} | {"kind": "quadratic", "d": 3},
     "big": {"w": scalar-or-null, "h": scalar-or-null},
     "tiles": [{"id": 1, "sketch": [x, y, w, h], "aspect": scalar,
                "rect": [x, y, w, h] | null}, ...]}

where scalars use the shared textual syntax and sketch entries are plain
JSON numbers.
"""

from __future__ import annotations

import bisect
import json
import math
from collections import deque
from dataclasses import dataclass

from .fields import FieldSpec, InputError, QuadExt, format_scalar
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

    def tile(self, tid: int) -> Tile:
        for t in self.tiles:
            if t.tid == tid:
                return t
        raise KeyError(f"no tile with id {tid}")

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


@dataclass(frozen=True)
class SizingResult:
    sized: Dissection
    ratio: object          # big horizontal side / big vertical side
    cuts: CutStructure


def solve_sizes(d: Dissection) -> SizingResult:
    """Size a sketched dissection exactly.

    The big vertical side is taken from ``d.big_h`` when present (1
    otherwise).  Tile k is a resistor of conductance 1/aspect from its left
    vertical node to its right one; with potential 1 on the left side and 0
    on the right, the network conducts G, so scaling by U = big_h / G makes
    the big horizontal side U, node x-coordinates (1 - V) * U and tile
    heights the currents.  Cut y-coordinates are propagated from the
    bottom, and the result is geometrically validated.  Four tiles meeting at a point,
    nonpositive sides, and a contradicted declared width raise
    ``SizingError``.
    """
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
    v = {}
    for tid, gt in g.items():
        left, right = cs.tile_ends[tid]
        v[tid] = (potential[left] - potential[right]) * gt * x_val
    h = {t.tid: t.aspect * v[t.tid] for t in d.tiles}
    zero = field.zero
    for tid, side in v.items():
        if not side > zero:
            raise SizingError(f"degenerate sizing: tile {tid} gets a nonpositive side")
    if d.big_w is not None and d.big_w != x_val:
        raise SizingError(
            f"declared width {format_scalar(d.big_w)} contradicts the solved "
            f"width {format_scalar(x_val)}"
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
                (field.one - potential[cs.tile_ends[t.tid][0]]) * x_val,
                cut_y[cs.tile_spans[t.tid][0]],
                h[t.tid],
                v[t.tid],
            ),
        )
        for t in d.tiles
    )
    sized = Dissection(field, tiles, big_w=x_val, big_h=normalization)
    report = validate_geometric(sized)
    if not report.ok:
        raise SizingError(
            "solved sides do not assemble into an exact tiling: "
            + "; ".join(report.issues)
        )
    ratio = x_val / normalization
    return SizingResult(sized, ratio, cs)


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


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[str, ...] = ()


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
    report = validate_geometric(d)
    if not report.ok:
        raise DissectionError("dissection fails geometric validation: "
                              + "; ".join(report.issues))
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
        big = obj.get("big") or {}
        big_w = field.parse(big["w"]) if big.get("w") else None
        big_h = field.parse(big["h"]) if big.get("h") else None
        tiles = []
        for entry in obj["tiles"]:
            sketch = tuple(float(c) for c in entry["sketch"])
            where = f"tile {entry.get('id')}"
            if len(sketch) != 4:
                raise _MalformedDissection(f"{where} sketch needs 4 numbers")
            rect = entry.get("rect")
            if rect and len(rect) != 4:
                raise _MalformedDissection(f"{where} rect needs 4 scalars")
            tiles.append(
                Tile(
                    int(entry["id"]),
                    sketch,
                    field.parse(entry["aspect"]),
                    tuple(field.parse(c) for c in rect) if rect else None,
                )
            )
    except InputError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise _MalformedDissection(f"malformed dissection object: {exc}") from exc
    d = Dissection(field, tiles, big_w=big_w, big_h=big_h)
    for t in d.tiles:
        if not all(math.isfinite(c) for c in t.sketch):
            raise _MalformedDissection(f"tile {t.tid} has a non-finite sketch coordinate")
    return d


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


