"""The bridge between dissections and resistor networks.

Every vertical cut segment of a dissection becomes a terminal, every tile a
resistor (resistance = aspect ratio, oriented from its left terminal to its
right one), and a battery joins the outer sides with voltage equal to the
big rectangle's horizontal side.  Under this dictionary the junction
conditions and the Kirchhoff equations are the same system: tile vertical
sides are edge currents, the big vertical side is the battery current, and
a vertical cut at x has potential U - x.  Every function here reads a
dissection's sizes through ``solve_sizes``, which sizes a sketch and
checks a sized dissection against its sketch's cuts.
``certify_equivalence`` checks the dictionary exactly on a concrete
dissection: the sizes must obey Kirchhoff's laws read off the cut
structure, with the left and right boundaries as the battery's
terminals, which makes them the flow.  The junction conditions are those
laws read node by node and cut by cut, so they are not substituted
again.  A network is built only for ``to-circuit``, for ``theorem1`` and
to name a mismatch.

The same bridge powers two algebraic constructions for square dissections
into rectangles of ratio R and 1/R:

  * ``theorem1_certificate`` stretches the square horizontally by R, reads
    the resulting network with tiles of stretched ratio R^2 as a symbolic
    resistor t (ratio-1 tiles as resistance 1), and turns the network's
    resistance formula p(t)/q(t) into a nonzero integer polynomial
    q(x^2)*x - p(x^2) that provably vanishes at R.
  * ``ladder_dissection`` constructs, from positive rationals c_1..c_n whose
    ladder continued fraction in R equals 1, an explicit unit-square tiling
    by ratio-R and ratio-1/R rectangles (a slab of fitting grid tiles plus a
    transposed remainder, recursively).

Ladder file format (JSON)::

    {"field": {...}, "R": scalar, "c": [rational, ...]}
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algcheck import IntPoly
from .circuit import (
    Battery,
    Netlist,
    Resistor,
    kirchhoff_system,  # noqa: F401  a module-level name that perfbench/spans.py wraps
    solve_flow,
    symbolic_resistance,
)
from .dissection import (
    CutStructure,
    Dissection,
    Tile,
    extract_cuts,  # noqa: F401  a module-level name that perfbench/spans.py wraps
    read_json,
    solve_sizes,
    validate_geometric,
)
from .fields import (
    FieldSpec,
    InputError,
    QuadExt,
    RatFunc,
    _on_grid,
    format_scalar,
    one_like,
    parse_rational,
    zero_like,
)
from .linear import substitute_and_verify  # noqa: F401  perfbench/spans.py wraps it


class CorrespondenceError(Exception):
    """A bridge construction received unusable input."""


def _node_names(cs: CutStructure) -> dict[int, str]:
    names = {cs.left_boundary: "L", cs.right_boundary: "R"}
    counter = 1
    for node in cs.v_nodes:
        if node.nid not in names:
            names[node.nid] = f"n{counter}"
            counter += 1
    return names


def circuit_of_dissection(d: Dissection) -> Netlist:
    """Build the network of a dissection, read through ``solve_sizes``.

    Terminals are the vertical cut segments; each tile becomes the resistor
    of its id with resistance equal to its aspect ratio, oriented left
    terminal to right terminal; the battery spans the outer sides with
    voltage equal to the big horizontal side, positive pole on the left.
    ``d`` is read through ``solve_sizes``: a sketch is sized, a sized ``d``
    checked on its sketch's cuts.
    """
    sizing = solve_sizes(d)
    return _network(sizing.sized.tiles, sizing.cuts, lambda t: t.aspect, sizing.sized.big_w)


def _network(tiles, cs: CutStructure, value, voltage) -> Netlist:
    """Tile k becomes resistor k of resistance value(tile), oriented left to
    right terminal; the battery spans L (plus) to R with the given voltage."""
    names = _node_names(cs)
    resistors = [
        Resistor(t.tid, names[cs.tile_ends[t.tid][0]], names[cs.tile_ends[t.tid][1]],
                 value(t))
        for t in tiles
    ]
    return Netlist(resistors, Battery("L", "R", voltage))


@dataclass(frozen=True)
class TileCurrent:
    tile: int
    vertical_side: object
    current: object

    @property
    def matches(self) -> bool:
        return self.vertical_side == self.current


@dataclass(frozen=True)
class EquivalenceReport:
    tiles: tuple[TileCurrent, ...]
    battery_current: object
    big_vertical: object
    resistance: object
    big_ratio: object
    systems_agree: bool

    @property
    def ok(self) -> bool:
        return (
            all(t.matches for t in self.tiles)
            and self.battery_current == self.big_vertical
            and self.resistance == self.big_ratio
            and self.systems_agree
        )

    def mismatches(self) -> tuple[str, ...]:
        out = []
        for t in self.tiles:
            if not t.matches:
                out.append(
                    f"tile {t.tile}: side {format_scalar(t.vertical_side)} "
                    f"!= current {format_scalar(t.current)}"
                )
        if self.battery_current != self.big_vertical:
            out.append(
                f"battery current {format_scalar(self.battery_current)} != "
                f"big vertical side {format_scalar(self.big_vertical)}"
            )
        if self.resistance != self.big_ratio:
            out.append(
                f"resistance {format_scalar(self.resistance)} != "
                f"big ratio {format_scalar(self.big_ratio)}"
            )
        if not self.systems_agree:
            out.append("junction and Kirchhoff systems disagree on a solution")
        return tuple(out)


def certify_equivalence(d: Dissection) -> EquivalenceReport:
    """Check, exactly, that sizing the tiles and solving the flow coincide.

    The sizes must obey Kirchhoff's laws on the cut structure
    (``_obeys_circuit_laws``).  The grounded Laplacian is nonsingular, so
    then they are the flow: heights are currents, ``big_h`` the battery
    current, ``big_w / big_h`` the resistance.  Only a mismatch builds the
    network and solves its flow, to name what differs.  A sized ``d`` keeps
    its sizes once ``solve_sizes`` has checked them on its sketch's cuts,
    so then nothing is eliminated.

    The junction system (``junction_system``, with v<k> the heights and
    x = U) holds whenever the laws do, so it is not substituted:

      * each interior vertical node's row, and the left boundary's, is the
        current law at that node, which the laws check on the heights;
      * by Ohm's law aspect * v is the tile's width.  The tiles above a
        maximal horizontal cut chain through shared vertical nodes, and so
        do the tiles below; both chains start on one node and end on one,
        since touching intervals merge into one node (``_segments``).  Each
        node has one position, so both sides sum to the same span;
      * by the same chain along the top edge, from x = 0 to x = U, the top
        row's sum is U.
    """
    sizing = solve_sizes(d)
    sized = sizing.sized
    heights = {t.tid: t.rect[3] for t in sized.tiles}
    agree = _obeys_circuit_laws(sizing.cuts, sized)
    if agree:
        currents, battery, resistance = heights, sized.big_h, sizing.ratio
    else:
        flow = solve_flow(_network(sized.tiles, sizing.cuts, lambda t: t.aspect, sized.big_w))
        currents, battery, resistance = (
            flow.edge_current, flow.battery_current, flow.total_resistance)
    tiles = tuple(TileCurrent(tid, h, currents[tid]) for tid, h in heights.items())
    return EquivalenceReport(tiles, battery, sized.big_h, resistance, sizing.ratio, agree)


def _obeys_circuit_laws(cs: CutStructure, sized: Dissection) -> bool:
    """Do the sizes obey Kirchhoff's laws on the cut structure?

    The vertical nodes of ``cs`` are the network's nodes, each tile a
    resistor of resistance its aspect from its left node to its right one,
    and the battery of voltage U = ``big_w`` joins the left boundary (plus)
    to the right one.  Heights are the currents (``big_h`` the battery's),
    and a vertical side at x has potential U - x, kept here as its x.
    Current is conserved at every node, each tile obeys Ohm's law (its
    potential drop, its width w, is height times aspect), and each node
    gets one potential from the battery (x = 0 at plus, x = U at minus)
    and every tile touching it.  The currents and the positions are each
    put on a grid, times an L > 0: ints over Q, elements p + q*sqrt(d) of
    Z[sqrt d] over Q(sqrt d), whose sums run on ints.  Conservation and
    positions are linear, so they hold exactly when they hold on the grid;
    only Ohm's law runs in the field.
    """
    plus, minus = cs.left_boundary, cs.right_boundary
    rects = [t.rect for t in sized.tiles]
    xs, ws, hs = [r[0] for r in rects], [r[2] for r in rects], [r[3] for r in rects]
    ((battery,), flows), _ = _on_grid((sized.big_h,), hs)
    ((u,), xs, ws), _ = _on_grid((sized.big_w,), xs, ws)
    outflow = [0] * len(cs.v_nodes)
    outflow[plus] = -battery
    outflow[minus] = battery
    at = {plus: 0, minus: u}
    for t, (_, _, w, h), x, gw, flow in zip(sized.tiles, rects, xs, ws, flows):
        if h * t.aspect != w:
            return False
        left, right = cs.tile_ends[t.tid]
        outflow[left] += flow
        outflow[right] -= flow
        end = x + gw
        if at.setdefault(left, x) != x or at.setdefault(right, end) != end:
            return False
    return not any(outflow)


def stretch(d: Dissection, s) -> Dissection:
    """Scale the horizontal direction by s > 0: every aspect multiplies by s."""
    if not s > zero_like(s):
        raise CorrespondenceError("stretch factor must be positive")
    field = d.field
    if isinstance(s, QuadExt) and field.kind == "rational":
        field = FieldSpec.quadratic(s.d)
    fs = float(s)
    tiles = tuple(
        Tile(
            t.tid,
            (t.sketch[0] * fs, t.sketch[1], t.sketch[2] * fs, t.sketch[3]),
            t.aspect * s,
            (t.rect[0] * s, t.rect[1], t.rect[2] * s, t.rect[3]) if t.rect else None,
        )
        for t in d.tiles
    )
    big_w = d.big_w * s if d.big_w is not None else None
    return Dissection(field, tiles, big_w=big_w, big_h=d.big_h)


def theorem1_certificate(d: Dissection, ratio=None) -> IntPoly:
    """Integer polynomial with the dissection's tile ratio R as a root.

    The dissection must tile a square with rectangles of aspect R or 1/R.
    Stretching by R makes the 1/R tiles squares (resistance 1) and the R
    tiles rectangles of ratio R^2 (the symbolic resistance t); if the
    resulting network resistance is p(t)/q(t), then q(x^2)*x - p(x^2) is a
    nonzero integer polynomial vanishing at R, which is verified exactly
    before returning.  ``d`` is read through ``solve_sizes``: a sketch is
    sized, a sized ``d`` checked on its sketch's cuts.
    """
    sizing = solve_sizes(d)
    if sizing.ratio != one_like(sizing.ratio):
        raise CorrespondenceError("certificate needs a square dissection")
    r = ratio if ratio is not None else infer_ratio(d)
    if not r > zero_like(r):
        raise CorrespondenceError("ratio must be positive")
    inv = one_like(r) / r

    def value(t):
        if t.aspect == inv:
            return RatFunc.constant(1)
        if t.aspect == r:
            return RatFunc.t()
        raise CorrespondenceError(
            f"tile {t.tid} has aspect {format_scalar(t.aspect)}, "
            "not the declared ratio or its inverse"
        )

    net = _network(d.tiles, sizing.cuts, value, RatFunc.constant(1))
    w = symbolic_resistance(net)

    candidate = w.den.compose_square().shift_up(1) - w.num.compose_square()
    ints, _ = candidate.clear_denominators()
    certificate = IntPoly(ints)
    if certificate.is_zero:
        raise CorrespondenceError("resistance formula produced the zero polynomial")
    if certificate.eval(r) != zero_like(r):
        raise CorrespondenceError(
            "internal contradiction: certificate does not vanish at the ratio"
        )
    return certificate


def infer_ratio(d: Dissection):
    """The representative >= 1 of the tile aspect set {R, 1/R}."""
    if not d.tiles:
        raise CorrespondenceError("dissection has no tiles")
    aspects = []
    for t in d.tiles:
        if not any(t.aspect == a for a in aspects):
            aspects.append(t.aspect)
    candidates = []
    one = one_like(aspects[0])
    for a in aspects:
        r = a if a >= one else one / a
        if not any(r == c for c in candidates):
            candidates.append(r)
    if len(candidates) != 1:
        raise CorrespondenceError(
            "tile aspects are not of the form {R, 1/R} for a single ratio"
        )
    return candidates[0]


# --- ladder continued fractions and their dissections -----------------------


MAX_LADDER_TILES = 10_000  # coefficient p/q builds a q-by-p grid of tiles


class LadderError(Exception):
    """A ladder specification is malformed or does not evaluate to 1."""


class _MalformedLadder(LadderError, InputError):
    """A ladder file or specification that breaks the format."""


@dataclass(frozen=True)
class LadderSpec:
    """Target ratio R plus positive rational coefficients c_1..c_n."""

    field: FieldSpec
    ratio: object
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise _MalformedLadder("ladder needs at least one coefficient")
        if any(c <= 0 for c in coeffs):
            raise _MalformedLadder("ladder coefficients must be positive rationals")
        if not self.ratio > self.field.zero:
            raise _MalformedLadder("ladder ratio must be positive")


def ladder_tails(spec: LadderSpec) -> list:
    """Partial tails T_k = c_k R + 1/T_{k+1}, innermost first computed."""
    r = spec.ratio
    tails: list = []
    nxt = None
    for c in reversed(spec.coefficients):
        term = c * r
        if nxt is None:
            tails.append(term)
        else:
            if nxt == zero_like(nxt):
                raise ZeroDivisionError("ladder tail vanishes")
            tails.append(term + one_like(term) / nxt)
        nxt = tails[-1]
    tails.reverse()
    return tails


def cf_eval(spec: LadderSpec):
    """Exact value of c_1 R + 1/(c_2 R + 1/(... + 1/(c_n R))).

    The ladder witnesses a tiling exactly when this value is 1.
    """
    return ladder_tails(spec)[0]


def ladder_dissection(spec: LadderSpec) -> Dissection:
    """Unit-square tiling by ratio-R and ratio-1/R rectangles from a ladder.

    Working inward, coefficient c_k = p/q claims a slab of the current
    rectangle and fills it with a q-by-p grid of correctly oriented tiles;
    the remainder has aspect 1/T_{k+1} and is processed with orientations
    transposed.  Validity of the ladder (all tails positive, value exactly
    1) guarantees the construction closes up exactly.  A ladder of more
    than ``MAX_LADDER_TILES`` tiles is refused before anything is built.
    """
    if sum(c.numerator * c.denominator for c in spec.coefficients) > MAX_LADDER_TILES:
        raise _MalformedLadder(f"ladder would build more than {MAX_LADDER_TILES} tiles")
    tails = ladder_tails(spec)
    one = one_like(spec.ratio)
    zero = zero_like(spec.ratio)
    for t in tails:
        if not t > zero:
            raise LadderError("ladder tails must be positive")
    if tails[0] != one:
        raise LadderError(
            f"ladder evaluates to {format_scalar(tails[0])}, not 1"
        )

    r = spec.ratio
    tiles: list[Tile] = []

    def emit(x, y, w, h, aspect):
        tid = len(tiles) + 1
        tiles.append(
            Tile(
                tid,
                (float(x), float(y), float(w), float(h)),
                aspect,
                (x, y, w, h),
            )
        )

    def fill(x, y, w, h, k: int, transposed: bool):
        c = spec.coefficients[k]
        p, q = c.numerator, c.denominator
        if not transposed:
            # vertical slab on the left: q rows by p columns of ratio-R tiles
            slab_w = c * r * h
            cell_w = slab_w / p
            cell_h = h / q
            for col in range(p):
                for row in range(q):
                    emit(x + cell_w * col, y + cell_h * row, cell_w, cell_h, r)
            rest_w = w - slab_w
            if k + 1 < len(spec.coefficients):
                fill(x + slab_w, y, rest_w, h, k + 1, True)
            elif rest_w != zero:
                raise LadderError("ladder does not close up exactly")
        else:
            # horizontal slab at the bottom: p rows by q columns of 1/R tiles
            slab_h = c * r * w
            cell_w = w / q
            cell_h = slab_h / p
            for col in range(q):
                for row in range(p):
                    emit(x + cell_w * col, y + cell_h * row, cell_w, cell_h, one / r)
            rest_h = h - slab_h
            if k + 1 < len(spec.coefficients):
                fill(x, y + slab_h, w, rest_h, k + 1, False)
            elif rest_h != zero:
                raise LadderError("ladder does not close up exactly")

    fill(zero, zero, one, one, 0, False)
    d = Dissection(spec.field, tiles, big_w=one, big_h=one)
    validate_geometric(d).require(LadderError, "ladder construction failed validation")
    return d


def ladder_to_json(spec: LadderSpec) -> dict:
    return {
        "field": spec.field.to_json(),
        "R": format_scalar(spec.ratio),
        "c": [format_scalar(c) for c in spec.coefficients],
    }


def ladder_from_json(obj: dict) -> LadderSpec:
    """Read the JSON object; anything off the file format raises an error
    that is both a ``LadderError`` and an ``InputError``."""
    if not isinstance(obj, dict):
        raise _MalformedLadder(
            f"malformed ladder object: a {type(obj).__name__}, not an object"
        )
    try:
        field = FieldSpec.from_json(obj["field"])
        ratio, coeffs = obj["R"], obj["c"]
        if type(ratio) is not str:
            raise _MalformedLadder("R needs a scalar")
        if type(coeffs) is not list or not all(type(c) is str for c in coeffs):
            raise _MalformedLadder("c needs a list of scalars")
        ratio = field.parse(ratio)
        coeffs = tuple(parse_rational(c) for c in coeffs)
    except InputError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise _MalformedLadder(f"malformed ladder object: {exc}") from exc
    return LadderSpec(field, ratio, coeffs)


def load_ladder(text: str) -> LadderSpec:
    return ladder_from_json(read_json(text, _MalformedLadder))
