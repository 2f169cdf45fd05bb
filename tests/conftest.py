"""Shared fixture corpus and independent oracles for the test suite."""

import contextlib
import importlib.util
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from tilecircuit import linear
from tilecircuit import (
    Battery,
    Dissection,
    FieldSpec,
    Netlist,
    QuadExt,
    RatFunc,
    Resistor,
    Tile,
    ladder_dissection,
    load_dissection,
    load_ladder,
)
from tilecircuit.dissection import SKETCH_REL_TOL, _classes

# Unique exact solution of the nine-square shelf (vertical side normalized
# to 1): big horizontal side 33/32 and square sides k/32 for
# k = 1, 10, 9, 8, 7, 4, 18, 14, 15.  Pinned by three independent checks:
# hand elimination of the junction system, the area identity
# sum(sides^2) = 33/32, and the classic 32x33 squared rectangle.
SHELF_X = Fraction(33, 32)
SHELF_SIDES = {
    1: Fraction(1, 32),
    2: Fraction(5, 16),
    3: Fraction(9, 32),
    4: Fraction(1, 4),
    5: Fraction(7, 32),
    6: Fraction(1, 8),
    7: Fraction(9, 16),
    8: Fraction(7, 16),
    9: Fraction(15, 32),
}

_SHELF_SKETCH = {
    1: (8, 22, 1, 1),
    2: (9, 22, 10, 10),
    3: (0, 23, 9, 9),
    4: (0, 15, 8, 8),
    5: (8, 15, 7, 7),
    6: (15, 18, 4, 4),
    7: (15, 0, 18, 18),
    8: (19, 18, 14, 14),
    9: (0, 0, 15, 15),
}


def make_shelf() -> Dissection:
    """The nine-square shelf, squares numbered as in the solved table."""
    field = FieldSpec.rational()
    tiles = [
        Tile(tid, tuple(float(c) for c in sketch), Fraction(1))
        for tid, sketch in sorted(_SHELF_SKETCH.items())
    ]
    return Dissection(field, tiles)


def make_two_columns(r1, r2) -> Dissection:
    """Two tiles side by side (one vertical cut); ratio comes out r1 + r2."""
    field = FieldSpec.rational()
    tiles = [
        Tile(1, (0.0, 0.0, 1.0, 1.0), Fraction(r1)),
        Tile(2, (1.0, 0.0, 1.0, 1.0), Fraction(r2)),
    ]
    return Dissection(field, tiles)


def make_two_rows(r1, r2) -> Dissection:
    """Two stacked tiles (one horizontal cut); ratio r1*r2/(r1 + r2)."""
    field = FieldSpec.rational()
    tiles = [
        Tile(1, (0.0, 0.5, 1.0, 0.5), Fraction(r1)),
        Tile(2, (0.0, 0.0, 1.0, 0.5), Fraction(r2)),
    ]
    return Dissection(field, tiles)


def make_pinwheel() -> Dissection:
    """Central unit square ringed by four rectangles; ratios 1,1,1,3,3.

    Hand elimination gives big ratio 5/3 with vertical sides
    (2/3, 1/3, 2/3, 1/3, 1/3).
    """
    field = FieldSpec.rational()
    tiles = [
        Tile(1, (0.0, 1.0, 2.0, 2.0), Fraction(1)),
        Tile(2, (2.0, 1.0, 1.0, 1.0), Fraction(1)),
        Tile(3, (3.0, 0.0, 2.0, 2.0), Fraction(1)),
        Tile(4, (2.0, 2.0, 3.0, 1.0), Fraction(3)),
        Tile(5, (0.0, 0.0, 3.0, 1.0), Fraction(3)),
    ]
    return Dissection(field, tiles)


PINWHEEL_RATIO = Fraction(5, 3)
PINWHEEL_SIDES = {
    1: Fraction(2, 3),
    2: Fraction(1, 3),
    3: Fraction(2, 3),
    4: Fraction(1, 3),
    5: Fraction(1, 3),
}


def golden_ratio_like() -> QuadExt:
    """(3 + sqrt(3))/2, the ratio of the five-rectangle square tiling."""
    return QuadExt(Fraction(3, 2), Fraction(1, 2), 3)


def make_five_similar() -> Dissection:
    """Unit square cut into five rectangles of ratio R and 1/R, R=(3+sqrt3)/2.

    Three upright thirds across the bottom (ratio 1/R) under two halves
    lying across the top (ratio R); widths 1/3 and 1/2 are forced.
    """
    field = FieldSpec.quadratic(3)
    r = golden_ratio_like()
    inv = 1 / r
    lo_h = 0.789  # sketch approximation of R/3
    tiles = [
        Tile(1, (0.0, 0.0, 1 / 3, lo_h), inv),
        Tile(2, (1 / 3, 0.0, 1 / 3, lo_h), inv),
        Tile(3, (2 / 3, 0.0, 1 / 3, lo_h), inv),
        Tile(4, (0.0, lo_h, 0.5, 1 - lo_h), r),
        Tile(5, (0.5, lo_h, 0.5, 1 - lo_h), r),
    ]
    return Dissection(field, tiles, big_w=field.one, big_h=field.one)


def corpus():
    """Every sizable fixture the cross-checking suites run over."""
    return {
        "shelf": make_shelf(),
        "two_columns": make_two_columns(Fraction(1, 2), Fraction(3, 2)),
        "two_rows": make_two_rows(Fraction(1), Fraction(2)),
        "pinwheel": make_pinwheel(),
        "five_similar": make_five_similar(),
    }


def random_fraction(rng: random.Random, lo: int = 1, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def random_connected_netlist(rng: random.Random, max_nodes: int = 8,
                             max_edges: int = 16) -> Netlist:
    """Random connected multigraph with positive rational resistances.

    A resistor spanning tree guarantees connectivity without the battery,
    so every battery placement leaves a closed circuit.
    """
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    resistors = []
    for i in range(1, n):
        j = rng.randrange(i)
        resistors.append(Resistor(i, nodes[j], nodes[i], random_fraction(rng)))
    extra = rng.randint(0, max_edges - (n - 1))
    rid = n
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        resistors.append(Resistor(rid, nodes[a], nodes[b], random_fraction(rng)))
        rid += 1
    plus, minus = rng.sample(nodes, 2)
    return Netlist(resistors, Battery(plus, minus, random_fraction(rng)))


def determinant(matrix):
    """Exact determinant by cofactor expansion; oracle-grade, n <= 6 or so."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    sign = 1
    for col in range(n):
        entry = matrix[0][col]
        if entry != 0:
            minor = [
                [row[c] for c in range(n) if c != col] for row in matrix[1:]
            ]
            total += sign * entry * determinant(minor)
        sign = -sign
    return total


def cramer_solve(coeff_rows, rhs):
    """Cramer's rule with the exact determinant; None when singular."""
    n = len(coeff_rows)
    det = determinant(coeff_rows)
    if det == 0:
        return None
    out = []
    for j in range(n):
        replaced = [
            [rhs[i] if c == j else coeff_rows[i][c] for c in range(n)]
            for i in range(n)
        ]
        out.append(determinant(replaced) / det)
    return out


@pytest.fixture
def rng():
    return random.Random(20260811)


DATA = Path(__file__).parent / "data"


def tilings():
    """The corpus, the data dissections and the ladder tiling of ladder_sqrt3."""
    tilings = dict(corpus())
    for name in ("five_similar", "shelf", "wall_sqrt2", "wall_sqrt5"):
        tilings[name] = load_dissection((DATA / f"{name}.json").read_text())
    tilings["ladder_sqrt3"] = ladder_dissection(
        load_ladder((DATA / "ladder_sqrt3.json").read_text())
    )
    return tilings


def perfbench_gen():
    """``perfbench/gen.py``, the benchmark's seeded input generators."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def counted_eliminations():
    """The calls of the Laplacian elimination kernel made inside the block."""
    calls = []
    original = linear._eliminate_laplacian

    def counted(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linear, "_eliminate_laplacian", counted)
        yield calls


def sketch_merges_edges(rects) -> bool:
    """Does the float sketch of exact rects merge two distinct edge coordinates?

    The sketch is each rect's coordinates as floats, and ``extract_cuts``
    classes its edges at the sketch tolerance.  On either axis, fewer
    classes than distinct exact edge coordinates means two cuts are read as
    one, which collapses a thin tile or silently joins two cuts (ROADMAP
    item 14)."""
    sketches = [tuple(map(float, r)) for r in rects]
    eps = SKETCH_REL_TOL * max(
        max(s[axis] + s[axis + 2] for s in sketches) - min(s[axis] for s in sketches)
        for axis in (0, 1))
    for axis in (0, 1):
        edges = [r[axis] for r in rects] + [r[axis] + r[axis + 2] for r in rects]
        sketched = [s[axis] for s in sketches] + [s[axis] + s[axis + 2] for s in sketches]
        if len(_classes(sketched, eps)[0]) < len(set(edges)):
            return True
    return False


def positive_ratfunc(value: RatFunc) -> bool:
    return bool(value) and min(value.num.coeffs + value.den.coeffs) >= 0


RATIONAL = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


def quadratic(d):
    """Positive a + b*sqrt(d), b of either sign."""
    parts = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    return st.builds(lambda a, b: QuadExt(a, b, d), RATIONAL, parts).filter(
        lambda x: x > 0
    )


_COEFF = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
_ATOM = st.one_of(_COEFF.map(RatFunc.constant), _COEFF.map(lambda c: RatFunc.t() * c))
# symbolic resistances: c, c*t and their positive sums, products and quotients
SYMBOLIC_VALUE = st.recursive(
    _ATOM,
    lambda inner: st.builds(lambda op, x, y: op(x, y),
                            st.sampled_from([operator.add, operator.mul, operator.truediv]),
                            inner, inner),
    max_leaves=3,
).filter(positive_ratfunc)


@st.composite
def multigraphs(draw, values=SYMBOLIC_VALUE, voltages=st.just(RatFunc.constant(1))):
    """A netlist that is connected, though perhaps only through its battery.

    Nodes 0..n-1 get a random resistor tree; with ``split`` the tree edge
    into node ``cut`` is left out, so the battery, placed across the cut,
    is the only link between the two parts.  Resistances are drawn from
    ``values`` and the battery voltage from ``voltages``.
    """
    n = draw(st.integers(2, 5))
    split = draw(st.integers(0, 3)) == 0
    cut = draw(st.integers(1, n - 1))
    ends = []
    for i in range(1, n):
        if split and i == cut:
            continue
        # under a split, nodes past the cut hang from nodes past the cut
        ends.append((draw(st.integers(cut if split and i > cut else 0, i - 1)), i))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, n - 1))
        if split:
            b = draw(st.integers(*((0, cut - 1) if a < cut else (cut, n - 1))))
        else:
            b = draw(st.integers(0, n - 1))
        ends.append((a, b))  # a self-loop, a parallel edge or any pair
    resistors = []
    for rid, (a, b) in enumerate(draw(st.permutations(ends)), start=1):
        if draw(st.booleans()):
            a, b = b, a
        resistors.append(Resistor(rid, f"n{a}", f"n{b}", draw(values)))
    if split:
        plus, minus = draw(st.integers(0, cut - 1)), draw(st.integers(cut, n - 1))
        if draw(st.booleans()):
            plus, minus = minus, plus
    else:
        plus, minus = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True))
    return Netlist(resistors, Battery(f"n{plus}", f"n{minus}", draw(voltages)))
