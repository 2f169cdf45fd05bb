"""The certificate's checks on integer grids against their field arithmetic.

Over Q, ``_obeys_circuit_laws`` adds currents and positions as integers;
``certificate_reference.py`` keeps it as it ran in the field.
The verdict, or the exception type and message, must be the same.
``substitute_and_verify`` substitutes a ``Unique`` assignment on the
nonzero coefficients; its verdict must be that of the dense ``rows``
view summed in the field, zero coefficients included.
Systems are random, over Q (ints and ``Fraction``s mixed, with or
without a denominator past the grid's cap), Q(sqrt 2), ``RatFunc`` and
mixtures of Q and Q(sqrt 2), with true and perturbed assignments and
missing variables.  Sizings are those of random brick walls over Q and
Q(sqrt 2), as solved or with a tile moved, a height, a width or
``big_h`` changed; a wall whose float sketch merges two cuts (ROADMAP
item 14) is set aside, and no other.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import certificate_reference as ref
from conftest import RATIONAL, quadratic, sketch_merges_edges
from tilecircuit import (
    Dissection,
    FieldSpec,
    QuadExt,
    RatFunc,
    Tile,
    circuit_of_dissection,
    solve_sizes,
)
from tilecircuit.correspondence import _obeys_circuit_laws
from tilecircuit.fields import zero_like
from tilecircuit.linear import LinearSystem, Unique, substitute_and_verify


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


# --- substitute_and_verify ----------------------------------------------------------

# a denominator whose grid alone passes the 4,096-bit cap
HUGE = 2**4100 + 1

RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([3, 7, 11, 2**64 + 13])),
)
QSQRT2 = st.builds(QuadExt, RATIONAL, RATIONAL, st.just(2))
SCALARS = {
    "Q": RATIONALS,
    "Q past the cap": st.one_of(RATIONALS, st.builds(Fraction, st.integers(1, 9),
                                                     st.just(HUGE))),
    "Q(sqrt2)": QSQRT2,
    "RatFunc": st.builds(lambda c, e: RatFunc.t() * c + RatFunc.constant(e),
                         RATIONAL, RATIONAL),
    "Q and Q(sqrt2)": st.one_of(RATIONALS, QSQRT2),
}


def _nonzero(values):
    return values.filter(bool)


@st.composite
def substitutions(draw, scalars, assigned):
    """A sparse system, its right-hand sides made true by an assignment,
    and that assignment, as drawn or perturbed in one value or one
    right-hand side, or with one variable missing."""
    n = draw(st.integers(1, 6))
    variables = tuple(f"v{k}" for k in range(n))
    values = {v: draw(assigned) for v in variables}
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        columns = draw(st.sets(st.integers(0, n - 1), max_size=n))
        coeffs = {j: draw(_nonzero(scalars)) for j in sorted(columns)}
        rhs = draw(scalars) * 0
        for j, c in coeffs.items():
            rhs = rhs + c * values[variables[j]]
        rows.append((coeffs, rhs))
    kind = draw(st.sampled_from(["true", "value", "rhs", "missing"]))
    if kind == "value":
        v = draw(st.sampled_from(variables))
        values[v] = values[v] + draw(_nonzero(assigned))
    elif kind == "rhs":
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = (rows[k][0], rows[k][1] + draw(_nonzero(scalars)))
    elif kind == "missing":
        del values[draw(st.sampled_from(variables))]
    order = draw(st.permutations(list(values)))
    system = LinearSystem.from_sparse(variables, rows, Fraction(0))
    return system, {v: values[v] for v in order}, kind


def dense_verdict(system: LinearSystem, assignment: dict) -> bool:
    """Does the assignment satisfy every row of the dense ``rows`` view?
    Each row is summed in the field over every column, zero coefficients
    included, so every variable must be assigned."""
    return all(sum((c * assignment[v] for c, v in zip(coeffs, system.variables)),
                   zero_like(rhs)) == rhs
               for coeffs, rhs in system.rows)


@pytest.mark.parametrize("field", SCALARS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_substitution_matches_field_arithmetic(field, data):
    """Over Q the assignment may also hold Q(sqrt 2) values.  A variable
    left out is looked up only where its coefficient is nonzero; every
    other row holds, so that raises ``KeyError``, and otherwise the dense
    sum with any value for it gives the verdict."""
    scalars = SCALARS[field]
    assigned = data.draw(st.sampled_from([scalars, SCALARS["Q and Q(sqrt2)"]])
                         if field == "Q" else st.just(scalars))
    system, assignment, kind = data.draw(substitutions(scalars, assigned))
    verdict = outcome(substitute_and_verify, system, Unique(assignment))
    missing = [(j, v) for j, v in enumerate(system.variables) if v not in assignment]
    if any(coeffs[j] for j, _ in missing for coeffs, _ in system.rows):
        assert verdict == (KeyError, repr(missing[0][1]))
    else:
        filled = {**{v: 1 for _, v in missing}, **assignment}
        assert verdict == outcome(dense_verdict, system, filled)
    if kind == "true":
        assert verdict is True


def test_substitution_looks_up_what_the_field_loop_looks_up():
    system = LinearSystem.from_sparse(
        ("a", "b", "c"), [({0: 1}, Fraction(2)), ({1: Fraction(1, 3), 2: 1}, 1)],
        Fraction(0))
    # row 0 fails before row 1 would look up the missing c, as the dense
    # rows do whatever c is
    assert substitute_and_verify(system, Unique({"a": 3, "b": 1})) is False
    assert not any(dense_verdict(system, {"a": 3, "b": 1, "c": c}) for c in (0, 1, Fraction(2, 3)))
    with pytest.raises(KeyError, match="'c'"):
        substitute_and_verify(system, Unique({"a": 2, "b": 3}))


# --- _obeys_circuit_laws ---------------------------------------------------------------

FIELDS = {
    "Q": (FieldSpec.rational(), RATIONAL),
    "Q(sqrt2)": (FieldSpec.quadratic(2), quadratic(2)),
}


@st.composite
def walls(draw, values):
    """Exact rects of rows of bricks, every row as wide as the others."""
    width = draw(values)
    y = width - width
    rects = []
    for _ in range(draw(st.integers(1, 4))):
        h = draw(values)
        parts = [draw(values) for _ in range(draw(st.integers(1, 4)))]
        whole = sum(parts[1:], parts[0])
        x = y - y
        for p in parts:
            w = p * width / whole
            rects.append((x, y, w, h))
            x = x + w
        y = y + h
    return rects


def _as_int(v):
    return int(v) if isinstance(v, Fraction) and v.denominator == 1 else v


@st.composite
def corrupted_sizings(draw, field_name):
    """A solved wall, its network, its cut structure, and its sizing as
    solved or with one tile moved, one height, one width or ``big_h``
    changed; over Q the whole values are sometimes plain ints."""
    field, values = FIELDS[field_name]
    rects = draw(walls(values))
    assume(not sketch_merges_edges(rects))
    d = Dissection(field, [Tile(tid, tuple(float(c) for c in r), r[2] / r[3])
                           for tid, r in enumerate(rects, 1)])
    sizing = solve_sizes(d)
    sized = sizing.sized
    net = circuit_of_dissection(sized)
    tiles = list(sized.tiles)
    big_h = sized.big_h
    delta = draw(values) * draw(st.sampled_from([1, -1, Fraction(1, 1000)]))
    kind = draw(st.sampled_from(["none", "x", "y", "w", "h", "big_h"]))
    if kind == "big_h":
        big_h = big_h + delta
    elif kind != "none":
        k = draw(st.integers(0, len(tiles) - 1))
        x, y, w, h = tiles[k].rect
        rect = {"x": (x + delta, y, w, h), "y": (x, y + delta, w, h),
                "w": (x, y, w + delta, h), "h": (x, y, w, h + delta)}[kind]
        tiles[k] = Tile(tiles[k].tid, tiles[k].sketch, tiles[k].aspect, rect)
    if field_name == "Q" and draw(st.booleans()):
        tiles = [Tile(t.tid, t.sketch, t.aspect, tuple(map(_as_int, t.rect)))
                 for t in tiles]
        big_h = _as_int(big_h)
    return net, sizing.cuts, Dissection(field, tiles, big_w=sized.big_w, big_h=big_h), kind


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_circuit_laws_match_field_arithmetic(field, data):
    net, cuts, sized, kind = data.draw(corrupted_sizings(field))
    verdict = _obeys_circuit_laws(cuts, sized)
    assert verdict == ref.obeys_circuit_laws(net, sized)
    if kind == "none":
        assert verdict is True
