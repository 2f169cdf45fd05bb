"""Certificate checks on the integer grid over Z[sqrt d].

Over Q(sqrt d), ``fields._on_grid`` scales a set of values by the lcm L of
their denominators, so each becomes an element p + q*sqrt(d) of Z[sqrt d]
(an ``_IntQuad``).  ``_order_keys`` orders such elements by ints:
floor(2^k (p + q*sqrt(d))) for a k large enough that distinct elements get
distinct keys.  Here the keys must sort exactly as ``QuadExt`` does, on
random elements of several radicands and on the near-ties p - q*sqrt(2) of
Pell convergents; an ``_IntQuad`` must compute as the ``QuadExt`` it
equals, with every operand; and ``validate_geometric`` must give the report
of the field-arithmetic ``validate_reference.py`` on Q(sqrt 2) tilings
whose edges nearly coincide.
"""

import itertools
import operator
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import validate_reference as ref
from tilecircuit import Dissection, FieldSpec, QuadExt, RatFunc, Tile, validate_geometric
from tilecircuit.fields import _IntQuad, _on_grid, _order_keys

GRID_OPERANDS = {
    "int": st.integers(-10**6, 10**6),
    "Fraction": st.fractions(max_denominator=9),
    "bool": st.booleans(),
    "QuadExt": st.builds(QuadExt, st.fractions(max_denominator=9),
                         st.fractions(max_denominator=9), st.just(2)),
    "QuadExt sqrt 3": st.builds(QuadExt, st.fractions(max_denominator=9),
                                st.fractions(max_denominator=9), st.just(3)),
    "RatFunc": st.builds(RatFunc.constant, st.fractions(max_denominator=9)),
    "on a grid": st.builds(lambda v: _on_grid([v])[0][0][0], st.builds(
        QuadExt, st.fractions(max_denominator=9), st.fractions(max_denominator=9),
        st.sampled_from([2, 3]))),
}


def _as_field(v):
    return v._field() if type(v) is _IntQuad else v


def _result(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    if type(value) is _IntQuad:
        return "value", value._field()
    return "value", value


@given(st.sampled_from([2, 3, 5]).flatmap(lambda d: st.builds(
           lambda a, b: _IntQuad(a, b, d), st.integers(-10**6, 10**6),
           st.integers(-10**6, 10**6))),
       st.one_of(*GRID_OPERANDS.values()),
       st.sampled_from(["add", "sub", "mul", "eq", "ne"]),
       st.booleans())
def test_grid_element_computes_as_the_quadext_it_equals(x, other, name, reflected):
    """Every operation of a Z[sqrt d] grid element, on either side, gives
    the field's value, or raises its error, with every operand."""
    op = getattr(operator, name)
    args = (other, x) if reflected else (x, other)
    assert _result(op, *args) == _result(op, *map(_as_field, args))
    assert _result(operator.neg, x) == _result(operator.neg, x._field())
    assert bool(x) is bool(x._field())


# p - q*sqrt(2) for consecutive Pell convergents p/q of sqrt(2): nonzero,
# alternating in sign and shrinking like 1/(2q sqrt 2)
PELL = [(3, 2), (17, 12), (99, 70), (577, 408), (3363, 2378), (665857, 470832)]


@st.composite
def z_sqrt_d_lists(draw):
    """Elements p + q*sqrt(d) of Z[sqrt d] of one grid, with repeats, ints,
    and over d = 2 the near-ties of Pell convergents and their neighbours."""
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 9_999_999_967]))
    span = draw(st.sampled_from([10, 10**6, 10**40]))
    part = st.integers(-span, span)
    element = st.builds(lambda p, q: _IntQuad(p, q, d), part, part)
    if d == 2:
        element = st.one_of(element, st.builds(
            lambda pq, sign, shift: _IntQuad(sign * pq[0] + shift, -sign * pq[1], d),
            st.sampled_from(PELL), st.sampled_from([1, -1]), st.integers(-1, 1)))
    values = draw(st.lists(st.one_of(element, part), min_size=1, max_size=30))
    return values + draw(st.lists(st.sampled_from(values), max_size=5)), d


@given(z_sqrt_d_lists())
def test_order_keys_sort_as_the_field_does(case):
    """Keys order the values exactly; each is 2^k v - q*t for one k and one
    t in [0, 1), and the key of the int 1 at the end is 2^k."""
    values, d = case
    values = values + [1]
    keys = _order_keys(values)
    assert all(type(k) is int for k in keys)
    exact = [QuadExt(v.p, v.q, d) if type(v) is _IntQuad else QuadExt(v, 0, d)
             for v in values]
    for i, j in itertools.product(range(len(values)), repeat=2):
        assert (keys[i] < keys[j]) is (exact[i] < exact[j])
        assert (keys[i] == keys[j]) is (exact[i] == exact[j])
    power = keys[-1]
    assert power & (power - 1) == 0
    for key, v in zip(keys, exact):
        error = v * power - key  # q*t
        assert error == 0 if v.b == 0 else 0 <= error / v.b < 1


def test_order_keys_separate_pell_near_ties():
    d = 2
    near = [_IntQuad(p, -q, d) for p, q in PELL] + [_IntQuad(-p, q, d) for p, q in PELL]
    values = near + [0, 1, -1]
    keys = _order_keys(values)
    exact = [v._field() if type(v) is _IntQuad else QuadExt(v, 0, d) for v in values]
    order = sorted(range(len(values)), key=keys.__getitem__)
    assert order == sorted(range(len(values)), key=exact.__getitem__)
    assert len(set(keys)) == len(values)


def test_order_keys_leave_other_values_as_given():
    ints = [3, -1, 2]
    assert _order_keys(ints) is ints
    quads = [QuadExt(1, 1, 2), Fraction(1, 2)]
    assert _order_keys(quads) is quads


# --- validate_geometric on near-ties ----------------------------------------------

QSQRT2 = FieldSpec.quadratic(2)
ROOT2 = QuadExt(0, 1, 2)
# sqrt 2 and its Pell convergents, 1/12 to 1e-12 away from it, each also
# shifted by 1 and 3/2 so that joints of one row nearly meet those of another
NEAR = sorted({QSQRT2.one * v + shift
               for v in [ROOT2] + [Fraction(p, q) for p, q in PELL]
               for shift in (0, 1, Fraction(3, 2))})
# the differences sqrt 2 - p/q, for moving one tile by a near-tie
NUDGES = [ROOT2 - Fraction(p, q) for p, q in PELL]


@st.composite
def near_tie_walls(draw):
    """A wall 4 wide over Q(sqrt 2) whose rows end their bricks at near-ties
    of sqrt 2, 1 + sqrt 2 and 3/2 + sqrt 2: as built, or with one tile moved
    or resized by sqrt 2 - p/q for a Pell convergent p/q."""
    width = QSQRT2.one * 4
    rects, y = [], QSQRT2.zero
    for _ in range(draw(st.integers(1, 4))):
        h = draw(st.sampled_from(NEAR))
        joints = sorted(draw(st.sets(st.sampled_from(NEAR), min_size=1, max_size=4)))
        edges = [QSQRT2.zero, *joints, width]
        rects += [(x0, y, x1 - x0, h) for x0, x1 in zip(edges, edges[1:])]
        y = y + h
    k = draw(st.integers(0, len(rects) - 1))
    x, y0, w, h = rects[k]
    nudge = draw(st.sampled_from(NUDGES)) * draw(st.sampled_from([1, -1]))
    rects[k] = {"none": (x, y0, w, h), "x": (x + nudge, y0, w, h),
                "y": (x, y0 + nudge, w, h), "w": (x, y0, w + nudge, h),
                "h": (x, y0, w, h + nudge)}[
        draw(st.sampled_from(["none", "x", "y", "w", "h"]))]
    tiles = [Tile(tid, (0.0, 0.0, 1.0, 1.0),
                  r[2] / r[3] if r[2] > 0 and r[3] > 0 else QSQRT2.one, r)
             for tid, r in enumerate(rects, 1)]
    return Dissection(QSQRT2, tiles, big_w=width, big_h=y)


@settings(max_examples=200, deadline=None)
@given(near_tie_walls())
def test_validate_matches_reference_on_near_ties(d):
    assert validate_geometric(d) == ref.validate_geometric(d)
