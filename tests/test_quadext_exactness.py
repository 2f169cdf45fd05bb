"""``QuadExt`` against the two-``Fraction`` class it replaced.

Both classes are built from the same components and radicand.  Every
operation must give the same ``a``, ``b`` and ``d`` with the same value
types; comparisons, truth, hashes, floats and printed forms must agree;
and the same exception type and message must come back where the old
class raised.  Components are drawn zero, small, rational, negative and
about 200 bits long.
"""

import math
import operator
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import quadext_reference as ref
from tilecircuit.fields import QuadExt, format_scalar

RADICANDS = (2, 3, 5, 6, 7, 10)
BIG = 2**200

radicands = st.sampled_from(RADICANDS)
components = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
exponents = st.integers(0, 6)

BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARE = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def pair(a, b, d):
    """The same element as a QuadExt and as the reference class."""
    return QuadExt(a, b, d), ref.QuadExt(a, b, d)


def outcome(fn, *args):
    """('ok', value) or ('raise', exception type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception itself is what is compared
        return ("raise", type(exc), str(exc))


def parts(value):
    """A field value as comparable data: class kind, components and their types."""
    if isinstance(value, (QuadExt, ref.QuadExt)):
        return ("quad", value.a, type(value.a), value.b, type(value.b), value.d, type(value.d))
    return ("other", value, type(value))


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got[1:] == want[1:]
    else:
        assert parts(got[1]) == parts(want[1])
        if isinstance(want[1], ref.QuadExt):
            assert type(got[1]) is QuadExt
            assert_same_element(got[1], want[1])


def assert_same_element(x, rx):
    """Every view of one element agrees with the reference.

    Equality with the element built afresh from its components holds only
    when arithmetic left it in the one reduced form.
    """
    assert parts(x) == parts(rx)
    assert x == QuadExt(rx.a, rx.b, rx.d)
    for op in COMPARE:
        assert outcome(op, x, 0) == outcome(op, rx, 0)
    assert bool(x) is bool(rx)
    assert hash(x) == hash(rx)
    assert outcome(float, x) == outcome(float, rx)
    assert str(x) == str(rx)
    assert repr(x) == repr(rx)
    assert format_scalar(x) == ref.format_scalar(rx)
    assert x.is_rational == rx.is_rational


@settings(max_examples=300, deadline=None)
@given(radicands, components, components, components, components, components, exponents)
def test_arithmetic_matches_reference(d, a1, b1, a2, b2, k, n):
    x, rx = pair(a1, b1, d)
    y, ry = pair(a2, b2, d)
    assert_same_element(x, rx)
    for op in BINARY:
        assert_same(outcome(op, x, y), outcome(op, rx, ry))
        assert_same(outcome(op, x, k), outcome(op, rx, k))
        assert_same(outcome(op, k, x), outcome(op, k, rx))
    assert_same(outcome(QuadExt.inverse, x), outcome(ref.QuadExt.inverse, rx))
    assert_same(outcome(operator.neg, x), outcome(operator.neg, rx))
    assert_same(outcome(pow, x, n), outcome(pow, rx, n))
    assert_same(outcome(QuadExt.conjugate, x), outcome(ref.QuadExt.conjugate, rx))


@settings(max_examples=300, deadline=None)
@given(radicands, components, components, components, components, components)
def test_comparisons_match_reference(d, a1, b1, a2, b2, k):
    x, rx = pair(a1, b1, d)
    y, ry = pair(a2, b2, d)
    for op in COMPARE:
        assert outcome(op, x, y) == outcome(op, rx, ry)
        assert outcome(op, x, x) == outcome(op, rx, rx)
        assert outcome(op, x, k) == outcome(op, rx, k)
        assert outcome(op, k, x) == outcome(op, k, rx)
    # an element near its own rational approximation: the opposite-sign case
    # of the sign test must compare a^2 with b^2*d exactly
    if b1:
        near = Fraction(math.isqrt(d * 10**40) * b1.numerator, 10**20 * b1.denominator)
        for op in COMPARE:
            assert outcome(op, x, near) == outcome(op, rx, near)
        for a, b in ((-near, b1), (near, -b1)):
            u, ru = pair(a, b, d)
            for op in COMPARE:
                assert outcome(op, u, 0) == outcome(op, ru, 0)


@settings(max_examples=100, deadline=None)
@given(radicands, radicands, components, components, components, components)
def test_mixed_radicands_match_reference(d1, d2, a1, b1, a2, b2):
    x, rx = pair(a1, b1, d1)
    y, ry = pair(a2, b2, d2)
    for op in BINARY + COMPARE:
        assert_same(outcome(op, x, y), outcome(op, rx, ry))
    assert outcome(hash, x) == outcome(hash, rx)


@settings(max_examples=100, deadline=None)
@given(radicands, components, components, st.sampled_from([0, Fraction(0)]))
def test_errors_match_reference(d, a, b, zero):
    x, rx = pair(a, b, d)
    z, rz = pair(zero, zero, d)
    cases = [
        (operator.truediv, (x, z), (rx, rz)),
        (operator.truediv, (x, zero), (rx, zero)),
        (operator.truediv, (zero, z), (zero, rz)),
        (operator.truediv, (1, z), (1, rz)),
        (lambda v: v.inverse(), (z,), (rz,)),
        (operator.lt, (x, 1.5), (rx, 1.5)),
        (operator.ge, (1.5, x), (1.5, rx)),
        (operator.eq, (x, 1.5), (rx, 1.5)),
        (operator.add, (x, 1.5), (rx, 1.5)),
        (operator.mul, (x, "2"), (rx, "2")),
        (pow, (x, -1), (rx, -1)),
        (pow, (x, Fraction(1, 2)), (rx, Fraction(1, 2))),
    ]
    for fn, args, ref_args in cases:
        # operator messages name the class, which has the same name in both
        assert_same(outcome(fn, *args), outcome(fn, *ref_args))


def test_constructor_errors_match_reference():
    bad = [
        (1, 1, 4), (1, 1, 12), (1, 1, 0), (1, 1, 1), (1, 1, -2), (1, 1, 10**11),
        (1.5, 0, 2), (1, 0.5, 2), (Fraction(1, 2), 2.0, 3), ("1", 0, 2),
    ]
    for args in bad:
        got, want = outcome(QuadExt, *args), outcome(ref.QuadExt, *args)
        assert got[0] == want[0] == "raise"
        assert got[1:] == want[1:]


def test_elements_are_immutable_like_the_reference():
    x, rx = pair(1, 2, 3)
    for name in ("a", "b", "d", "other"):
        assert outcome(setattr, x, name, 5) == outcome(setattr, rx, name, 5)
