import copy
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tilecircuit import (
    FieldSpec,
    InputError,
    Poly,
    QuadExt,
    RatFunc,
    ScalarParseError,
    format_scalar,
    parse_quadext,
    parse_rational,
    poly_divmod,
    poly_eval,
    poly_gcd,
    quad_conjugate,
    squarefree_check,
)
from tilecircuit.dissection import dump_dissection, load_dissection, solve_sizes
from tilecircuit.fields import _GRID_MAX_BITS, _IntQuad, _on_grid, parse_symbolic_scalar


def test_rational_basics():
    assert parse_rational("1/3") + parse_rational("1/6") == Fraction(1, 2)
    assert parse_rational(" -7 / 2 ") == Fraction(-7, 2)
    with pytest.raises(ScalarParseError):
        parse_rational("1.5")


def test_quadext_difference_of_squares():
    x = QuadExt(1, 1, 2)
    y = QuadExt(1, -1, 2)
    assert x * y == Fraction(-1)


def test_quadext_division_and_inverse():
    x = QuadExt(Fraction(3, 2), Fraction(1, 2), 3)
    assert x * x.inverse() == 1
    assert (x / x) == 1
    with pytest.raises(ZeroDivisionError):
        QuadExt(0, 0, 3).inverse()


def test_quadext_rejects_mixed_radicands():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
    # rational embeddings of different fields still compare equal
    assert QuadExt(2, 0, 2) == QuadExt(2, 0, 3)
    assert QuadExt(1, 1, 2) != QuadExt(1, 1, 3)


def test_quadext_requires_squarefree_radicand():
    for bad in (0, 1, 4, 12, -2, 2.5, 2.0, "2", True):
        with pytest.raises(InputError, match="radicand must be a squarefree integer > 1"):
            QuadExt(1, 1, bad)


def test_quadext_ordering_is_exact():
    # 1 + sqrt(2) > 0 > 1 - sqrt(2); ordering must not round
    assert QuadExt(1, 1, 2) > 0
    assert QuadExt(1, -1, 2) < 0
    assert QuadExt(0, 1, 2) > Fraction(7, 5)
    assert QuadExt(0, 1, 2) < Fraction(3, 2)
    # 99/70 is a famously close rational approximation of sqrt(2)
    assert QuadExt(0, 1, 2) < Fraction(99, 70)
    assert QuadExt(0, 1, 2) > Fraction(140, 99)


def test_conjugation_fixes_rationals_and_involutes():
    x = QuadExt(Fraction(5), Fraction(0), 2)
    assert quad_conjugate(x) == x
    y = QuadExt(1, 1, 2)
    assert quad_conjugate(quad_conjugate(y)) == y
    assert quad_conjugate(y) == QuadExt(1, -1, 2)


def test_conjugation_of_square():
    y = QuadExt(1, 1, 2)
    assert quad_conjugate(y * y) == quad_conjugate(y) * quad_conjugate(y)


def test_conjugation_is_field_automorphism_on_random_pairs():
    rng = random.Random(7)
    for _ in range(50):
        a = QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 5)
        b = QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 5)
        assert quad_conjugate(a + b) == quad_conjugate(a) + quad_conjugate(b)
        assert quad_conjugate(a * b) == quad_conjugate(a) * quad_conjugate(b)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_field_axioms_on_random_elements(d):
    rng = random.Random(d)

    def rand():
        return QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9)), d)

    for _ in range(25):
        x, y, z = rand(), rand(), rand()
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if x != 0:
            assert x * (1 / x) == 1


def test_ratfunc_common_denominator():
    t = RatFunc.t()
    one = RatFunc.constant(1)
    assert t / (t + one) + one / (t + one) == one


def test_ratfunc_field_axioms():
    rng = random.Random(11)

    def rand():
        num = Poly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))])
        den = Poly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))])
        if den.is_zero:
            den = Poly([Fraction(1)])
        return RatFunc(num, den)

    for _ in range(25):
        x, y, z = rand(), rand(), rand()
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero:
            assert x * x.inverse() == RatFunc.constant(1)


def test_ratfunc_canonical_form():
    # (t^2 - 1)/(t - 1) reduces to t + 1; denominator must come out monic
    num = Poly([-1, 0, 1])
    den = Poly([-1, 1])
    f = RatFunc(num, den)
    assert f == RatFunc(Poly([1, 1]))
    g = RatFunc(Poly([1]), Poly([2, 2]))
    assert g.den.leading() == 1
    assert g == RatFunc(Poly([Fraction(1, 2)]), Poly([1, 1]))


def test_ratfunc_evaluation_matches_instances():
    t = RatFunc.t()
    f = t / (t + RatFunc.constant(1))
    assert f.eval(Fraction(2)) == Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        f.eval(Fraction(-1))


def test_poly_divmod_worked_example():
    # x^3 divided by x^2 - 2x - 1 leaves quotient x + 2, remainder 5x + 2
    p = Poly([0, 0, 0, 1])
    d = Poly([-1, -2, 1])
    q, r = poly_divmod(p, d)
    assert q == Poly([2, 1])
    assert r == Poly([2, 5])


def test_poly_divmod_edges():
    d = Poly([-1, -2, 1])
    q, r = poly_divmod(d, d)
    assert q == Poly([1]) and r.is_zero
    q, r = poly_divmod(Poly([1, 1]), d)
    assert q.is_zero and r == Poly([1, 1])
    with pytest.raises(ZeroDivisionError):
        poly_divmod(d, Poly())


def test_poly_divmod_reconstructs_random_inputs():
    rng = random.Random(3)
    for _ in range(50):
        p = Poly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 6))])
        d = Poly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))])
        if d.is_zero:
            continue
        q, r = poly_divmod(p, d)
        assert q * d + r == p
        assert r.degree < d.degree


def test_poly_eval_roots_of_quadratic():
    p = Poly([-1, -2, 1])  # x^2 - 2x - 1
    assert poly_eval(p, QuadExt(1, 1, 2)) == 0
    assert poly_eval(p, QuadExt(1, -1, 2)) == 0
    assert poly_eval(Poly([7, 3, 2]), Fraction(0)) == 7


def test_poly_eval_respects_ring_structure():
    rng = random.Random(5)
    for _ in range(25):
        p = Poly([Fraction(rng.randint(-5, 5)) for _ in range(4)])
        q = Poly([Fraction(rng.randint(-5, 5)) for _ in range(3)])
        x = QuadExt(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)), 2)
        assert poly_eval(p + q, x) == poly_eval(p, x) + poly_eval(q, x)
        assert poly_eval(p * q, x) == poly_eval(p, x) * poly_eval(q, x)


def test_poly_gcd_and_squarefree():
    assert poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])
    assert squarefree_check(Poly([-1, -2, 1]))
    assert not squarefree_check(Poly([1, -2, 1]))  # (x - 1)^2
    with pytest.raises(ValueError):
        poly_gcd(Poly(), Poly())


def test_scalar_round_trip():
    cases = [
        Fraction(33, 32),
        Fraction(-5),
        QuadExt(Fraction(3, 2), Fraction(1, 2), 3),
        QuadExt(0, 1, 2),
        QuadExt(1, -1, 2),
        QuadExt(Fraction(-1, 3), Fraction(-2, 7), 5),
        QuadExt(Fraction(4), Fraction(0), 7),
    ]
    for value in cases:
        text = format_scalar(value)
        parsed = parse_quadext(text, getattr(value, "d", None))
        assert parsed == value
        assert format_scalar(parsed) == text


def test_parse_quadext_forms():
    assert parse_quadext("1 + sqrt(2)") == QuadExt(1, 1, 2)
    assert parse_quadext("sqrt(3)") == QuadExt(0, 1, 3)
    assert parse_quadext("-sqrt(3)") == QuadExt(0, -1, 3)
    assert parse_quadext("3/2+1/2*sqrt(3)") == QuadExt(Fraction(3, 2), Fraction(1, 2), 3)
    assert parse_quadext("5", d=2) == QuadExt(5, 0, 2)
    assert parse_quadext("5") == Fraction(5)
    with pytest.raises(ScalarParseError):
        parse_quadext("sqrt(2) + sqrt(3)")
    with pytest.raises(ScalarParseError):
        parse_quadext("1 + sqrt(2)", d=3)


def test_parse_symbolic_scalar():
    assert parse_symbolic_scalar("t") == RatFunc.t()
    assert parse_symbolic_scalar("3/2") == RatFunc.constant(Fraction(3, 2))
    assert parse_symbolic_scalar("2*t") == RatFunc.t() * 2
    with pytest.raises(ScalarParseError):
        parse_symbolic_scalar("t^2")


def test_canonicalization_idempotent():
    # normalizing twice equals normalizing once, for every carrier
    f = RatFunc(Poly([0, 2]), Poly([0, 0, 2]))
    again = RatFunc(f.num, f.den)
    assert f == again
    p = Poly([1, 2, 0, 0])
    assert Poly(p.coeffs) == p


@pytest.mark.parametrize("value", [
    QuadExt(Fraction(3, 2), Fraction(-1, 6), 3),
    QuadExt(7, 0, 2),
    Poly([Fraction(1, 2), 0, -3]),
    Poly(),
    RatFunc(Poly([1, 1]), Poly([0, 2])),
    RatFunc.constant(0),
    FieldSpec.quadratic(5),
    FieldSpec.rational(),
], ids=repr)
def test_immutable_values_copy_and_pickle(value):
    for clone in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(clone) is type(value)
        assert clone == value
        assert hash(clone) == hash(value)
        assert repr(clone) == repr(value)


def test_loaded_dissection_deep_copies_and_pickles():
    text = (Path(__file__).parent / "data" / "five_similar.json").read_text()
    d = load_dissection(text)
    for clone in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert clone == d
        assert dump_dissection(clone) == dump_dissection(d)
        assert solve_sizes(clone).ratio == solve_sizes(d).ratio


@pytest.mark.parametrize("kind, d, message", [
    ("quadratic", 2.5, "quadratic field needs a squarefree d > 1"),
    ("quadratic", 2.0, "quadratic field needs a squarefree d > 1"),
    ("quadratic", True, "quadratic field needs a squarefree d > 1"),
    ("quadratic", "2", "quadratic field needs a squarefree d > 1"),
    ("rational", 5, "rational field takes no radicand"),
])
def test_field_spec_takes_only_an_int_radicand(kind, d, message):
    with pytest.raises(InputError, match=message):
        FieldSpec(kind, d)
    with pytest.raises(InputError, match=message):
        FieldSpec.from_json({"kind": kind, "d": d})


def test_squarefree_cache_stays_bounded():
    from tilecircuit import fields

    size = fields._SQUAREFREE_CACHE_SIZE
    for d in range(2, 2 + 3 * size):
        fields._is_squarefree(d)
    assert fields._is_squarefree.cache_info().currsize == size


GRID_VALUES = {
    "int": st.integers(-10**20, 10**20),
    "Fraction": st.fractions(max_denominator=10**6),
    "past the cap": st.builds(Fraction, st.integers(-9, 9), st.just(2**_GRID_MAX_BITS + 1)),
    "bool": st.booleans(),
    "QuadExt": st.builds(QuadExt, st.fractions(max_denominator=9),
                         st.fractions(max_denominator=9), st.just(2)),
    "QuadExt past the cap": st.builds(
        QuadExt, st.fractions(max_denominator=9),
        st.builds(Fraction, st.integers(-9, 9), st.just(2**_GRID_MAX_BITS + 1)), st.just(2)),
    "QuadExt sqrt 3": st.builds(QuadExt, st.fractions(max_denominator=9),
                                st.fractions(max_denominator=9), st.just(3)),
    "RatFunc": st.builds(RatFunc.constant, st.fractions(max_denominator=9)),
}


def _components(v) -> tuple[Fraction, Fraction]:
    """(a, b) of a + b*sqrt(d) for an int, a Fraction or a QuadExt."""
    if isinstance(v, QuadExt):
        return v.a, v.b
    return Fraction(v), Fraction(0)


@given(st.sets(st.sampled_from(sorted(GRID_VALUES)), min_size=1).flatmap(
    lambda kinds: st.lists(st.lists(st.one_of(*(GRID_VALUES[k] for k in sorted(kinds))),
                                    max_size=40), max_size=4)))
def test_on_grid_scales_every_group_by_one_positive_constant(groups):
    """Over Q the grid holds ints, over one Q(sqrt d) elements p + q*sqrt(d)
    of Z[sqrt d]; either way v * L exactly, with L the lcm of the values'
    denominators (a QuadExt's r).  Anything else gives L = 1."""
    out, scale = _on_grid(*groups)
    assert scale > 0
    assert [len(group) for group in out] == [len(group) for group in groups]
    values = [v for group in groups for v in group]
    radicands = {v.d for v in values if type(v) is QuadExt}
    exact = all(type(v) in (int, Fraction, QuadExt) for v in values) and len(radicands) <= 1
    common = math.lcm(*(c.denominator for v in values for c in _components(v))) if exact else None
    if exact and common.bit_length() <= _GRID_MAX_BITS:
        assert scale == common
        for group, scaled in zip(groups, out):
            for v, w in zip(group, scaled):
                if radicands:
                    assert type(w) is _IntQuad and w.d in radicands
                    assert (w.p, w.q) == _components(v * scale)
                    assert type(w.p) is int and type(w.q) is int
                else:
                    assert type(w) is int and w == v * scale
                assert v * scale == w
    else:
        assert scale == 1 and all(a is b for a, b in zip(out, groups))
