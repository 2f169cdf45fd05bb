import copy
import itertools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import routh_reference

from tilecircuit import (
    IntPoly,
    QuadExt,
    conjugate_lemma_check,
    lfs_condition3,
    minpoly_quadratic,
    parse_intpoly,
    poly_eval,
    positive_real_part_all_roots,
)
from tilecircuit.fields import Poly


def test_intpoly_normalization():
    assert IntPoly([2, 4, 6]).coeffs == (1, 2, 3)
    assert IntPoly([1, 0, -1]).coeffs == (-1, 0, 1)  # leading made positive
    assert IntPoly([0, 0]).is_zero
    assert IntPoly([-3]).coeffs == (1,)


def test_parse_intpoly():
    assert parse_intpoly("2x^2-6x+3").coeffs == (3, -6, 2)
    assert parse_intpoly("x^2 - 2x - 1").coeffs == (-1, -2, 1)
    assert parse_intpoly("x^3").coeffs == (0, 0, 0, 1)
    assert parse_intpoly("-x+5").coeffs == (-5, 1)  # sign-normalized
    assert parse_intpoly("2*x^2 - 6*x + 3").coeffs == (3, -6, 2)
    with pytest.raises(ValueError):
        parse_intpoly("x^2 + y")
    with pytest.raises(ValueError):
        parse_intpoly("")


def test_intpoly_format_round_trip():
    for text in ("2x^2-6x+3", "x^2-2x-1", "x^3+x", "7", "x"):
        p = parse_intpoly(text)
        assert parse_intpoly(p.format()) == p


def test_minpoly_silver_ratio():
    assert minpoly_quadratic(QuadExt(1, 1, 2)).coeffs == (-1, -2, 1)


def test_minpoly_rational():
    assert minpoly_quadratic(Fraction(5, 3)).coeffs == (-5, 3)
    assert minpoly_quadratic(Fraction(7, 5)).coeffs == (-7, 5)


def test_minpoly_half_of_three_plus_root3():
    x = QuadExt(Fraction(3, 2), Fraction(1, 2), 3)
    assert minpoly_quadratic(x).coeffs == (3, -6, 2)


def test_minpoly_vanishes_at_its_element():
    rng = random.Random(13)
    for _ in range(40):
        x = QuadExt(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            rng.choice([2, 3, 5, 7]),
        )
        mp = minpoly_quadratic(x)
        assert poly_eval(mp.to_poly(), x) == 0


def test_conjugate_lemma_on_the_minimal_polynomial():
    report = conjugate_lemma_check(parse_intpoly("x^2-2x-1"), QuadExt(1, 1, 2))
    assert report.value_at_x == 0 and report.value_at_conjugate == 0
    assert report.values_are_conjugate and report.transports_root


def test_conjugate_lemma_linear():
    report = conjugate_lemma_check(parse_intpoly("x-1"), QuadExt(1, 1, 2))
    assert report.value_at_x == QuadExt(0, 1, 2)
    assert report.value_at_conjugate == QuadExt(0, -1, 2)
    assert report.values_are_conjugate


def test_conjugate_lemma_cube():
    # (1 + sqrt2)^3 = 7 + 5 sqrt2, expanded by hand
    report = conjugate_lemma_check(parse_intpoly("x^3"), QuadExt(1, 1, 2))
    assert report.value_at_x == QuadExt(7, 5, 2)
    assert report.value_at_conjugate == QuadExt(7, -5, 2)
    assert report.values_are_conjugate


def test_conjugation_soundness_random():
    rng = random.Random(29)
    for _ in range(40):
        p = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] or [1])
        if p.is_zero:
            continue
        x = QuadExt(
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
            3,
        )
        report = conjugate_lemma_check(p, x)
        assert report.values_are_conjugate


def test_positive_real_part_known_cases():
    assert not positive_real_part_all_roots(parse_intpoly("x^2-2x-1"))
    assert not positive_real_part_all_roots(parse_intpoly("x^2-2"))
    assert positive_real_part_all_roots(parse_intpoly("2x^2-6x+3"))
    assert positive_real_part_all_roots(parse_intpoly("x-1"))
    assert not positive_real_part_all_roots(parse_intpoly("x+1"))


def test_positive_real_part_rejects_bad_inputs():
    with pytest.raises(ValueError):
        positive_real_part_all_roots(IntPoly([]))
    with pytest.raises(ValueError):
        positive_real_part_all_roots(parse_intpoly("7"))
    with pytest.raises(ValueError):
        positive_real_part_all_roots(parse_intpoly("x^2-2x+1"))  # (x-1)^2


def test_degree2_ground_truth():
    # for monic quadratics both roots lie strictly right of the axis
    # exactly when the sum is positive and the product positive (real case
    # needs positivity of both roots; complex pairs need positive real part)
    rng = random.Random(31)
    checked = 0
    while checked < 120:
        b = rng.randint(-9, 9)
        c = rng.randint(-9, 9)
        p = IntPoly([c, b, 1])  # x^2 + b x + c
        disc = b * b - 4 * c
        if disc == 0:
            continue  # repeated root, rejected by squarefree precondition
        if disc > 0:
            # roots real: positive iff sum -b > 0 and product c > 0
            expected = (-b > 0) and (c > 0)
        else:
            expected = -b > 0  # real part is -b/2 for the conjugate pair
        assert positive_real_part_all_roots(p) == expected
        checked += 1


def test_matches_numeric_rootfinder_outside_exclusion_band():
    rng = random.Random(20260811)
    band = 1e-3
    checked = 0
    while checked < 500:
        degree = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        if coeffs[-1] == 0:
            continue
        p = IntPoly(coeffs)
        if p.degree < 1:
            continue
        try:
            verdict = positive_real_part_all_roots(p)
        except ValueError:
            continue  # not squarefree
        roots = np.roots(list(reversed(p.coeffs)))
        if any(abs(r.real) <= band for r in roots):
            continue  # inside the oracle's exclusion band
        assert verdict == all(r.real > 0 for r in roots), f"coeffs={p.coeffs}"
        checked += 1


def half_plane_outcome(test, p):
    """The verdict, or the type and message of the error raised."""
    try:
        return test(p)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_matches_routh_array(p):
    expected = half_plane_outcome(routh_reference.positive_real_part_all_roots, p)
    assert half_plane_outcome(positive_real_part_all_roots, p) == expected, p.coeffs


def test_half_plane_matches_routh_array_on_small_polynomials():
    # degree 2 or less over [-3, 3], then the cubics over [-2, 2]
    for coeffs in itertools.product(range(-3, 4), repeat=3):
        assert_matches_routh_array(IntPoly(coeffs))
    for coeffs in itertools.product(range(-2, 3), repeat=4):
        assert_matches_routh_array(IntPoly(coeffs))


# k x - m (root m/k) or (x - a)^2 + b^2 (roots a +- b i): real parts of
# either sign or zero; distinct monic factors keep every product squarefree
linear_factors = st.builds(
    lambda m, k: Poly([-m, k]), st.integers(-4, 4), st.integers(1, 3)
)
quadratic_factors = st.builds(
    lambda a, b: Poly([a * a + b * b, -2 * a, 1]), st.integers(-3, 3), st.integers(1, 3)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(linear_factors, quadratic_factors),
    min_size=1, max_size=4, unique_by=lambda factor: factor.monic(),
))
def test_half_plane_matches_routh_array_on_products(factors):
    product = Poly([1])
    for factor in factors:
        product = product * factor
    ints, _ = product.clear_denominators()
    assert_matches_routh_array(IntPoly(ints))


def test_intpoly_copies_and_pickles():
    p = parse_intpoly("2x^3-6x+3")
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(clone) is IntPoly
        assert clone == p
        assert hash(clone) == hash(p)
        assert repr(clone) == repr(p)


def test_lfs_condition3_scalars():
    assert not lfs_condition3(QuadExt(1, 1, 2)).passed
    assert not lfs_condition3(QuadExt(0, 1, 2)).passed
    assert lfs_condition3(QuadExt(Fraction(3, 2), Fraction(1, 2), 3)).passed
    assert lfs_condition3(Fraction(7, 5)).passed
    assert not lfs_condition3(Fraction(-2)).passed
    # scalar verdicts ride on true minimal polynomials: no caveat ever
    assert not lfs_condition3(QuadExt(1, 1, 2)).caveat


def test_lfs_condition3_polynomials():
    fail = lfs_condition3(parse_intpoly("x^2-2x-1"))
    assert not fail.passed and not fail.caveat  # irreducible quadratic
    ok = lfs_condition3(parse_intpoly("2x^2-6x+3"))
    assert ok.passed and not ok.caveat
    # reducible cubic (x+1)(x^2-3x+1): FAIL, flagged because not minimal
    mixed = lfs_condition3(parse_intpoly("x^3-2x^2-2x+1"))
    assert not mixed.passed and mixed.caveat
    # degree > 3 failures always carry the caveat
    deep = lfs_condition3(parse_intpoly("x^4-4"))
    assert not deep.passed and deep.caveat
