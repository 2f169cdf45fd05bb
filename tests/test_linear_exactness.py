"""The sparse kernel against the dense input-order kernel it replaced.

Unique outcomes must agree because a unique solution does not depend on
the pivot order; parametric and inconsistent outcomes must agree because
the sparse kernel reruns the same input-order rule for them.  Agreement is
checked field by field, with the order of the bound variables and of
every bound expression's coefficients.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dense_reference import dense_gauss_jordan
from tilecircuit import (
    AffineExpr,
    Dissection,
    FieldSpec,
    Inconsistent,
    LinearSystem,
    Parametric,
    QuadExt,
    Tile,
    Unique,
    extract_cuts,
    gauss_jordan,
    junction_system,
    substitute_and_verify,
)

KINDS = ("random", "underdetermined", "rank_deficient", "inconsistent", "overdetermined")


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, Unique):
        assert got.assignment == want.assignment
        assert [type(v) for v in got.assignment.values()] == [
            type(want.assignment[k]) for k in got.assignment
        ]
    elif isinstance(want, Parametric):
        assert got.free == want.free
        assert list(got.bound) == list(want.bound)
        for var, expr in want.bound.items():
            assert got.bound[var] == expr
            assert got.bound[var].constant == expr.constant
            assert list(got.bound[var].coeffs.items()) == list(expr.coeffs.items())
    else:
        assert got.row_index == want.row_index
        assert got.reduced_row == want.reduced_row


def _scalar(field):
    small = st.integers(-3, 3)
    if field == "Q":
        return st.builds(Fraction, small, st.integers(1, 3))
    return st.builds(lambda a, b: QuadExt(a, b, 2), small, st.integers(-1, 1))


def _combine(weights, rows):
    """sum of weight * row over (coefficient list, rhs) rows."""
    coeffs = [sum((w * r[0][j] for w, r in zip(weights, rows)), weights[0] * 0)
              for j in range(len(rows[0][0]))]
    rhs = sum((w * r[1] for w, r in zip(weights, rows)), weights[0] * 0)
    return coeffs, rhs


@st.composite
def systems(draw):
    field = draw(st.sampled_from(("Q", "Q(sqrt2)")))
    kind = draw(st.sampled_from(KINDS))
    scalar = _scalar(field)
    zero = Fraction(0) if field == "Q" else QuadExt(0, 0, 2)
    # mostly zeros, so that pivots fail and rank drops often
    entry = st.one_of(st.just(zero), st.just(zero), scalar)
    nvars = draw(st.integers(1, 6))
    planted = [draw(scalar) for _ in range(nvars)]

    def planted_row():
        coeffs = [draw(entry) for _ in range(nvars)]
        rhs = sum((c * x for c, x in zip(coeffs, planted)), zero)
        return coeffs, rhs

    if kind == "random":
        rows = [([draw(entry) for _ in range(nvars)], draw(entry))
                for _ in range(draw(st.integers(0, 6)))]
    elif kind == "underdetermined":
        # few sparse rows: fill-in decides which unknown a row expresses
        rows = [planted_row() for _ in range(draw(st.integers(0, nvars - 1)))]
    elif kind == "overdetermined":
        rows = [planted_row() for _ in range(nvars + draw(st.integers(1, 3)))]
    else:
        rank = draw(st.integers(1, nvars))
        if kind == "rank_deficient":
            rank = min(rank, nvars - 1) or 1
        base = [planted_row() for _ in range(rank)]
        rows = [
            _combine([draw(scalar) for _ in base], base)
            for _ in range(draw(st.integers(1, 6)))
        ]
        if kind == "inconsistent":
            # a combination of the rows themselves, with its rhs moved off
            coeffs, rhs = _combine([draw(scalar) for _ in rows], rows)
            nudge = draw(scalar.filter(bool))
            rows.insert(draw(st.integers(0, len(rows))), (coeffs, rhs + nudge))
    rows = draw(st.permutations(rows))
    system = LinearSystem(
        tuple(f"x{i}" for i in range(nvars)),
        tuple((tuple(c), b) for c, b in rows),
    )
    return kind, system


@settings(max_examples=300, deadline=None)
@given(systems())
def test_sparse_kernel_matches_dense_reference(case):
    kind, system = case
    got = gauss_jordan(system)
    assert_same_outcome(got, dense_gauss_jordan(system))
    if kind == "inconsistent":
        assert isinstance(got, Inconsistent)
    elif kind == "underdetermined" or (
        kind == "rank_deficient" and len(system.variables) > 1
    ):
        assert isinstance(got, Parametric)
    else:
        assert substitute_and_verify(system, got)


@settings(max_examples=100, deadline=None)
@given(systems(), st.randoms(use_true_random=False))
def test_shuffled_rows_match_dense_reference(case, rng):
    _, system = case
    rows = list(system.rows)
    rng.shuffle(rows)
    shuffled = LinearSystem(system.variables, tuple(rows))
    assert_same_outcome(gauss_jordan(shuffled), dense_gauss_jordan(shuffled))


def test_two_by_two_grid_junction_system_falls_back_to_input_order():
    # four unit squares meeting at one interior point: cuts are read as
    # maximal segments, so the junction system is rank deficient
    field = FieldSpec.rational()
    tiles = [
        Tile(tid, (float(x), float(y), 1.0, 1.0), Fraction(1))
        for tid, (x, y) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1)), start=1)
    ]
    d = Dissection(field, tiles)
    system = junction_system(extract_cuts(d), d.tiles, field)
    got = gauss_jordan(system)
    want = dense_gauss_jordan(system)
    assert isinstance(got, Parametric)
    assert got.free == want.free
    assert_same_outcome(got, want)


def test_fill_in_does_not_move_the_pivot():
    # x0 + x2 = 1 and x0 + x3 = 2: reduced, the second row reads
    # -x2 + x3 = 1, and it still expresses x3, its own original unknown
    one, zero = Fraction(1), Fraction(0)
    system = LinearSystem(
        ("x0", "x1", "x2", "x3"),
        (((one, zero, one, zero), one), ((one, zero, zero, one), Fraction(2))),
    )
    got = gauss_jordan(system)
    assert got.free == ("x1", "x2")
    assert got.bound["x3"] == AffineExpr(one, {"x2": one})
    assert_same_outcome(got, dense_gauss_jordan(system))
