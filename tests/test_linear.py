import random
from fractions import Fraction

import pytest

from conftest import cramer_solve, determinant, make_shelf, SHELF_SIDES, SHELF_X
from tilecircuit import (
    AffineExpr,
    Inconsistent,
    LinearSystem,
    Parametric,
    QuadExt,
    RatFunc,
    Unique,
    extract_cuts,
    gauss_jordan,
    junction_system,
    laplacian_determinants,
    laplacian_potentials,
    substitute_and_verify,
)


def shelf_system() -> LinearSystem:
    d = make_shelf()
    return junction_system(extract_cuts(d), d.tiles, d.field)


def test_shelf_system_unique_solution():
    outcome = gauss_jordan(shelf_system())
    assert isinstance(outcome, Unique)
    assert outcome.assignment["x"] == SHELF_X
    for tid, side in SHELF_SIDES.items():
        assert outcome.assignment[f"v{tid}"] == side


def test_shelf_outcome_verifies():
    system = shelf_system()
    outcome = gauss_jordan(system)
    assert substitute_and_verify(system, outcome)


def test_tampered_assignment_fails_verification():
    system = shelf_system()
    outcome = gauss_jordan(system)
    bad = dict(outcome.assignment)
    bad["x"] = -bad["x"]
    assert not substitute_and_verify(system, Unique(bad))


ROOT2 = QuadExt(0, 1, 2)


@pytest.mark.parametrize("change, verdict", [
    (None, True),
    ("value", False),
    ("rhs", False),
])
@pytest.mark.parametrize("direction", ["rational rows", "Q(sqrt2) rows"])
def test_substitution_mixes_a_grid_with_field_values(direction, change, verdict):
    """One side of each row's test on an integer grid, the other in Q(sqrt 2).

    Rational rows under a Q(sqrt 2) assignment are scaled by their own
    denominators and the assignment is not; Q(sqrt 2) rows under a rational
    assignment are the other way round.
    """
    if direction == "rational rows":
        assignment = {"a": 1 + ROOT2, "b": 1 - ROOT2, "c": Fraction(3, 7)}
        rows = [({0: 1, 1: 1}, Fraction(2)),
                ({0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 3)}, Fraction(8, 7))]
    else:
        assignment = {"a": Fraction(1, 3), "b": Fraction(2, 5), "c": Fraction(-5, 11)}
        rows = [({0: ROOT2, 1: 1 + ROOT2}, Fraction(2, 5) + ROOT2 * Fraction(11, 15)),
                ({1: ROOT2 / 2, 2: 3}, Fraction(-15, 11) + ROOT2 / 5)]
    if change == "value":
        assignment["b"] += Fraction(1, 5)
    elif change == "rhs":
        rows[1] = (rows[1][0], rows[1][1] + Fraction(1, 9))
    system = LinearSystem.from_sparse(("a", "b", "c"), rows, Fraction(0))
    assert substitute_and_verify(system, Unique(assignment)) is verdict


def test_parametric_example():
    # x1 + x2 = 0 and x1 + x3 = 1 leave x2 free: x1 = -x2, x3 = 1 + x2
    system = LinearSystem(
        ("x1", "x2", "x3"),
        (
            ((Fraction(1), Fraction(1), Fraction(0)), Fraction(0)),
            ((Fraction(1), Fraction(0), Fraction(1)), Fraction(1)),
        ),
    )
    outcome = gauss_jordan(system)
    assert isinstance(outcome, Parametric)
    assert outcome.free == ("x2",)
    assert outcome.bound["x1"] == AffineExpr(Fraction(0), {"x2": Fraction(-1)})
    assert outcome.bound["x3"] == AffineExpr(Fraction(1), {"x2": Fraction(1)})
    assert substitute_and_verify(system, outcome)


def test_parametric_valuations_satisfy_rows():
    system = LinearSystem(
        ("x1", "x2", "x3"),
        (
            ((Fraction(1), Fraction(1), Fraction(0)), Fraction(0)),
            ((Fraction(1), Fraction(0), Fraction(1)), Fraction(1)),
        ),
    )
    outcome = gauss_jordan(system)
    for value in (Fraction(7), Fraction(-2, 3), Fraction(0)):
        valuation = {"x2": value}
        x1 = outcome.bound["x1"].eval(valuation)
        x3 = outcome.bound["x3"].eval(valuation)
        assert x1 + value == 0
        assert x1 + x3 == 1


def test_inconsistent_pair():
    system = LinearSystem(
        ("x1", "x2"),
        (
            ((Fraction(1), Fraction(1)), Fraction(0)),
            ((Fraction(1), Fraction(1)), Fraction(1)),
        ),
    )
    outcome = gauss_jordan(system)
    assert isinstance(outcome, Inconsistent)
    assert outcome.row_index == 1
    assert substitute_and_verify(system, outcome)


def test_redundant_rows_are_dropped():
    system = LinearSystem(
        ("x1", "x2"),
        (
            ((Fraction(1), Fraction(1)), Fraction(2)),
            ((Fraction(2), Fraction(2)), Fraction(4)),
            ((Fraction(1), Fraction(-1)), Fraction(0)),
        ),
    )
    outcome = gauss_jordan(system)
    assert isinstance(outcome, Unique)
    assert outcome.assignment == {"x1": Fraction(1), "x2": Fraction(1)}


def test_malformed_dimensions_rejected():
    with pytest.raises(ValueError):
        LinearSystem(("x",), (((Fraction(1), Fraction(2)), Fraction(0)),))


def test_sparse_rows_equal_their_dense_system():
    zero = Fraction(0)
    sparse = LinearSystem.from_sparse(
        ("x", "y", "z"),
        [({2: Fraction(3), 0: zero}, Fraction(1)), ({}, zero), ({1: Fraction(-1)}, zero)],
        zero,
    )
    assert sparse.nonzeros == ({2: Fraction(3)}, {}, {1: Fraction(-1)})
    assert sparse.rhs == (Fraction(1), zero, zero)
    dense = LinearSystem(sparse.variables, (
        ((zero, zero, Fraction(3)), Fraction(1)),
        ((zero, zero, zero), zero),
        ((zero, Fraction(-1), zero), zero),
    ))
    assert sparse.rows == dense.rows and sparse == dense
    assert hash(sparse) == hash(dense)
    assert all(type(c) is Fraction for coeffs, _ in sparse.rows for c in coeffs)
    assert gauss_jordan(sparse) == gauss_jordan(dense)


def test_matches_cramer_on_random_square_systems():
    rng = random.Random(99)
    solved = 0
    while solved < 30:
        n = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)
        ]
        rhs = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        reference = cramer_solve(rows, rhs)
        if reference is None:
            continue
        variables = tuple(f"x{i}" for i in range(n))
        system = LinearSystem(
            variables, tuple((tuple(r), b) for r, b in zip(rows, rhs))
        )
        outcome = gauss_jordan(system)
        assert isinstance(outcome, Unique)
        for i in range(n):
            assert outcome.assignment[f"x{i}"] == reference[i]
        solved += 1


def test_rational_closure_on_random_solvable_systems():
    # rational coefficients with a unique outcome force rational values
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
        planted = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
        rhs = [sum(c * s for c, s in zip(row, planted)) for row in rows]
        system = LinearSystem(
            tuple(f"x{i}" for i in range(n)),
            tuple((tuple(r), b) for r, b in zip(rows, rhs)),
        )
        outcome = gauss_jordan(system)
        if isinstance(outcome, Unique):
            assert all(isinstance(v, Fraction) for v in outcome.assignment.values())
            assert substitute_and_verify(system, outcome)


def test_permutation_stability():
    rng = random.Random(17)
    base = shelf_system()
    outcome = gauss_jordan(base)
    for _ in range(5):
        rows = list(base.rows)
        rng.shuffle(rows)
        assert gauss_jordan(LinearSystem(base.variables, tuple(rows))) == outcome

    perm = list(range(len(base.variables)))
    rng.shuffle(perm)
    variables = tuple(base.variables[p] for p in perm)
    rows = tuple(
        (tuple(coeffs[p] for p in perm), rhs) for coeffs, rhs in base.rows
    )
    permuted = gauss_jordan(LinearSystem(variables, rows))
    assert permuted.assignment == outcome.assignment


def test_solves_over_quadratic_field():
    one = QuadExt(1, 0, 2)
    root2 = QuadExt(0, 1, 2)
    system = LinearSystem(
        ("u", "v"),
        (
            ((one, root2), QuadExt(1, 1, 2)),
            ((root2, one), QuadExt(1, 1, 2)),
        ),
    )
    outcome = gauss_jordan(system)
    assert isinstance(outcome, Unique)
    assert substitute_and_verify(system, outcome)
    assert outcome.assignment["u"] == outcome.assignment["v"] == 1


def grounded_laplacian(edges, removed):
    """The weighted Laplacian, rows and columns of ``removed`` deleted."""
    nodes = sorted({n for a, b, _ in edges for n in (a, b)} - set(removed))
    index = {n: i for i, n in enumerate(nodes)}
    lap = [[Fraction(0)] * len(nodes) for _ in nodes]
    for a, b, g in edges:
        for u, v in ((a, b), (b, a)):
            if u in index:
                lap[index[u]][index[u]] += g
                if v in index:
                    lap[index[u]][index[v]] -= g
    return lap


CONDUCTANCE_FIELDS = {
    "Q": lambda rng: Fraction(rng.randint(1, 9), rng.randint(1, 9)),
    "Q(sqrt3)": lambda rng: QuadExt(Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                                    Fraction(rng.randint(0, 3), rng.randint(1, 4)), 3),
    "Q(t)": lambda rng: rng.choice([
        RatFunc.constant(Fraction(rng.randint(1, 9), rng.randint(1, 9))),
        RatFunc.t() * rng.randint(1, 5) + rng.randint(0, 3),
        RatFunc.constant(1) / (RatFunc.t() + rng.randint(1, 4)),
    ]),
}


def random_network(rng, field, max_nodes, max_extra):
    """Nodes n0..n(n-1), each hanging from an earlier one, plus extra edges:
    self-loops, parallel edges and either orientation."""
    n = rng.randint(2, max_nodes)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, max_extra))]
    value = CONDUCTANCE_FIELDS[field]
    return [f"n{i}" for i in range(n)], [(f"n{a}", f"n{b}", value(rng)) for a, b in edges]


def assert_cofactor_determinants(rng, field, max_nodes, max_extra):
    nodes, edges = random_network(rng, field, max_nodes, max_extra)
    ground, last = rng.sample(nodes, 2)
    minor, det = laplacian_determinants(edges, ground, last)
    assert det == determinant(grounded_laplacian(edges, [ground]))
    assert minor == (determinant(grounded_laplacian(edges, [ground, last]))
                     if len(nodes) > 2 else 1)


@pytest.mark.parametrize("seed", range(40))
def test_laplacian_determinants_match_cofactor_expansion(seed):
    """Self-loops, parallel edges and either orientation, up to 7 nodes."""
    assert_cofactor_determinants(random.Random(seed), "Q", 7, 6)


@pytest.mark.parametrize("field", ["Q(sqrt3)", "Q(t)"])
@pytest.mark.parametrize("seed", range(10))
def test_laplacian_determinants_match_cofactor_expansion_beyond_q(field, seed):
    assert_cofactor_determinants(random.Random(seed), field, 6, 4)


def test_laplacian_last_pivot_is_the_conductance():
    edges = [("a", "m", Fraction(1)), ("m", "b", Fraction(1, 2)), ("a", "b", Fraction(3)),
             ("m", "m", Fraction(5))]
    minor, det = laplacian_determinants(edges, "b", "a")
    assert minor == Fraction(3, 2)
    assert det / minor == 3 + Fraction(1, 3)  # 3 in parallel with 1 + 2 ohms


def test_laplacian_of_unjoined_terminals_is_singular():
    minor, det = laplacian_determinants([("a", "c", Fraction(1)), ("b", "d", Fraction(2))],
                                        "b", "a")
    assert (minor, det) == (2, 0)


def test_laplacian_node_joined_to_neither_terminal_is_an_internal_error():
    with pytest.raises(ArithmeticError, match="nonpositive Laplacian pivot"):
        laplacian_determinants([("a", "b", Fraction(1)), ("c", "d", Fraction(1))], "b", "a")



@pytest.mark.parametrize("field", sorted(CONDUCTANCE_FIELDS))
@pytest.mark.parametrize("seed", range(15))
def test_laplacian_potentials_solve_the_nodal_equations(field, seed):
    """Against Cramer's rule on the nodal equations of the free nodes."""
    rng = random.Random(seed)
    nodes, edges = random_network(rng, field, 6, 5)
    plus, minus = rng.sample(nodes, 2)
    voltage = CONDUCTANCE_FIELDS[field](rng) * rng.choice([1, -1, 0])
    potential, conductance = laplacian_potentials(edges, plus, minus, voltage)

    free = [v for v in nodes if v not in (plus, minus)]
    index = {v: i for i, v in enumerate(free)}
    matrix = [[Fraction(0)] * len(free) for _ in free]
    rhs = [Fraction(0)] * len(free)
    for a, b, g in edges:
        if a == b:
            continue
        for u, w in ((a, b), (b, a)):
            if u in index:
                matrix[index[u]][index[u]] += g
                if w in index:
                    matrix[index[u]][index[w]] -= g
                elif w == plus:
                    rhs[index[u]] += g * voltage
    want = cramer_solve(matrix, rhs) if free else []
    assert set(potential) == {plus, minus, *free}
    assert potential[plus] == voltage and potential[minus] == 0
    for v, x in zip(free, want):
        assert potential[v] == x
    # the current into plus is U times the conductance between the terminals
    current = Fraction(0)
    for a, b, g in edges:
        if a != b and plus in (a, b):
            other = b if a == plus else a
            current += g * (voltage - potential[other])
    assert current == voltage * conductance


@pytest.mark.parametrize("g", [Fraction(1), QuadExt(1, 1, 2), RatFunc.t()],
                         ids=["Q", "Q(sqrt2)", "Q(t)"])
def test_laplacian_potentials_free_node_joined_to_neither_terminal_is_an_internal_error(g):
    with pytest.raises(ArithmeticError, match="nonpositive Laplacian pivot"):
        laplacian_potentials([("a", "b", g), ("c", "d", g)], "a", "b", g)


def test_affine_expr_drops_zero_coefficients_and_is_frozen():
    half, two = Fraction(1, 2), Fraction(2)
    expr = AffineExpr(half, {"a": Fraction(0), "b": -two, "c": QuadExt(0, 0, 2)})
    assert expr.constant == half
    assert expr.coeffs == {"b": -two}
    # equality ignores zero coefficients, not nonzero ones or the constant
    assert expr == AffineExpr(half, {"b": -two}) == AffineExpr(half, {"d": 0, "b": -two})
    assert expr != AffineExpr(half, {"b": two})
    assert expr != AffineExpr(two, {"b": -two})
    assert AffineExpr(two) == AffineExpr(two, {"a": Fraction(0)})
    assert AffineExpr(two).coeffs == {}
    with pytest.raises(AttributeError):
        expr.constant = two
    with pytest.raises(AttributeError):
        expr.coeffs = {}
    assert repr(expr) == "1/2 + (-2)*b"
    assert repr(AffineExpr(two)) == "2"
    assert repr(AffineExpr(half, {"x2": Fraction(1), "x3": Fraction(-1, 3)})) == (
        "1/2 + (1)*x2 + (-1/3)*x3")
    assert expr.eval({"b": Fraction(1, 4)}) == 0
