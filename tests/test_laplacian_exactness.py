"""The shunt-form Laplacian elimination against the diagonal form it replaced.

``laplacian_reference.py`` keeps the kernel that stored the diagonal of the
grounded Laplacian and started every sum at zero.  On random multigraphs,
with self-loops, parallel edges, edges at the ground, a ``last`` that may
not reach the ground, and zero or negative conductances, both must give the
same steps (order, pivots and links), the same last pivot, potentials and
determinants, or the same ``ArithmeticError``.  For an edge list of one
type every value must have the same type too; for a list that mixes ints
and ``Fraction``s with ``QuadExt`` values only the values must agree.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laplacian_reference as ref
from tilecircuit import QuadExt, RatFunc
from tilecircuit import linear

SMALL = st.fractions(min_value=-3, max_value=6, max_denominator=6)


def _ratfunc(n, m, form):
    t = RatFunc.t()
    return (RatFunc.constant(n), t * n + m, RatFunc.constant(n) / (t + m + 4))[form]


CONDUCTANCES = {
    "int": st.integers(-3, 6),
    "Fraction": SMALL,
    "Q(sqrt2)": st.builds(QuadExt, SMALL, SMALL, st.just(2)),
    "Q(sqrt3)": st.builds(QuadExt, SMALL, SMALL, st.just(3)),
    "Q(t)": st.builds(_ratfunc, st.integers(-3, 6), st.integers(0, 3), st.integers(0, 2)),
}
MIXED = st.one_of(CONDUCTANCES["int"], CONDUCTANCES["Fraction"], CONDUCTANCES["Q(sqrt2)"])


@st.composite
def networks(draw, values):
    """An edge list on nodes 0..n-1, a ground, a last and a voltage; ground
    and last may coincide, and either may touch no edge."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, values), max_size=14))
    return edges, draw(node), draw(node), draw(values)


def outcomes(module, edges, ground, last, voltage):
    """What each entry point of ``module`` gives, or its error."""
    results = []
    for call in (lambda: module._eliminate_laplacian(edges, ground, last),
                 lambda: module.laplacian_potentials(edges, last, ground, voltage),
                 lambda: module.laplacian_determinants(edges, ground, last)):
        try:
            results.append(call())
        except ArithmeticError as exc:
            results.append((type(exc), str(exc)))
    return results


def typed(x):
    """x with every scalar paired with its type."""
    if isinstance(x, (list, tuple)):
        return [typed(y) for y in x]
    if isinstance(x, dict):
        return {k: typed(v) for k, v in x.items()}
    return type(x), x


@pytest.mark.parametrize("kind", sorted(CONDUCTANCES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_shunt_form_matches_the_diagonal_form(kind, data):
    edges, ground, last, voltage = data.draw(networks(CONDUCTANCES[kind]))
    want = outcomes(ref, edges, ground, last, voltage)
    got = outcomes(linear, edges, ground, last, voltage)
    assert typed(got) == typed(want)


@settings(max_examples=300, deadline=None)
@given(networks(MIXED))
def test_shunt_form_matches_the_diagonal_form_on_mixed_lists(network):
    """Ints, Fractions and Q(sqrt 2) values in one list: equal values, while
    a rational value may come back as a Fraction where the diagonal form
    carried a QuadExt with no sqrt 2 part."""
    assert outcomes(linear, *network) == outcomes(ref, *network)


def test_int_conductances_give_fractions():
    """A pivot summed from int conductances is an int; g / pivot must not be
    a float."""
    edges = [("a", "m", 1), ("m", "b", 2), ("a", "b", 3), ("m", "n", 1), ("n", "b", 1)]
    potential, conductance = linear.laplacian_potentials(edges, "a", "b", 1)
    assert potential == {"a": 1, "b": 0, "m": Fraction(2, 7), "n": Fraction(1, 7)}
    assert type(potential["m"]) is type(potential["n"]) is Fraction
    assert (type(conductance), conductance) == (Fraction, Fraction(26, 7))
    minor, det = linear.laplacian_determinants(edges, "b", "a")
    assert [type(minor), type(det)] == [Fraction, Fraction]
    assert (minor, det) == (7, 26)
    # a last joined to the ground by one int edge, with nothing eliminated
    steps, last_pivot = linear._eliminate_laplacian([("a", "b", 3)], "b", "a")
    assert (steps, type(last_pivot), last_pivot) == ([], Fraction, 3)


@pytest.mark.parametrize("g, zero_type", [(QuadExt(1, 1, 2), QuadExt), (RatFunc.t(), RatFunc)],
                         ids=["Q(sqrt2)", "Q(t)"])
def test_a_last_unreachable_from_the_ground_gives_the_fields_zero(g, zero_type):
    edges = [("a", "c", g), ("b", "d", g)]
    potential, conductance = linear.laplacian_potentials(edges, "a", "b", g)
    assert (type(conductance), conductance) == (zero_type, 0)
    assert potential["c"] == g and potential["d"] == 0
    minor, det = linear.laplacian_determinants(edges, "b", "a")
    assert (type(det), det) == (zero_type, 0)
    assert minor == g * g
