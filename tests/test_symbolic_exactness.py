"""``symbolic_resistance`` against the ``RatFunc`` elimination it replaced.

The library evaluates the matrix-tree determinants at t = 1, ..., K+1 and
interpolates; ``symbolic_reference.py`` solves the Kirchhoff system over
Q(t).  Both must give the same ``RatFunc``, or raise the same exception
type with the same message, on random connected multigraphs (self-loops,
parallel edges, either orientation, values ``c``, ``c*t`` and their
positive sums, products and quotients), on networks whose terminals are
joined only through the battery, on the theorem-1 networks of the test
tilings and on the networks of every test dissection.
"""

import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symbolic_reference as ref
from conftest import corpus
from tilecircuit import (
    Battery,
    CircuitError,
    Netlist,
    RatFunc,
    Resistor,
    circuit_of_dissection,
    ladder_dissection,
    load_dissection,
    load_ladder,
    symbolic_resistance,
    theorem1_certificate,
)
from tilecircuit import correspondence

DATA = Path(__file__).parent / "data"
T = RatFunc.t()
ONE = RatFunc.constant(1)


def outcome(solve, net):
    try:
        value = solve(net)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    return value.num, value.den


def assert_same(net):
    assert outcome(symbolic_resistance, net) == outcome(ref.symbolic_resistance, net)


def positive(value: RatFunc) -> bool:
    return bool(value) and min(value.num.coeffs + value.den.coeffs) >= 0


COEFF = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
ATOM = st.one_of(COEFF.map(RatFunc.constant), COEFF.map(lambda c: T * c))
VALUE = st.recursive(
    ATOM,
    lambda inner: st.builds(lambda op, x, y: op(x, y),
                            st.sampled_from([operator.add, operator.mul, operator.truediv]),
                            inner, inner),
    max_leaves=3,
).filter(positive)


@st.composite
def multigraphs(draw):
    """A netlist that is connected, though perhaps only through its battery.

    Nodes 0..n-1 get a random resistor tree; with ``split`` the tree edge
    into node ``cut`` is left out, so the battery, placed across the cut,
    is the only link between the two parts.
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
        resistors.append(Resistor(rid, f"n{a}", f"n{b}", draw(VALUE)))
    if split:
        plus, minus = draw(st.integers(0, cut - 1)), draw(st.integers(cut, n - 1))
        if draw(st.booleans()):
            plus, minus = minus, plus
    else:
        plus, minus = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True))
    return Netlist(resistors, Battery(f"n{plus}", f"n{minus}", ONE))


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_random_multigraphs_match_reference(net):
    assert_same(net)


def test_terminals_joined_only_through_the_battery():
    net = Netlist(
        [Resistor(1, "a", "c", T), Resistor(2, "b", "d", ONE), Resistor(3, "c", "c", T)],
        Battery("a", "b", ONE),
    )
    assert outcome(symbolic_resistance, net)[1].startswith("battery carries no current")
    assert_same(net)


@pytest.mark.parametrize("net", [
    Netlist([Resistor(1, "a", "b", Fraction(2))], Battery("a", "b", ONE)),
    Netlist([Resistor(1, "a", "b", T)], Battery("a", "b", RatFunc.constant(2))),
    Netlist([Resistor(1, "a", "b", T)], Battery("a", "b", T)),
], ids=["rational resistor", "battery 2", "battery t"])
def test_refusals_match_reference(net):
    assert outcome(symbolic_resistance, net)[0] is CircuitError
    assert_same(net)


def tilings():
    tilings = dict(corpus())
    for name in ("five_similar", "shelf", "wall_sqrt2", "wall_sqrt5"):
        tilings[name] = load_dissection((DATA / f"{name}.json").read_text())
    tilings["ladder_sqrt3"] = ladder_dissection(
        load_ladder((DATA / "ladder_sqrt3.json").read_text())
    )
    return tilings


@pytest.mark.parametrize("name, d", sorted(tilings().items()))
def test_dissection_networks_match_reference(name, d):
    """Each tile's resistor becomes t when the tile is wider than tall, else 1."""
    net = circuit_of_dissection(d)
    aspect = {r.rid: r.value for r in net.resistors}
    symbolic = Netlist(
        [Resistor(r.rid, r.node_a, r.node_b, T * 2 if aspect[r.rid] > 1 else ONE)
         for r in net.resistors],
        Battery(net.battery.plus, net.battery.minus, ONE),
    )
    assert_same(symbolic)


@pytest.mark.parametrize("name", ["five_similar", "ladder_sqrt3"])
def test_theorem1_certificates_match_reference(name, monkeypatch):
    d = tilings()[name]
    certificate = theorem1_certificate(d)
    monkeypatch.setattr(correspondence, "symbolic_resistance", ref.symbolic_resistance)
    assert theorem1_certificate(d) == certificate
