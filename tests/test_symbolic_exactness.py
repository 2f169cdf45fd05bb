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

from fractions import Fraction

import pytest
from hypothesis import given, settings

import symbolic_reference as ref
from conftest import multigraphs, tilings
from tilecircuit import (
    Battery,
    CircuitError,
    Netlist,
    RatFunc,
    Resistor,
    circuit_of_dissection,
    symbolic_resistance,
    theorem1_certificate,
)
from tilecircuit import correspondence

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
