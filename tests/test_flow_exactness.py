"""``solve_flow`` against the cycle-law elimination it replaced.

The library eliminates the grounded nodal Laplacian once and
back-substitutes the potentials; ``flow_reference.py`` solves
``kirchhoff_system`` with ``gauss_jordan`` and walks the spanning tree.
Both must give equal currents, battery current, total resistance and
potentials, with the same value types and the same potential key order, or
raise the same exception type with the same message.  The networks are
random connected multigraphs over Q, Q(sqrt 2), Q(sqrt 3), Q(sqrt 5) and
Q(t) (self-loops, parallel edges, either orientation, batteries of any
sign and of zero voltage, terminals joined only through the battery) and
the networks of every test dissection.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import flow_reference as ref
from conftest import RATIONAL, SYMBOLIC_VALUE, multigraphs, quadratic, tilings
from tilecircuit import (
    Battery,
    Netlist,
    QuadExt,
    RatFunc,
    Resistor,
    circuit_of_dissection,
    solve_flow,
)

FIELDS = {
    "Q": (RATIONAL, Fraction(0)),
    "Q(sqrt2)": (quadratic(2), QuadExt(0, 0, 2)),
    "Q(sqrt3)": (quadratic(3), QuadExt(0, 0, 3)),
    "Q(sqrt5)": (quadratic(5), QuadExt(0, 0, 5)),
    "Q(t)": (SYMBOLIC_VALUE, RatFunc.constant(0)),
}


def typed(value):
    return type(value), value


def outcome(solve, net):
    try:
        flow = solve(net)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    return (
        [(rid, typed(i)) for rid, i in flow.edge_current.items()],
        typed(flow.battery_current),
        typed(flow.total_resistance),
        [(node, typed(v)) for node, v in flow.potential.items()],
    )


def assert_same(net):
    assert outcome(solve_flow, net) == outcome(ref.solve_flow, net)


def networks(field):
    """Multigraphs over the field, driven by a battery of either sign or of
    zero voltage."""
    values, zero = FIELDS[field]
    return multigraphs(values, st.one_of(values, values.map(operator.neg), st.just(zero)))


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_random_multigraphs_match_reference(field, data):
    assert_same(data.draw(networks(field)))


@pytest.mark.parametrize("voltage", [Fraction(3), Fraction(0)], ids=["U=3", "U=0"])
def test_terminals_joined_only_through_the_battery(voltage):
    net = Netlist(
        [Resistor(1, "a", "c", Fraction(2)), Resistor(2, "b", "d", Fraction(1)),
         Resistor(3, "c", "c", Fraction(5))],
        Battery("a", "b", voltage),
    )
    got = outcome(solve_flow, net)
    if voltage:
        assert got[1].startswith("battery carries no current")
    assert got == outcome(ref.solve_flow, net)


@pytest.mark.parametrize("name, d", sorted(tilings().items()))
def test_dissection_networks_match_reference(name, d):
    net = circuit_of_dissection(d)
    assert_same(net)
    zero = net.battery.voltage - net.battery.voltage
    assert_same(Netlist(net.resistors, Battery("R", "L", zero)))
