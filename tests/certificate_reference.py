"""Two checks of the certificate as they stood before they ran on integer grids, kept as test oracles.

Over Q, ``linear.substitute_and_verify`` now tests a ``Unique`` outcome
on an integer grid, and ``correspondence._obeys_circuit_laws`` adds
currents and positions on integer grids.  These are the field-arithmetic
versions they replaced, copied verbatim: the ``Unique`` branch of the
substitution, and the local-law check.  ``test_grid_exactness.py``
requires the same verdict, or the same exception, from both.
"""

from __future__ import annotations

from tilecircuit.circuit import Netlist
from tilecircuit.dissection import Dissection
from tilecircuit.fields import zero_like
from tilecircuit.linear import LinearSystem


def substitute_unique(system: LinearSystem, assignment: dict) -> bool:
    """Does the assignment satisfy every original row?"""
    variables = system.variables
    rows = zip(system.nonzeros, system.rhs)
    for row, rhs in rows:
        total = zero_like(rhs)
        for j, c in row.items():
            total = total + c * assignment[variables[j]]
        if total != rhs:
            return False
    return True


def obeys_circuit_laws(net: Netlist, sized: Dissection) -> bool:
    """Do the sizes obey the network's laws at every node and tile?

    Heights are the currents (``big_h`` the battery's), and a vertical side
    at x has potential U - x, kept here as its x.  Current is conserved at
    every node, each tile obeys Ohm's law (its potential drop, its width w,
    is height times resistance), and each node gets one potential from the
    battery (x = 0 at plus, x = U at minus) and every tile touching it.
    """
    u = net.battery.voltage
    zero = zero_like(u)
    plus, minus = net.battery.plus, net.battery.minus
    outflow = dict.fromkeys(net.nodes, zero)
    outflow[plus] = zero - sized.big_h
    outflow[minus] = zero + sized.big_h
    at = {plus: zero, minus: u}
    # circuit_of_dissection makes tile k resistor k, in tile order
    for t, r in zip(sized.tiles, net.resistors):
        x, _, w, h = t.rect
        if h * r.value != w:
            return False
        outflow[r.node_a] += h
        outflow[r.node_b] -= h
        right = x + w
        if at.setdefault(r.node_a, x) != x or at.setdefault(r.node_b, right) != right:
            return False
    return not any(outflow.values())
