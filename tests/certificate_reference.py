"""Three checks of the certificate as they stood before, kept as test oracles.

Over Q, ``linear.substitute_and_verify`` now tests a ``Unique`` outcome
on an integer grid, and ``correspondence._obeys_circuit_laws`` adds
currents and positions on integer grids, reading the nodes and terminals
off the cut structure.  These are the field-arithmetic versions they
replaced, copied verbatim: the ``Unique`` branch of the substitution, and
the local-law check on the ``Netlist``.  ``test_grid_exactness.py``
requires the same verdict, or the same exception, from both.

``certify_equivalence`` no longer substitutes the sizes into the junction
system once they obey the network's local laws, and builds no network
unless they fail.  ``certify_equivalence`` here is the version that did
both, copied verbatim but for its network, built from the cuts by
``_network`` without validating the sizes (the two-argument
``circuit_of_dissection`` it called did the same).  It looks up the
package's own ``correspondence.solve_sizes`` and ``_obeys_circuit_laws``,
so a patched sizing reaches both versions.  ``test_certificate_exactness.py``
requires equal reports.
"""

from __future__ import annotations

from tilecircuit import correspondence
from tilecircuit.circuit import Netlist, solve_flow
from tilecircuit.correspondence import (
    EquivalenceReport,
    TileCurrent,
    _network,
    _obeys_circuit_laws,
)
from tilecircuit.dissection import Dissection, junction_system
from tilecircuit.fields import zero_like
from tilecircuit.linear import LinearSystem, Unique, substitute_and_verify


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


def certify_equivalence(d: Dissection) -> EquivalenceReport:
    """Check, exactly, that sizing the tiles and solving the flow coincide.

    The sizes must solve the junction system, with x = U, and obey the
    network's local laws.  The grounded Laplacian is nonsingular, so then
    they are the flow: heights are currents, ``big_h`` the battery current,
    U / ``big_h`` the resistance.  The flow is solved only to name a mismatch.
    A sized ``d`` must pass geometric validation, and each of its rects must
    be the one its sketch sizes to.
    """
    sizing = correspondence.solve_sizes(d)
    sized = sizing.sized
    net = _network(sized.tiles, sizing.cuts, lambda t: t.aspect, sized.big_w)
    u, heights = net.battery.voltage, {t.tid: t.rect[3] for t in sized.tiles}
    system = junction_system(sizing.cuts, sized.tiles, sized.field, sized.big_h)
    sides = Unique({**{f"v{tid}": h for tid, h in heights.items()}, "x": u})
    agree = _obeys_circuit_laws(sizing.cuts, sized) and substitute_and_verify(system, sides)
    if agree:
        currents, battery, resistance = heights, sized.big_h, u / sized.big_h
    else:
        flow = solve_flow(net)
        currents, battery, resistance = (
            flow.edge_current, flow.battery_current, flow.total_resistance)
    tiles = tuple(TileCurrent(tid, h, currents[tid]) for tid, h in heights.items())
    return EquivalenceReport(tiles, battery, sized.big_h, resistance, sizing.ratio, agree)
