"""The flow solver as it stood when it eliminated the cycle-law system, kept as a test oracle.

``tilecircuit.circuit.solve_flow`` now eliminates the grounded nodal
Laplacian once and back-substitutes the potentials.  This is the function
it replaced, copied verbatim with the ``resistance`` wrapper: it solves
``kirchhoff_system`` with ``gauss_jordan`` and walks the spanning tree for
the potentials.  ``test_flow_exactness.py`` requires both solvers to give
the same flow, value types and potential order included, or the same
exception; ``symbolic_reference.py`` reaches the old ``RatFunc`` route
through this ``resistance``.
"""

from __future__ import annotations

from tilecircuit.circuit import (
    _BATTERY_KEY,
    _NO_CURRENT,
    CircuitError,
    FlowSolution,
    Netlist,
    kirchhoff_system,
)
from tilecircuit.fields import zero_like
from tilecircuit.linear import Inconsistent, Parametric, gauss_jordan


def solve_flow(net: Netlist) -> FlowSolution:
    """Solve the Kirchhoff system; the outcome is provably unique."""
    outcome = gauss_jordan(kirchhoff_system(net))
    if isinstance(outcome, (Parametric, Inconsistent)):
        raise CircuitError(
            "Kirchhoff system failed to determine a unique flow; "
            "this contradicts the uniqueness theorem for valid netlists"
        )
    currents = {r.rid: outcome.assignment[f"I{r.rid}"] for r in net.resistors}
    battery_current = outcome.assignment["I"]

    u = net.battery.voltage
    zero = zero_like(u)
    potential = {net.battery.plus: u}
    parent = net._tree
    resistance = {r.rid: r.value for r in net.resistors}
    # BFS insertion order already runs by depth, so parents come first
    for node in parent:
        if not parent[node]:
            continue
        (key, a, b), up = parent[node][0], parent[node][1]
        base = potential[up]
        if key == _BATTERY_KEY:
            # stepping plus -> minus through the battery lowers by U
            potential[node] = base - u if node == net.battery.minus else base + u
        else:
            drop = currents[key[1]] * resistance[key[1]]
            # resistor a -> b drops by I*R from a to b
            potential[node] = base - drop if node == b else base + drop

    if battery_current == zero:
        if u != zero:
            raise CircuitError(_NO_CURRENT)
        total = None
    else:
        total = u / battery_current
    return FlowSolution(currents, battery_current, potential, total)


def resistance(net: Netlist):
    """Total resistance U / I of the network."""
    flow = solve_flow(net)
    if flow.total_resistance is None:
        raise CircuitError("resistance is undefined for a zero-voltage battery")
    return flow.total_resistance
