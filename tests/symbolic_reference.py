"""Symbolic resistance as it stood when it eliminated over ``RatFunc``, kept as a test oracle.

``tilecircuit.circuit.symbolic_resistance`` now evaluates the matrix-tree
determinants at rational points with the Laplacian kernel and interpolates
once.  This is the function it replaced, copied verbatim: it solves the
Kirchhoff system over Q(t) through ``resistance``, ``solve_flow`` and
``gauss_jordan``, which stay in the library for other callers.  The tests
in ``test_symbolic_exactness.py`` require both routes to give the same
``RatFunc``, or to raise the same exception type with the same message.
"""

from __future__ import annotations

from tilecircuit.circuit import CircuitError, Netlist, resistance
from tilecircuit.fields import RatFunc


def symbolic_resistance(net: Netlist) -> RatFunc:
    """Resistance of a network whose resistors are rational functions of t.

    The battery voltage must be the constant 1; the result is returned in
    lowest terms with a monic denominator.  Evaluating it at a rational t0
    agrees with the resistance of the network instantiated at t0 (specific
    t0 may still hit a vanishing denominator, detected only on evaluation).
    """
    for r in net.resistors:
        if not isinstance(r.value, RatFunc):
            raise CircuitError(f"resistor {r.rid} is not symbolic")
    if net.battery.voltage != RatFunc.constant(1):
        raise CircuitError("symbolic resistance expects a unit battery")
    return resistance(net)
