"""Resistor networks with one ideal battery, solved exactly.

A netlist is a connected multigraph: resistors carry positive resistances
from any of the exact scalar fields, and exactly one battery edge fixes the
source.  The flow is solved by nodal analysis: the weighted Laplacian in
conductances, grounded at the minus terminal, is eliminated once by the
Laplacian kernel of ``linear``, which back-substitutes every node potential
from V(plus) = U.  Each current is then a potential difference times a
conductance, and the battery current is U times the conductance between
the terminals.  ``kirchhoff_system`` assembles the current-law and cycle
voltage-law equations as a square sparse linear system, one ``column ->
coefficient`` row per equation, for callers that want it.

Over Q(t) the network resistance is a rational function of the symbolic
resistor value t.  By Kirchhoff's matrix-tree theorem it is
det L(+,-) / det L(-) of the weighted Laplacian; both determinants, scaled
to polynomials, are evaluated at rational points by the Laplacian kernel of
``linear`` and interpolated once.  A symbolic resistance must be nonzero
with no negative coefficient in its lowest-terms numerator and monic
denominator, so it is positive at every t > 0.

Netlist text format, one item per line ("#" starts a comment):

    N <name>                      optional; names a node that an edge touches
    R <id> <node_a> <node_b> <scalar>
    V <node_plus> <node_minus> <scalar>    exactly once

Scalars use the shared textual syntax; in symbolic mode the bare token
``t`` (or ``c*t``) denotes the indeterminate.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass

from .fields import (
    InputError,
    Poly,
    RatFunc,
    ScalarParseError,
    format_scalar,
    one_like,
    parse_quadext,
    parse_rational,
    parse_symbolic_scalar,
    zero_like,
)
from .linear import (
    LinearSystem,
    gauss_jordan,  # noqa: F401  a module-level name that perfbench/spans.py wraps
    laplacian_determinants,
    laplacian_potentials,
)


class CircuitError(Exception):
    """A netlist violates the model or cannot carry a well-defined flow."""


class _MalformedNetlist(CircuitError, InputError):
    """A netlist that breaks the model: see the module docstring."""


@dataclass(frozen=True)
class Resistor:
    rid: int
    node_a: str
    node_b: str
    value: object  # resistance, oriented node_a -> node_b


@dataclass(frozen=True)
class Battery:
    plus: str
    minus: str
    voltage: object


class Netlist:
    """Immutable resistor network with a single battery.

    ``nodes`` is the sorted tuple of node names.  The connectivity check
    builds the lexicographic BFS spanning tree once and keeps it for the
    Kirchhoff rows and the potentials.
    """

    __slots__ = ("resistors", "battery", "declared_nodes", "nodes", "_tree")

    def __init__(self, resistors, battery: Battery, declared_nodes=()):
        object.__setattr__(self, "resistors", tuple(resistors))
        object.__setattr__(self, "battery", battery)
        object.__setattr__(self, "declared_nodes", frozenset(declared_nodes))
        self._check()

    def __setattr__(self, name, value):
        raise AttributeError("Netlist is immutable")

    def __reduce__(self):
        return Netlist, (self.resistors, self.battery, self.declared_nodes)

    def _check(self):
        if self.battery.plus == self.battery.minus:
            raise _MalformedNetlist("battery terminals must be distinct nodes")
        seen = set()
        for r in self.resistors:
            if r.rid in seen:
                raise _MalformedNetlist(f"duplicate resistor id {r.rid}")
            seen.add(r.rid)
            if not _positive(r.value):
                raise _MalformedNetlist(f"resistor {r.rid} has nonpositive resistance")
        names = set(self.declared_nodes)
        names.update((self.battery.plus, self.battery.minus))
        for r in self.resistors:
            names.add(r.node_a)
            names.add(r.node_b)
        object.__setattr__(self, "nodes", tuple(sorted(names)))
        tree = _spanning_tree(self)
        if len(tree) != len(self.nodes):
            raise _MalformedNetlist("netlist graph is not connected")
        object.__setattr__(self, "_tree", tree)

    def resistor(self, rid: int) -> Resistor:
        for r in self.resistors:
            if r.rid == rid:
                return r
        raise KeyError(f"no resistor with id {rid}")


def _positive(value) -> bool:
    """value > 0; a RatFunc must be nonzero with no negative coefficient."""
    if isinstance(value, RatFunc):
        return bool(value) and all(c >= 0 for c in value.num.coeffs + value.den.coeffs)
    return value > zero_like(value)


@dataclass(frozen=True)
class FlowSolution:
    edge_current: dict        # resistor id -> current, signed along a -> b
    battery_current: object
    potential: dict           # node -> potential; plus minus minus equals U
    total_resistance: object | None  # None only for a zero-voltage battery


_BATTERY_KEY = ("V",)
_NO_CURRENT = (
    "battery carries no current: the network has no closed path through the battery"
)


def _edges(net: Netlist):
    """All edges as (key, node_a, node_b); key orders resistors before the battery."""
    out = [(("R", r.rid), r.node_a, r.node_b) for r in net.resistors]
    out.append((_BATTERY_KEY, net.battery.minus, net.battery.plus))
    return out


def _spanning_tree(net: Netlist) -> dict[str, tuple]:
    """Lexicographic BFS tree from the plus terminal: node -> (edge, parent)."""
    incident: dict[str, list] = {n: [] for n in net.nodes}
    for key, a, b in _edges(net):
        incident[a].append((b, key, a, b))
        incident[b].append((a, key, a, b))
    for lst in incident.values():
        lst.sort(key=lambda item: (item[0], item[1]))
    root = net.battery.plus
    parent: dict[str, tuple] = {root: ()}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for other, key, a, b in incident[node]:
            if other in parent:
                continue
            parent[other] = ((key, a, b), node)
            queue.append(other)
    return parent


def kirchhoff_system(net: Netlist) -> LinearSystem:
    """Current-law plus cycle voltage-law equations; unknowns I<id> and I.

    One node equation (the minus terminal's) is dropped as the redundant
    one; voltage equations come from the fundamental cycles of the BFS
    spanning tree, so the row count equals the edge count.
    """
    one = one_like(net.battery.voltage)
    zero = zero_like(net.battery.voltage)
    variables = tuple(f"I{r.rid}" for r in net.resistors) + ("I",)
    column = {("R", r.rid): idx for idx, r in enumerate(net.resistors)}
    rows = []

    # current law: outgoing minus incoming vanishes at every kept node;
    # incidences are listed in resistor order, a self-loop twice (+1, -1),
    # and from_sparse drops the zero they leave
    incidence: dict[str, list] = {node: [] for node in net.nodes}
    for idx, r in enumerate(net.resistors):
        incidence[r.node_a].append((idx, one))
        incidence[r.node_b].append((idx, -one))
    for node in net.nodes:
        if node == net.battery.minus:
            continue
        coeffs = {}
        for idx, sign in incidence[node]:
            coeffs[idx] = coeffs.get(idx, zero) + sign
        if net.battery.plus == node:
            coeffs[len(net.resistors)] = zero - one
        rows.append((coeffs, zero))

    # voltage law around each fundamental cycle of the spanning tree: the
    # chord a -> b, then up from b against each downward tree step and up
    # from a along it, so the edges both walks share cancel to sense 0
    parent = net._tree
    tree_edges = {info[0][0] for info in parent.values() if info}
    weight = {("R", r.rid): r.value for r in net.resistors}
    weight[_BATTERY_KEY] = net.battery.voltage
    for key, a, b in _edges(net):
        if key in tree_edges:
            continue
        senses = {key: 1}
        for node, step in ((b, -1), (a, 1)):
            while parent[node]:
                (ekey, _, eb), up = parent[node]
                senses[ekey] = senses.get(ekey, 0) + (step if eb == node else -step)
                node = up
        coeffs = {}
        rhs = zero
        for ekey, sense in senses.items():
            if not sense:
                continue
            term = zero + weight[ekey] if sense > 0 else zero - weight[ekey]
            if ekey == _BATTERY_KEY:
                rhs = term
            else:
                coeffs[column[ekey]] = term
        rows.append((coeffs, rhs))

    return LinearSystem.from_sparse(variables, rows, zero)


def solve_flow(net: Netlist) -> FlowSolution:
    """Solve the nodal equations by one grounded Laplacian elimination.

    The minus terminal is grounded and V(plus) = U; each resistor current
    is (V_a - V_b) times its conductance, so a self-loop carries zero, and
    the battery current is U times the conductance between the terminals.
    Potentials are listed in the spanning tree's BFS order.
    """
    u = net.battery.voltage
    zero = zero_like(u)
    conductance = {r.rid: one_like(r.value) / r.value for r in net.resistors}
    volts, between = laplacian_potentials(
        ((r.node_a, r.node_b, conductance[r.rid]) for r in net.resistors),
        net.battery.plus, net.battery.minus, u,
    )
    currents = {
        r.rid: (volts[r.node_a] - volts[r.node_b]) * conductance[r.rid]
        for r in net.resistors
    }
    battery_current = u * between
    potential = {node: volts[node] for node in net._tree}

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


def series(r1, r2):
    if not r1 > zero_like(r1) or not r2 > zero_like(r2):
        raise ValueError("series resistances must be positive")
    return r1 + r2


def parallel(r1, r2):
    if not r1 > zero_like(r1) or not r2 > zero_like(r2):
        raise ValueError("parallel resistances must be positive")
    return r1 * r2 / (r1 + r2)


def symbolic_resistance(net: Netlist) -> RatFunc:
    """Resistance of a network whose resistors are rational functions of t.

    The battery voltage must be the constant 1; the result is returned in
    lowest terms with a monic denominator.  Evaluating it at a rational t0
    agrees with the resistance of the network instantiated at t0 (specific
    t0 may still hit a vanishing denominator, detected only on evaluation).

    With r_e = a_e/b_e, the matrix-tree theorem gives the resistance as
    N/D, where N = det L(+,-) * prod a_e and D = det L(-) * prod a_e are
    polynomials of degree at most K = sum max(deg a_e, deg b_e), where k
    equal resistors in parallel count as one edge.  Both are evaluated at
    t = 1, ..., K+1, where every r_e is positive, and fitted by Newton
    divided differences.
    """
    for r in net.resistors:
        if not isinstance(r.value, RatFunc):
            raise CircuitError(f"resistor {r.rid} is not symbolic")
    if net.battery.voltage != RatFunc.constant(1):
        raise CircuitError("symbolic resistance expects a unit battery")
    # k parallel copies of one value a/b are one edge of conductance k*b/a
    copies = Counter((*sorted((r.node_a, r.node_b)), r.value)
                     for r in net.resistors if r.node_a != r.node_b)
    edges = [(node_a, node_b, value.num, value.den * k)
             for (node_a, node_b, value), k in copies.items()]
    degree = sum(max(a.degree, b.degree) for _, _, a, b in edges)
    num_values, den_values = [], []
    for t0 in range(1, degree + 2):
        scale = 1
        conductances = []
        for node_a, node_b, a, b in edges:
            a0 = a.eval(t0)
            scale *= a0
            conductances.append((node_a, node_b, b.eval(t0) / a0))
        minor, det = laplacian_determinants(
            conductances, net.battery.minus, net.battery.plus
        )
        if not det:
            raise CircuitError(_NO_CURRENT)
        num_values.append(minor * scale)
        den_values.append(det * scale)
    return RatFunc(_interpolate(num_values), _interpolate(den_values))


def _interpolate(values) -> Poly:
    """The polynomial of degree < len(values) taking values[i] at t = i + 1.

    Newton divided differences on the points 1, 2, ..., n, whose spacing
    j at order j makes every divisor an integer; then the Newton form is
    expanded by Horner's rule.
    """
    c = list(values)
    n = len(c)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / j
    coeffs = [c[-1]]
    for k in range(n - 2, -1, -1):
        # coeffs * (t - (k + 1)) + c[k]
        shifted = [0] + coeffs
        for i, x in enumerate(coeffs):
            shifted[i] -= x * (k + 1)
        shifted[0] += c[k]
        coeffs = shifted
    return Poly(coeffs)


def replace_resistor_with_network(
    outer: Netlist, resistor_id: int, inner: Netlist
) -> Netlist:
    """Splice a two-terminal network in place of one resistor.

    The inner network's battery is discarded; its terminals take the place
    of the removed resistor's endpoints.  The inner resistance must equal
    the removed resistance exactly, which is what keeps every outer current
    and the total resistance unchanged.
    """
    victim = outer.resistor(resistor_id)
    inner_res = resistance(inner)
    if inner_res != victim.value:
        raise CircuitError(
            f"replacement network has resistance {format_scalar(inner_res)}, "
            f"resistor {resistor_id} has {format_scalar(victim.value)}"
        )
    rename = {
        inner.battery.plus: victim.node_a,
        inner.battery.minus: victim.node_b,
    }
    offset = max(r.rid for r in outer.resistors)
    resistors = [r for r in outer.resistors if r.rid != resistor_id]
    for r in inner.resistors:
        a = rename.get(r.node_a, f"{victim.node_a}.{resistor_id}.{r.node_a}")
        b = rename.get(r.node_b, f"{victim.node_a}.{resistor_id}.{r.node_b}")
        resistors.append(Resistor(offset + r.rid, a, b, r.value))
    return Netlist(resistors, outer.battery)


# --- netlist text ----------------------------------------------------------


def parse_netlist(text: str, symbolic: bool = False) -> Netlist:
    """Parse netlist text; the scalar field is inferred from the scalars."""
    resistor_lines = []
    battery_line = None
    declared = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0].upper()
        if tag == "N" and len(parts) == 2:
            declared.append(parts[1])
        elif tag == "R" and len(parts) >= 5:
            # the scalar may itself contain whitespace
            resistor_lines.append((lineno, parts[1:4] + [" ".join(parts[4:])]))
        elif tag == "V" and len(parts) >= 4:
            if battery_line is not None:
                raise ScalarParseError("netlist declares more than one battery")
            battery_line = (lineno, parts[1:3] + [" ".join(parts[3:])])
        else:
            raise ScalarParseError(f"bad netlist line {lineno}: {raw!r}")
    if battery_line is None:
        raise ScalarParseError("netlist declares no battery")

    scalars = [fields[-1] for _, fields in resistor_lines]
    scalars.append(battery_line[1][-1])
    if symbolic:
        parse = parse_symbolic_scalar
    else:
        try:
            radicands = {int(m) for s in scalars
                         for m in re.findall(r"sqrt\((\d+)\)", s)}
        except ValueError as exc:  # more digits than int() converts
            raise ScalarParseError(str(exc)) from None
        if len(radicands) > 1:
            raise ScalarParseError(
                f"netlist mixes radicands {sorted(radicands)}; one field per file"
            )
        if radicands:
            d = radicands.pop()

            def parse(s, _d=d):
                return parse_quadext(s, _d)

        else:
            parse = parse_rational

    resistors = []
    for lineno, (rid, a, b, scalar) in resistor_lines:
        try:
            value = parse(scalar)
        except ScalarParseError as exc:
            raise ScalarParseError(f"line {lineno}: {exc}") from exc
        try:
            rid = int(rid)
        except ValueError:
            raise ScalarParseError(
                f"line {lineno}: resistor id {rid!r} is not an integer"
            ) from None
        resistors.append(Resistor(rid, a, b, value))
    lineno, (plus, minus, scalar) = battery_line
    try:
        voltage = parse(scalar)
    except ScalarParseError as exc:
        raise ScalarParseError(f"line {lineno}: {exc}") from exc
    return Netlist(resistors, Battery(plus, minus, voltage), declared)


def format_netlist(net: Netlist) -> str:
    lines = [f"R {r.rid} {r.node_a} {r.node_b} {format_scalar(r.value)}"
             for r in net.resistors]
    b = net.battery
    lines.append(f"V {b.plus} {b.minus} {format_scalar(b.voltage)}")
    return "\n".join(lines) + "\n"
