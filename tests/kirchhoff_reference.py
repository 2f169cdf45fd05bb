"""The Kirchhoff system builder as it stood when it walked tree paths, kept as a test oracle.

``tilecircuit.circuit.kirchhoff_system`` now reads the spanning tree that
its ``Netlist`` built once and writes each voltage-law row from signed walks
up to the root.  This is the code it replaced, copied verbatim: it builds
the tree again with ``_spanning_tree`` and walks every fundamental cycle
through ``_tree_path`` and a shared-prefix scan.  The tests in
``test_kirchhoff_exactness.py`` require both builders to give the same
variables and the same rows, coefficient types included.
"""

from __future__ import annotations

from collections import deque

from tilecircuit.circuit import Netlist
from tilecircuit.fields import one_like, zero_like
from tilecircuit.linear import LinearSystem


_BATTERY_KEY = ("V",)


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


def _tree_path(parent, node: str):
    """Edges from the root down to node as (edge, child) pairs."""
    path = []
    while parent[node]:
        edge, up = parent[node]
        path.append((edge, node))
        node = up
    path.reverse()
    return path


def kirchhoff_system(net: Netlist) -> LinearSystem:
    """Current-law plus cycle voltage-law equations; unknowns I<id> and I.

    One node equation (the minus terminal's) is dropped as the redundant
    one; voltage equations come from the fundamental cycles of the BFS
    spanning tree, so the row count equals the edge count.
    """
    one = one_like(net.battery.voltage)
    zero = zero_like(net.battery.voltage)
    variables = tuple(f"I{r.rid}" for r in net.resistors) + ("I",)
    var_index = {v: i for i, v in enumerate(variables)}
    rows = []

    def blank():
        return [zero] * len(variables)

    # current law: outgoing minus incoming vanishes at every kept node;
    # incidences are listed in resistor order, a self-loop twice (+1, -1)
    incidence: dict[str, list] = {node: [] for node in net.nodes}
    for idx, r in enumerate(net.resistors):
        incidence[r.node_a].append((idx, one))
        incidence[r.node_b].append((idx, -one))
    for node in net.nodes:
        if node == net.battery.minus:
            continue
        coeffs = blank()
        for idx, sign in incidence[node]:
            coeffs[idx] = coeffs[idx] + sign
        if net.battery.plus == node:
            coeffs[var_index["I"]] = coeffs[var_index["I"]] - one
        rows.append((coeffs, zero))

    # voltage law around each fundamental cycle of the spanning tree
    parent = _spanning_tree(net)
    tree_edges = {info[0][0] for info in parent.values() if info}
    resistance = {("R", r.rid): r.value for r in net.resistors}
    for key, a, b in _edges(net):
        if key in tree_edges:
            continue
        # walk a -> b along the chord, then b -> a through the tree
        traversal = [(key, a, b, 1)]
        path_a = _tree_path(parent, a)
        path_b = _tree_path(parent, b)
        shared = 0
        while (
            shared < len(path_a)
            and shared < len(path_b)
            and path_a[shared] == path_b[shared]
        ):
            shared += 1
        for (ekey, ea, eb), child in reversed(path_b[shared:]):
            # moving child -> parent: against the tree's downward step
            sense = -1 if eb == child else 1
            traversal.append((ekey, ea, eb, sense))
        for (ekey, ea, eb), child in path_a[shared:]:
            direction = 1 if eb == child else -1
            traversal.append((ekey, ea, eb, direction))
        coeffs = blank()
        rhs = zero
        for ekey, ea, eb, sense in traversal:
            if ekey == _BATTERY_KEY:
                rhs = rhs + net.battery.voltage if sense > 0 else rhs - net.battery.voltage
            else:
                idx = var_index[f"I{ekey[1]}"]
                term = resistance[ekey]
                coeffs[idx] = coeffs[idx] + term if sense > 0 else coeffs[idx] - term
        rows.append((coeffs, rhs))

    return LinearSystem(variables, tuple(rows))
