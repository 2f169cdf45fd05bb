"""The grounded-Laplacian elimination as it stood when it kept a diagonal, kept as a test oracle.

``tilecircuit.linear._eliminate_laplacian`` now keeps each node's
conductance to the ground (its shunt) in place of the diagonal of the
grounded Laplacian, and stores every first value instead of adding it to
zero.  These are the kernel and its two callers it replaced, copied
verbatim: the diagonal starts at ``Fraction(0)`` and loses ``g * g / pivot``
per link, and every sum starts at zero.  ``test_laplacian_exactness.py``
requires both to give the same steps, pivots, potentials, determinants and
errors, value types included.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from tilecircuit.fields import RatFunc, zero_like


_ZERO = Fraction(0)


def _eliminate_laplacian(edges, ground, last) -> tuple[list, object]:
    """Eliminate every node but ``ground`` and ``last`` of a grounded Laplacian.

    ``edges`` yields ``(node_a, node_b, conductance)``; self-loops are
    skipped and parallel edges summed.  The Laplacian loses the row and
    column of ``ground``, and its other nodes are eliminated in
    minimum-degree order (Tinney-Walker: fewest off-diagonal entries, ties
    to the node seen first), each node keeping one dict of off-diagonal
    conductances; ``last`` goes last and is left uneliminated.

    Returns the steps ``(node, pivot, links)`` in elimination order, where
    ``links`` lists ``(neighbour, g / pivot, g)`` for each off-diagonal
    conductance g the node held when it went, and the last pivot, the Schur
    complement at ``last``: the conductance between ``last`` and ``ground``,
    zero when no edge path joins them.

    Every node must reach ``ground`` or ``last`` through the edges.  Then,
    with positive conductances, every pivot before the last is a Schur
    complement of a positive definite M-matrix and so positive: a
    nonpositive one, or a negative last pivot, is an internal error.  Over
    ``RatFunc``, which has no order, only a zero pivot before the last is.
    """
    diag: dict = {last: _ZERO}
    off: dict = {last: {}}
    for a, b, g in edges:
        if a == b:
            continue
        for u, v in ((a, b), (b, a)):
            if u == ground:
                continue
            diag[u] = diag.get(u, _ZERO) + g
            row = off.setdefault(u, {})
            if v != ground:
                row[v] = row.get(v, 0) + g
    seen = {u: i for i, u in enumerate(off)}
    heap = [(len(row), seen[u], u) for u, row in off.items() if u != last]
    heapq.heapify(heap)
    steps = []
    while heap:
        size, _, v = heapq.heappop(heap)
        row = off.get(v)
        if row is None or size != len(row):
            continue  # eliminated, or a stale entry; the current size is queued too
        del off[v]
        p = diag.pop(v)
        if not (p if isinstance(p, RatFunc) else p > 0):
            raise ArithmeticError(f"nonpositive Laplacian pivot {p} at node {v!r}")
        links = [(u, g / p, g) for u, g in row.items()]
        for i, (u, f, g) in enumerate(links):
            target = off[u]
            del target[v]
            diag[u] -= f * g
            for w, _, h in links[i + 1:]:
                # the Schur complement adds g*h/p to both (u, w) and (w, u)
                fill = f * h
                target[w] = target.get(w, 0) + fill
                other = off[w]
                other[u] = other.get(u, 0) + fill
        for u, _, _ in links:
            if u != last:
                heapq.heappush(heap, (len(off[u]), seen[u], u))
        steps.append((v, p, links))
    p = diag[last]
    if not isinstance(p, RatFunc) and p < 0:
        raise ArithmeticError(f"negative Laplacian pivot {p} at node {last!r}")
    return steps, p


def laplacian_determinants(edges, ground, last) -> tuple[Fraction, Fraction]:
    """det L(ground, last) and det L(ground) of a weighted graph Laplacian.

    L(S) is the Laplacian with the rows and columns of the nodes in S
    deleted.  After ``_eliminate_laplacian``, the product of the pivots
    before ``last`` is det L(ground, last), and times the last pivot it is
    det L(ground).
    """
    steps, p = _eliminate_laplacian(edges, ground, last)
    minor = Fraction(1)
    for _, pivot, _ in steps:
        minor *= pivot
    return minor, minor * p


def laplacian_potentials(edges, plus, minus, voltage) -> tuple[dict, object]:
    """Node potentials with V(plus) = voltage and V(minus) = 0, in the
    field of ``voltage``, and the conductance between plus and minus.

    The Laplacian grounded at ``minus`` is eliminated with ``plus`` last.
    No current leaves a free node, so its potential is the ``g / pivot``
    weighted sum of its links', back-substituted in reverse order.
    """
    steps, conductance = _eliminate_laplacian(edges, minus, plus)
    zero = zero_like(voltage)
    potential = {plus: voltage, minus: zero}
    for v, _, links in reversed(steps):
        total = zero
        for u, f, _ in links:
            total = total + f * potential[u]
        potential[v] = total
    return potential, conductance
