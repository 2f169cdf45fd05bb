"""Exact sparse elimination over any of the scalar fields.

The solver never approximates and never pivots for magnitude.  Systems are
stored sparsely, one ``column -> nonzero`` dict per row, and solved in one
pass that processes the rows in input order, each expressing one of its own
unknowns (the first in variable order that it originally holds and that
survives reduction).  So every outcome is fully deterministic, and it
explicitly distinguishes the three possibilities: a unique assignment, a
parametric family (free variables plus affine expressions for the bound
ones), or inconsistency with the offending reduced row.  ``gauss_jordan`` is
the general solver of the API, and ``substitute_and_verify`` checks an
outcome against every original row; no pipeline of the package calls
either, and the tests use both as oracles.

Resistor networks, and through them the sizing of dissections, have a
second, dedicated kernel: one elimination of a grounded weighted Laplacian
in minimum-degree order, over any of the fields, in shunt form (Kron
reduction): each node keeps its conductance to the ground instead of a
diagonal, and eliminating v with pivot p gives each neighbour u
``shunt'_u = shunt_u + g_uv * shunt_v / p``.  ``laplacian_potentials``
back-substitutes the node potentials of a network driven across two
terminals and returns the conductance between them;
``laplacian_determinants`` multiplies the same pivots into the two
determinants that the matrix-tree theorem needs for a network resistance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .fields import RatFunc, _on_grid, zero_like


class LinearSystem:
    """Rows of (coefficient vector, right-hand side) over a common field.

    ``nonzeros`` holds each row's nonzero coefficients as a ``column ->
    coefficient`` dict and ``rhs`` the right-hand sides; the solver and the
    substitution check read only these.  ``from_sparse`` takes such dicts
    and builds the dense ``rows`` view only when it is read.
    """

    __slots__ = ("variables", "nonzeros", "rhs", "_rows", "_zero")

    def __init__(self, variables, rows):
        self.variables = tuple(variables)
        self._rows = tuple((tuple(coeffs), rhs) for coeffs, rhs in rows)
        for coeffs, _ in self._rows:
            if len(coeffs) != len(self.variables):
                raise ValueError(f"row has {len(coeffs)} coefficients for "
                                 f"{len(self.variables)} variables")
        self.nonzeros = tuple({j: c for j, c in enumerate(coeffs) if c}
                              for coeffs, _ in self._rows)
        self.rhs = tuple(rhs for _, rhs in self._rows)

    @classmethod
    def from_sparse(cls, variables, rows, zero) -> "LinearSystem":
        """A system from rows of (``column -> coefficient`` dict, rhs);
        ``zero`` fills the absent entries of the dense view."""
        system = cls.__new__(cls)
        system.variables = tuple(variables)
        system.nonzeros = tuple({j: c for j, c in row.items() if c} for row, _ in rows)
        system.rhs = tuple(rhs for _, rhs in rows)
        system._rows, system._zero = None, zero
        return system

    @property
    def rows(self) -> tuple[tuple[tuple, object], ...]:
        if self._rows is None:
            columns = range(len(self.variables))
            self._rows = tuple((tuple(row.get(j, self._zero) for j in columns), rhs)
                               for row, rhs in zip(self.nonzeros, self.rhs))
        return self._rows

    def __eq__(self, other):
        return isinstance(other, LinearSystem) and (
            (self.variables, self.rows) == (other.variables, other.rows))

    def __hash__(self):
        return hash((self.variables, self.rows))


@dataclass(frozen=True)
class AffineExpr:
    """constant + sum of nonzero coeff * free-variable, for parametric outcomes."""

    constant: object
    coeffs: dict | None = None

    def __post_init__(self):
        clean = {var: c for var, c in (self.coeffs or {}).items() if c != zero_like(c)}
        object.__setattr__(self, "coeffs", clean)

    def eval(self, valuation):
        total = self.constant
        for var, c in self.coeffs.items():
            total = total + c * valuation[var]
        return total

    def __repr__(self):
        parts = [f"{self.constant}"]
        parts += [f"({c})*{v}" for v, c in self.coeffs.items()]
        return " + ".join(parts)


@dataclass(frozen=True)
class Unique:
    assignment: dict


@dataclass(frozen=True)
class Parametric:
    free: tuple[str, ...]
    bound: dict


@dataclass(frozen=True)
class Inconsistent:
    row_index: int
    reduced_row: tuple = field(default=())


SolveOutcome = Unique | Parametric | Inconsistent


def gauss_jordan(system: LinearSystem) -> SolveOutcome:
    """Exact input-order Gauss-Jordan elimination on the sparse rows.

    Each row in turn expresses one of its unknowns -- the first, in variable
    order, that originally appears in the row and still survives reduction
    -- and that unknown is eliminated from every other row.  Rows that
    reduce to 0 = 0 are dropped; a row reducing to 0 = nonzero makes the
    system inconsistent and is reported by its original index.  Variables no
    row ever expressed come back as the free variables of a parametric
    outcome.
    """
    variables = system.variables
    nvars = len(variables)
    original = system.nonzeros
    rows = [dict(row) for row in original]
    rhs = list(system.rhs)
    pivot_row_of_var: dict[int, int] = {}

    for i, row in enumerate(rows):
        if not row:
            if rhs[i]:
                zero = zero_like(rhs[i])
                return Inconsistent(i, ((zero,) * nvars, rhs[i]))
            continue  # 0 = 0, drop the row
        kept = original[i].keys() & row.keys()
        pivot = min(kept) if kept else min(row)
        p = row[pivot]
        # the pivot's own entry, 1, is left out: no other row keeps its column
        row = {j: c / p for j, c in row.items() if j != pivot}
        rows[i] = row
        b = rhs[i] = rhs[i] / p
        for k, target in enumerate(rows):
            f = target.pop(pivot, None)
            if f is None:
                continue
            for j, v in row.items():
                new = target[j] - f * v if j in target else -(f * v)
                if new:
                    target[j] = new
                else:
                    del target[j]
            rhs[k] = rhs[k] - f * b
        pivot_row_of_var[pivot] = i

    if len(pivot_row_of_var) == nvars:
        return Unique({variables[j]: rhs[i] for j, i in pivot_row_of_var.items()})
    free = tuple(variables[j] for j in range(nvars) if j not in pivot_row_of_var)
    bound = {}
    for j, i in pivot_row_of_var.items():
        coeffs = {variables[k]: -c for k, c in sorted(rows[i].items())}
        bound[variables[j]] = AffineExpr(rhs[i], coeffs)
    return Parametric(free, bound)


_ZERO = Fraction(0)


def _eliminate_laplacian(edges, ground, last) -> tuple[list, object]:
    """Eliminate every node but ``ground`` and ``last`` of a grounded Laplacian.

    ``edges`` yields ``(node_a, node_b, conductance)``; self-loops are
    skipped and parallel edges summed.  The Laplacian loses the row and
    column of ``ground``, and its other nodes are eliminated in
    minimum-degree order (Tinney-Walker: fewest off-diagonal entries, ties
    to the node seen first); ``last`` goes last and is left uneliminated.

    Each node holds one dict of off-diagonal conductances and, once it has
    a path to ``ground``, its shunt, the conductance to ``ground``; its
    diagonal entry, never stored, is the shunt plus the row sum.  A Schur
    complement of a grounded Laplacian is again one (Kron reduction), so
    eliminating v with pivot p adds ``g * h / p`` between each pair of its
    neighbours and moves its shunt to them: ``shunt'_u = shunt_u + g_uv *
    shunt_v / p``.  A first value is stored, not added to zero.

    Returns the steps ``(node, pivot, links)`` in elimination order, where
    ``links`` lists ``(neighbour, g / pivot, g)`` for each off-diagonal
    conductance g the node held when it went, and the last pivot, the Schur
    complement at ``last``: its shunt, the conductance between ``last`` and
    ``ground``, zero when no edge path joins them.  Pivots of integer
    conductances are ``Fraction``s.

    Every node must reach ``ground`` or ``last`` through the edges.  Then,
    with positive conductances, every pivot before the last is a Schur
    complement of a positive definite M-matrix and so positive: a
    nonpositive one, or a negative last pivot, is an internal error.  Over
    ``RatFunc``, which has no order, only a zero pivot before the last is.
    """
    shunt: dict = {}
    off: dict = {last: {}}
    for a, b, g in edges:
        if a == b:
            continue
        for u, v in ((a, b), (b, a)):
            if u == ground:
                continue
            row = off.setdefault(u, {})
            if v == ground:
                shunt[u] = shunt[u] + g if u in shunt else g
            else:
                row[v] = row[v] + g if v in row else g
    # a last with no path to ground gets the zero of its edges' field
    unreached = next(iter(off[last].values()), _ZERO)
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
        s = shunt.pop(v, None)
        values = iter(row.values())
        p = sum(values, next(values, _ZERO) if s is None else s)
        if isinstance(p, int):
            p = Fraction(p)  # so that g / p stays exact
        if not (p if isinstance(p, RatFunc) else p > 0):
            raise ArithmeticError(f"nonpositive Laplacian pivot {p} at node {v!r}")
        links = [(u, g / p, g) for u, g in row.items()]
        for i, (u, f, g) in enumerate(links):
            target = off[u]
            del target[v]
            if s is not None:
                moved = f * s
                shunt[u] = shunt[u] + moved if u in shunt else moved
            for w, _, h in links[i + 1:]:
                # the Schur complement adds g*h/p to both (u, w) and (w, u)
                fill = f * h
                target[w] = target[w] + fill if w in target else fill
                other = off[w]
                other[u] = other[u] + fill if u in other else fill
        for u, _, _ in links:
            if u != last:
                heapq.heappush(heap, (len(off[u]), seen[u], u))
        steps.append((v, p, links))
    p = shunt[last] if last in shunt else zero_like(unreached)
    if isinstance(p, int):
        p = Fraction(p)
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
        terms = (f * potential[u] for u, f, _ in links)
        potential[v] = sum(terms, next(terms, zero))
    return potential, conductance


def substitute_and_verify(system: LinearSystem, outcome: SolveOutcome) -> bool:
    """Exact regression check: does the outcome satisfy every original row?

    Unique assignments are substituted directly; parametric outcomes are
    checked as identities in the free variables; an Inconsistent outcome
    verifies by re-deriving inconsistency.  Only nonzero coefficients are
    visited.  A unique assignment V is put on a grid, V' = V * L, and each
    row on its own, times its m, and sum c'V' = b'L is tested.  Over Q a
    grid holds ints, over Q(sqrt d) elements of Z[sqrt d] whose products
    and sums run on ints; otherwise its factor is 1 and it holds the values.

    No pipeline of the package calls it; the tests use it as an oracle,
    among other things to show that sizes obeying the network's local laws
    solve the junction system.
    """
    if isinstance(outcome, Inconsistent):
        return isinstance(gauss_jordan(system), Inconsistent)

    variables = system.variables
    rows = zip(system.nonzeros, system.rhs)
    if isinstance(outcome, Unique):
        assignment = outcome.assignment
        (values,), scale = _on_grid(assignment.values())
        assigned = dict(zip(assignment, values))
        for row, rhs in rows:
            (coeffs,), _ = _on_grid((*row.values(), rhs))
            total = 0
            for j, c in zip(row, coeffs):
                total += c * assigned[variables[j]]
            if total != coeffs[-1] * scale:
                return False
        return True

    for row, rhs in rows:
        const = zero_like(rhs)
        acc: dict[str, object] = {}
        for j, c in row.items():
            var = variables[j]
            if var in outcome.bound:
                e = outcome.bound[var]
                const = const + c * e.constant
                for fv, fc in e.coeffs.items():
                    acc[fv] = acc.get(fv, zero_like(rhs)) + c * fc
            else:
                acc[var] = acc.get(var, zero_like(rhs)) + c
        if const != rhs:
            return False
        if any(v != zero_like(v) for v in acc.values()):
            return False
    return True
