"""Exact sparse elimination over any of the scalar fields.

The solver never approximates and never pivots for magnitude.  Systems are
stored sparsely, one ``column -> nonzero`` dict per row beside a
``column -> rows`` index, and solved in one pass that processes the rows in
input order, each expressing one of its own unknowns (the first in variable
order that it originally holds and that survives reduction).  So every
outcome is fully deterministic, and it explicitly distinguishes the three
possibilities: a unique assignment, a parametric family (free variables
plus affine expressions for the bound ones), or inconsistency with the
offending reduced row.

Resistor networks, and through them the sizing of dissections, have a
second, dedicated kernel: one elimination of a grounded weighted Laplacian
in minimum-degree order, over any of the fields.  ``laplacian_potentials``
back-substitutes the node potentials of a network driven across two
terminals and returns the conductance between them;
``laplacian_determinants`` multiplies the same pivots into the two
determinants that the matrix-tree theorem needs for a network resistance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .fields import RatFunc, zero_like


@dataclass(frozen=True)
class LinearSystem:
    """Rows of (coefficient vector, right-hand side) over a common field.

    ``nonzeros`` holds each row's nonzero coefficients as a
    ``column -> coefficient`` dict, computed once; the solver and the
    substitution check read only these.
    """

    variables: tuple[str, ...]
    rows: tuple[tuple[tuple, object], ...]
    nonzeros: tuple[dict, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        rows = tuple((tuple(coeffs), rhs) for coeffs, rhs in self.rows)
        for coeffs, _ in rows:
            if len(coeffs) != len(self.variables):
                raise ValueError(
                    f"row has {len(coeffs)} coefficients for "
                    f"{len(self.variables)} variables"
                )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nonzeros", tuple(
            {j: c for j, c in enumerate(coeffs) if c} for coeffs, _ in rows
        ))


class AffineExpr:
    """constant + sum of coeff * free-variable, used by parametric outcomes."""

    __slots__ = ("constant", "coeffs")

    def __init__(self, constant, coeffs=None):
        object.__setattr__(self, "constant", constant)
        clean = {}
        for var, c in (coeffs or {}).items():
            if c != zero_like(c):
                clean[var] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AffineExpr is immutable")

    def coefficient(self, var: str):
        return self.coeffs.get(var, zero_like(self.constant))

    def eval(self, valuation):
        total = self.constant
        for var, c in self.coeffs.items():
            total = total + c * valuation[var]
        return total

    def __eq__(self, other):
        if not isinstance(other, AffineExpr):
            return NotImplemented
        if self.constant != other.constant:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)

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


def _column_index(rows, nvars: int) -> list[set]:
    """column -> indices of the rows holding a nonzero there."""
    col_rows = [set() for _ in range(nvars)]
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    return col_rows


def _eliminate(target: dict, k: int, f, pivot_row: dict, pivot: int, col_rows):
    """target -= f * pivot_row, keeping row k's entries in col_rows current."""
    del target[pivot]
    col_rows[pivot].discard(k)
    for j, v in pivot_row.items():
        if j == pivot:
            continue
        old = target.get(j)
        if old is None:
            target[j] = -(f * v)
            col_rows[j].add(k)
        else:
            new = old - f * v
            if new:
                target[j] = new
            else:
                del target[j]
                col_rows[j].discard(k)


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
    rhs = [b for _, b in system.rows]
    col_rows = _column_index(rows, nvars)
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
        row = {j: c / p for j, c in row.items()}
        rows[i] = row
        b = rhs[i] = rhs[i] / p
        for k in list(col_rows[pivot]):
            if k == i:
                continue
            target = rows[k]
            f = target[pivot]
            _eliminate(target, k, f, row, pivot, col_rows)
            rhs[k] = rhs[k] - f * b
        pivot_row_of_var[pivot] = i

    if len(pivot_row_of_var) == nvars:
        return Unique({variables[j]: rhs[i] for j, i in pivot_row_of_var.items()})
    free = tuple(variables[j] for j in range(nvars) if j not in pivot_row_of_var)
    bound = {}
    for j, i in pivot_row_of_var.items():
        expr_coeffs = {
            variables[k]: -c for k, c in sorted(rows[i].items()) if k != j
        }
        bound[variables[j]] = AffineExpr(rhs[i], expr_coeffs)
    return Parametric(free, bound)


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


def substitute_and_verify(system: LinearSystem, outcome: SolveOutcome) -> bool:
    """Exact regression check: does the outcome satisfy every original row?

    Unique assignments are substituted directly; parametric outcomes are
    checked as identities in the free variables; an Inconsistent outcome
    verifies by re-deriving inconsistency.  Only nonzero coefficients are
    visited.
    """
    if isinstance(outcome, Inconsistent):
        return isinstance(gauss_jordan(system), Inconsistent)

    variables = system.variables
    rows = zip(system.nonzeros, (rhs for _, rhs in system.rows))
    if isinstance(outcome, Unique):
        assignment = outcome.assignment
        for row, rhs in rows:
            total = zero_like(rhs)
            for j, c in row.items():
                total = total + c * assignment[variables[j]]
            if total != rhs:
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
