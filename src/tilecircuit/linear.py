"""Exact sparse elimination over any of the scalar fields.

The solver never approximates and never pivots for magnitude.  Systems are
stored sparsely, one ``column -> nonzero`` dict per row beside a
``column -> rows`` index, and solved in up to two passes:

* a fast pass orders pivots by the Markowitz rule (fewest nonzeros in the
  row, then fewest active rows in the column) and returns only a unique
  assignment, which does not depend on the pivot order;
* anything else -- a leftover row 0 = c with c != 0, or fewer pivots than
  unknowns -- is decided by a reference pass that starts again from the
  original rows and processes them in input order, each expressing one of
  its own unknowns (the first in variable order that it originally holds and
  that survives reduction).

So every outcome is fully deterministic, and the parametric and
inconsistent ones are exactly those of plain input-order Gauss-Jordan.  The
outcome explicitly distinguishes the three possibilities: a unique
assignment, a parametric family (free variables plus affine expressions
for the bound ones), or inconsistency with the offending reduced row.

``laplacian_determinants`` is a second, dedicated kernel for resistor
networks: it eliminates a grounded weighted Laplacian over ``Fraction`` in
minimum-degree order and returns two determinants from one pass, which is
what the matrix-tree theorem needs for a network resistance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .fields import zero_like


@dataclass(frozen=True)
class LinearSystem:
    """Rows of (coefficient vector, right-hand side) over a common field."""

    variables: tuple[str, ...]
    rows: tuple[tuple[tuple, object], ...]

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


def gauss_jordan(system: LinearSystem) -> SolveOutcome:
    """Exact elimination: a Markowitz-ordered fast pass, then input order.

    The fast pass decides only ``Unique`` outcomes: every unknown got a
    pivot and every leftover row reduced to 0 = 0, so the assignment is the
    system's one solution whatever the pivot order.  Otherwise the reference
    pass reruns the documented input-order rule on the original rows: each
    row in turn expresses one of its unknowns -- the first, in variable
    order, that originally appears in the row and still survives reduction
    -- and that unknown is eliminated from every other row.  Rows that
    reduce to 0 = 0 are dropped; a row reducing to 0 = nonzero makes the
    system inconsistent and is reported by its original index.  Variables no
    row ever expressed come back as the free variables of a parametric
    outcome.
    """
    solution = _markowitz_solve(
        _sparse_rows(system), [b for _, b in system.rows], len(system.variables)
    )
    if solution is not None:
        return Unique(dict(zip(system.variables, solution)))
    return _input_order_solve(system)


def _sparse_rows(system: LinearSystem) -> list[dict]:
    """The nonzero coefficients of every row, as column -> value dicts."""
    return [{j: c for j, c in enumerate(coeffs) if c} for coeffs, _ in system.rows]


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


def _markowitz_solve(rows: list[dict], rhs: list, nvars: int) -> list | None:
    """The unique solution by Markowitz-ordered elimination, else None.

    Forward elimination takes the active row with the fewest nonzeros and,
    in it, the column with the fewest active rows; ties go to the lowest
    row index, then the lowest column.  Back-substitution follows.  None
    means some row reduced to 0 = nonzero or some unknown got no pivot.
    ``rows`` and ``rhs`` are reduced in place.
    """
    col_rows = _column_index(rows, nvars)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    done = [False] * len(rows)
    pivots = []
    while heap:
        size, i = heapq.heappop(heap)
        row = rows[i]
        if done[i] or size != len(row):
            continue  # a stale entry; the row's current size is queued too
        done[i] = True
        if not row:
            if rhs[i]:
                return None
            continue
        for j in row:
            col_rows[j].discard(i)
        pivot = min(row, key=lambda j: (len(col_rows[j]), j))
        p = row[pivot]
        b = rhs[i]
        for k in list(col_rows[pivot]):
            target = rows[k]
            f = target[pivot] / p
            _eliminate(target, k, f, row, pivot, col_rows)
            if b:
                rhs[k] = rhs[k] - f * b
            heapq.heappush(heap, (len(target), k))
        pivots.append((i, pivot))
    if len(pivots) != nvars:
        return None
    x = [None] * nvars
    for i, pivot in reversed(pivots):
        row = rows[i]
        total = rhs[i]
        for j, v in row.items():
            if j != pivot:
                total = total - v * x[j]
        x[pivot] = total / row[pivot]
    return x


def _input_order_solve(system: LinearSystem) -> SolveOutcome:
    """The reference pass: input-order Gauss-Jordan on the sparse store."""
    variables = system.variables
    nvars = len(variables)
    original = _sparse_rows(system)
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


def laplacian_determinants(edges, ground, last) -> tuple[Fraction, Fraction]:
    """det L(ground, last) and det L(ground) of a weighted graph Laplacian.

    ``edges`` yields ``(node_a, node_b, conductance)`` with positive
    conductances; self-loops are skipped and parallel edges summed.  L(S)
    is the Laplacian with the rows and columns of the nodes in S deleted.
    The nodes other than ``ground`` and ``last`` are eliminated in
    minimum-degree order (Tinney-Walker: fewest off-diagonal entries, ties
    to the node seen first), each node keeping one dict of off-diagonal
    conductances; ``last`` goes last.  The product of the pivots before it
    is det L(ground, last), and times its pivot det L(ground).

    Every node must reach ``ground`` or ``last`` through the edges.  Then
    L(ground, last) is a positive definite M-matrix, every pivot before the
    last is a Schur complement of it and so positive, and a nonpositive one
    is an internal error.  The last pivot is the conductance between
    ``last`` and ``ground``; it is zero when no edge path joins them.
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
    minor = Fraction(1)
    while heap:
        size, _, v = heapq.heappop(heap)
        row = off.get(v)
        if row is None or size != len(row):
            continue  # eliminated, or a stale entry; the current size is queued too
        del off[v]
        p = diag.pop(v)
        if not p > 0:
            raise ArithmeticError(f"nonpositive Laplacian pivot {p} at node {v!r}")
        minor *= p
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
    p = diag[last]
    if p < 0:
        raise ArithmeticError(f"negative Laplacian pivot {p} at node {last!r}")
    return minor, minor * p


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
    if isinstance(outcome, Unique):
        assignment = outcome.assignment
        for coeffs, rhs in system.rows:
            total = zero_like(rhs)
            for j, c in enumerate(coeffs):
                if c:
                    total = total + c * assignment[variables[j]]
            if total != rhs:
                return False
        return True

    for coeffs, rhs in system.rows:
        const = zero_like(rhs)
        acc: dict[str, object] = {}
        for j, c in enumerate(coeffs):
            if not c:
                continue
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
