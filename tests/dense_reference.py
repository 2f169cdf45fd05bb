"""The dense input-order Gauss-Jordan kernel, kept as a test oracle.

This is the elimination routine tilecircuit shipped before the sparse
kernel, copied verbatim (only renamed).  The property tests in
``test_linear_exactness.py`` require the sparse kernel to return an equal
outcome -- the same type, assignment, free variables, bound expressions,
inconsistent row index and reduced row -- on every system they draw.
"""

from __future__ import annotations

from tilecircuit.fields import zero_like
from tilecircuit.linear import (
    AffineExpr,
    Inconsistent,
    LinearSystem,
    Parametric,
    SolveOutcome,
    Unique,
)


def dense_gauss_jordan(system: LinearSystem) -> SolveOutcome:
    """Full elimination, equation by equation in input order.

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
    rows = [(list(coeffs), rhs) for coeffs, rhs in system.rows]
    pivot_row_of_var: dict[int, int] = {}

    for i in range(len(rows)):
        coeffs, rhs = rows[i]
        zero = zero_like(rhs)
        pivot = None
        for j in range(nvars):
            if system.rows[i][0][j] != zero and coeffs[j] != zero:
                pivot = j
                break
        if pivot is None:
            for j in range(nvars):
                if coeffs[j] != zero:
                    pivot = j
                    break
        if pivot is None:
            if rhs != zero:
                return Inconsistent(i, (tuple(coeffs), rhs))
            continue  # 0 = 0, drop the row
        p = coeffs[pivot]
        coeffs = [c / p for c in coeffs]
        rhs = rhs / p
        rows[i] = (coeffs, rhs)
        for k in range(len(rows)):
            if k == i:
                continue
            ck, rk = rows[k]
            f = ck[pivot]
            if f == zero:
                continue
            rows[k] = ([a - f * b for a, b in zip(ck, coeffs)], rk - f * rhs)
        pivot_row_of_var[pivot] = i

    free = tuple(variables[j] for j in range(nvars) if j not in pivot_row_of_var)
    if not free:
        assignment = {
            variables[j]: rows[i][1] for j, i in pivot_row_of_var.items()
        }
        return Unique(assignment)

    free_idx = [j for j in range(nvars) if j not in pivot_row_of_var]
    bound = {}
    for j, i in pivot_row_of_var.items():
        coeffs, rhs = rows[i]
        expr_coeffs = {variables[k]: -coeffs[k] for k in free_idx}
        bound[variables[j]] = AffineExpr(rhs, expr_coeffs)
    return Parametric(free, bound)
