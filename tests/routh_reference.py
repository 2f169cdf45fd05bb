"""The half-plane test as it stood when it ran the Routh array, kept as a test oracle.

``tilecircuit.algcheck.positive_real_part_all_roots`` now expands the
even and odd parts of +-p(-x) as a Routh-Cauer continued fraction.  This
is the function it replaced, copied verbatim.  ``test_algcheck.py``
requires both to give the same verdict, or to raise the same exception
type with the same message, on every polynomial it is drawn on.
"""

from __future__ import annotations

from fractions import Fraction

from tilecircuit.algcheck import IntPoly
from tilecircuit.fields import InputError, squarefree_check


def positive_real_part_all_roots(p: IntPoly) -> bool:
    """Exact test: every complex root of p has strictly positive real part.

    Decided by the Routh scheme on q(x) = +-p(-x) (sign fixed so the leading
    coefficient is positive): the answer is yes iff all first-column entries
    are strictly positive.  A zero entry or a vanishing row certifies a root
    with nonpositive real part, hence answers no.  Requires a squarefree
    input so that boundary cases cannot hide behind repeated roots.
    """
    if p.is_zero:
        raise InputError("zero polynomial")
    if p.degree < 1:
        raise InputError("constant polynomial has no roots")
    if not squarefree_check(p.to_poly()):
        raise InputError("polynomial must be squarefree")

    q = [Fraction(c) for c in p.reflected().coeffs]  # leading already positive
    n = len(q) - 1
    if n == 1:
        return q[1] > 0 and q[0] > 0

    width = n // 2 + 1
    high_first = q[::-1]
    row0 = [high_first[i] if i < len(high_first) else Fraction(0) for i in range(0, 2 * width, 2)]
    row1 = [high_first[i] if i < len(high_first) else Fraction(0) for i in range(1, 2 * width, 2)]
    first_column = [row0[0]]
    prev2, prev = row0, row1
    for _ in range(n):
        head = prev[0]
        if head == 0:
            return False
        if all(c == 0 for c in prev):
            return False
        first_column.append(head)
        nxt = []
        for j in range(width - 1):
            a = prev2[j + 1] if j + 1 < len(prev2) else Fraction(0)
            b = prev[j + 1] if j + 1 < len(prev) else Fraction(0)
            nxt.append((head * a - prev2[0] * b) / head)
        nxt.append(Fraction(0))
        prev2, prev = prev, nxt
    return all(c > 0 for c in first_column)
