"""Algebraic criteria for aspect ratios of square tilings.

Centers on one exact decision: do all complex roots of an integer
polynomial lie in the open right half-plane?  The question is settled with
the Routh-Cauer continued fraction of P(-x) over exact rationals, so there
is no tolerance anywhere.  Supporting cast: minimal polynomials of
quadratic irrationals and the conjugation mechanism that transports one
root of an integer polynomial to its field conjugate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .fields import InputError, Poly, QuadExt, quad_conjugate, squarefree_check


class PolyParseError(InputError):
    """Polynomial text does not match the integer-coefficient syntax."""


class IntPoly:
    """Integer-coefficient polynomial, lowest degree first.

    Construction normalizes to the primitive representative with positive
    leading coefficient (content divided out, sign fixed), so two inputs
    that differ by a nonzero integer factor compare equal.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if cs:
            content = 0
            for c in cs:
                content = math.gcd(content, abs(c))
            if cs[-1] < 0:
                content = -content
            cs = [c // content for c in cs]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly values are immutable")

    def __reduce__(self):
        return IntPoly, (self.coeffs,)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_poly(self) -> Poly:
        return Poly(self.coeffs)

    def eval(self, x):
        return self.to_poly().eval(x)

    def reflected(self) -> "IntPoly":
        """P(-x), sign-normalized like every IntPoly."""
        return IntPoly([c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)])

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def format(self, var: str = "x") -> str:
        return self.to_poly().format(var)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


_POLY_TERM_RE = re.compile(r"^([+-]?)(\d+)?(?:\*?([a-zA-Z])(?:\^(\d+))?)?$")
_MAX_DEGREE = 64


def parse_intpoly(text: str, var: str = "x") -> IntPoly:
    """Parse text like ``2x^2-6x+3`` into an IntPoly.

    A term of degree above 64 raises ``PolyParseError``: the exact tests
    downstream cost far more than the length of the text suggests.
    """
    s = "".join(text.split())
    if not s:
        raise PolyParseError("empty polynomial")
    pieces = re.findall(r"[+-]?[^+-]+", s)
    if "".join(pieces) != s:
        raise PolyParseError(f"malformed polynomial: {text!r}")
    coeffs: dict[int, int] = {}
    for piece in pieces:
        m = _POLY_TERM_RE.match(piece)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise PolyParseError(f"malformed term: {piece!r}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group(3) not in (None, var):
            raise PolyParseError(f"unexpected variable {m.group(3)!r}")
        try:
            mag = int(m.group(2) or 1)
            power = int(m.group(4) or 1) if m.group(3) else 0
        except ValueError as exc:  # more digits than int() converts
            raise PolyParseError(f"{exc}: {piece!r}") from None
        if power > _MAX_DEGREE:
            raise PolyParseError(f"degree {power} is above the bound {_MAX_DEGREE}")
        coeffs[power] = coeffs.get(power, 0) + sign * mag
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return IntPoly(out)


def minpoly_quadratic(x) -> IntPoly:
    """Primitive integer minimal polynomial of a rational or quadratic value.

    Degree 1 for rationals p/q (namely q*x - p); otherwise the quadratic
    with roots a + b*sqrt(d) and a - b*sqrt(d), irreducible by construction.
    """
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return IntPoly([-x.numerator, x.denominator])
    if not isinstance(x, QuadExt):
        raise TypeError(f"expected a rational or QuadExt value, got {type(x).__name__}")
    if x.b == 0:
        return minpoly_quadratic(x.a)
    # (t - a)^2 - b^2 d, cleared of denominators
    rational_poly = Poly([x.a * x.a - x.b * x.b * x.d, -2 * x.a, Fraction(1)])
    ints, _ = rational_poly.clear_denominators()
    return IntPoly(ints)


@dataclass(frozen=True)
class ConjugationReport:
    """Both evaluations of an integer polynomial at x and its conjugate."""

    value_at_x: QuadExt
    value_at_conjugate: QuadExt
    values_are_conjugate: bool
    transports_root: bool  # P(x) = 0 implies P(conj x) = 0


def conjugate_lemma_check(p: IntPoly, x: QuadExt) -> ConjugationReport:
    """Evaluate p at x and at conj(x) and confirm the two are conjugates.

    Since conjugation is a field automorphism fixing the integers, the value
    at conj(x) is the conjugate of the value at x; in particular a root
    transports to its conjugate.
    """
    vx = p.eval(x)
    if not isinstance(vx, QuadExt):
        vx = QuadExt(vx, 0, x.d)
    vc = p.eval(x.conjugate())
    if not isinstance(vc, QuadExt):
        vc = QuadExt(vc, 0, x.d)
    matches = vc == quad_conjugate(vx)
    zero = QuadExt(0, 0, x.d)
    transports = (vx != zero) or (vc == zero)
    return ConjugationReport(vx, vc, matches, transports and matches)


def positive_real_part_all_roots(p: IntPoly) -> bool:
    """Exact test: every complex root of p has strictly positive real part.

    Decided by the Routh-Cauer continued fraction of q(x) = +-p(-x) (sign
    fixed so the leading coefficient is positive).  With F the one of q's
    even and odd parts that has degree n = deg q, and G the other, q has
    every root in the open left half-plane (so p in the right) iff

        F/G = c_1 x + 1/(c_2 x + 1/(... + 1/(c_n x)))  with every c_k > 0,

    i.e. iff the Euclidean expansion of F over G runs n steps and each
    quotient is c_k x with c_k > 0.  A remainder that vanishes early or a
    quotient of another form certifies a root with nonpositive real part,
    hence answers no.  Requires a squarefree input so that boundary cases
    cannot hide behind repeated roots.
    """
    if p.is_zero:
        raise InputError("zero polynomial")
    if p.degree < 1:
        raise InputError("constant polynomial has no roots")
    if not squarefree_check(p.to_poly()):
        raise InputError("polynomial must be squarefree")

    q = p.reflected().coeffs  # leading already positive
    even = Poly([c if k % 2 == 0 else 0 for k, c in enumerate(q)])
    odd = Poly([c if k % 2 else 0 for k, c in enumerate(q)])
    high, low = (even, odd) if p.degree % 2 == 0 else (odd, even)
    for _ in range(p.degree):
        if low.is_zero:
            return False
        # high and low differ in parity, so the quotient is odd: c_k x
        # exactly when its degree is 1
        quotient, rest = high.divmod(low)
        if quotient.degree != 1 or not quotient.coeffs[1] > 0:
            return False
        high, low = low, rest
    return True


@dataclass(frozen=True)
class Condition3Verdict:
    """Outcome of the positive-conjugates criterion.

    ``passed`` is always conclusive: it certifies that every root of the
    tested polynomial (hence every conjugate of any of its roots) lies in
    the open right half-plane.  A failed verdict is conclusive only when
    the polynomial is known irreducible; otherwise ``caveat`` is set.
    """

    passed: bool
    minimal_polynomial: IntPoly
    caveat: bool = False
    caveat_reason: str | None = None


_MAX_ROOT_TEST = 10**10


def _divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, from a trial-division factorisation."""
    divisors = [1]
    k = 2
    while k * k <= n:
        exponent = 0
        while n % k == 0:
            n //= k
            exponent += 1
        if exponent:
            divisors = [d * k**e for d in divisors for e in range(exponent + 1)]
        k += 1
    if n > 1:
        divisors += [d * n for d in divisors]
    return divisors


def _has_rational_root(p: IntPoly) -> bool:
    """Rational-root test over the candidates +-(divisor of the constant
    term)/(divisor of the leading coefficient).

    Inputs whose |leading * constant| exceeds 10**10 raise ``InputError``,
    which bounds both the factorisations and the candidate count.
    """
    lead = abs(p.coeffs[-1])
    const = abs(p.coeffs[0])
    if const == 0:
        return True
    if lead * const > _MAX_ROOT_TEST:
        raise InputError(
            "leading and constant coefficients too large for the rational-root "
            "test (|product| above 10^10)"
        )
    poly = p.to_poly()
    dens = _divisors(lead)
    for num in _divisors(const):
        for den in dens:
            if math.gcd(num, den) != 1:
                continue  # the same candidate in lower terms
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if poly.eval(cand) == 0:
                    return True
    return False


def lfs_condition3(spec) -> Condition3Verdict:
    """Decide the positive-conjugates criterion for a ratio or a polynomial.

    A rational or QuadExt input is decided exactly through its minimal
    polynomial.  An IntPoly input is decided for its full root set; the
    verdict carries a caveat when a failure might be an artifact of
    reducibility (irreducibility is only established up to degree 3, via
    rational-root extraction).
    """
    if isinstance(spec, (int, Fraction, QuadExt)):
        mp = minpoly_quadratic(spec)
        return Condition3Verdict(positive_real_part_all_roots(mp), mp)
    if not isinstance(spec, IntPoly):
        raise TypeError(f"expected a scalar or IntPoly, got {type(spec).__name__}")
    passed = positive_real_part_all_roots(spec)
    if passed:
        return Condition3Verdict(True, spec)
    if spec.degree == 1:
        irreducible = True
    elif spec.degree <= 3:
        irreducible = not _has_rational_root(spec)
    else:
        irreducible = False
    if irreducible:
        return Condition3Verdict(False, spec)
    return Condition3Verdict(
        False,
        spec,
        caveat=True,
        caveat_reason=(
            "a root with nonpositive real part exists, but the polynomial was "
            "not verified irreducible, so it may not be minimal for the ratio"
        ),
    )
