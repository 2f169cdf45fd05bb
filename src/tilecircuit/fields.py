"""Exact scalar arithmetic shared by every solver in the package.

Three concrete scalar fields, all immutable and exact:

  * ``Rational``    -- arbitrary-precision rationals (``fractions.Fraction``)
  * ``QuadExt``     -- real quadratic extensions a + b*sqrt(d), one squarefree
                       d per context; mixing radicands is an error
  * ``RatFunc``     -- univariate rational functions over the rationals,
                       kept with monic denominator coprime to the numerator

``Poly`` holds rational-coefficient polynomials (lowest degree first) and
supplies the division, gcd and Horner-evaluation machinery the other types
and the algebraic checks are built on.

A ``QuadExt`` is stored as one integer triple (p + q*sqrt(d))/r with r > 0
and gcd(p, q, r) = 1, the form number-field libraries use (one common
denominator, H. Cohen, *A Course in Computational Algebraic Number Theory*,
1993, section 4.2.2).  Because 1 and sqrt(d) are linearly independent over
Q, the form is unique, so its arithmetic, sign, order and equality run on
Python ints with one gcd per result.  Its components ``a`` and ``b`` are
read-only ``Fraction`` views.  Input is validated where it enters: the
``QuadExt(a, b, d)`` constructor checks the radicand and the component
types, as do ``parse_quadext`` and ``FieldSpec``, which go through it or
check d themselves; values built by arithmetic inside this module reuse an
already checked radicand and skip those checks.

The certificate's checks put their values on a grid (the private
``_on_grid``): times one L > 0, which keeps order, equality and sums.  Over
Q, L is the common denominator and each ``Fraction`` and ``int`` becomes an
int, as Brooks, Smith, Stone and Tutte (Duke Math. J. 1940) scale a
rational squared rectangle to integer sides.  Over one Q(sqrt(d)), L is
the lcm of the triples' r and each value becomes an element p + q*sqrt(d)
of Z[sqrt(d)] (the private ``_IntQuad``), whose sums and products run on
ints with no gcd; ``_order_keys`` maps such elements to ints in the same
exact order, so a sort compares ints.  Any other scalar, mixed radicands,
or an L past 4,096 bits, where pairwise coprime denominators would make
the grid quadratic, gives L = 1 and the values as given.

Scalars have a textual syntax used by every file format: a rational is
``p/q`` or ``p``; a quadratic element is ``a/b + c/e*sqrt(d)`` with either
term omissible and whitespace insignificant.  Parsing and printing
round-trip exactly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain

Rational = Fraction


class InputError(ValueError):
    """Malformed or out-of-range input; the command line exits 2 on it."""


class ScalarParseError(InputError):
    """A scalar string does not match the textual syntax."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# Denominators per math.lcm call, and the widest common denominator, in
# bits, that _on_grid accepts.
_GRID_CHUNK = 64
_GRID_MAX_BITS = 4096


def _on_grid(*groups):
    """The groups times one L > 0, and L.

    When every value is a ``Fraction`` or an ``int`` and their common
    denominator fits in ``_GRID_MAX_BITS``, L is that denominator and each
    group comes back as a list of ints.  When the values are ``QuadExt``
    elements of one radicand d, mixed with ``Fraction`` and ``int``, and
    the lcm of their triples' r fits, L is that lcm and each group comes
    back as a list of ``_IntQuad``, elements of Z[sqrt(d)].  Otherwise
    L = 1 and the groups come back as given.
    """
    nums, dens = [], []
    for v in chain(*groups):
        if type(v) is Fraction:
            nums.append(v._numerator)
            dens.append(v._denominator)
        elif type(v) is int:
            nums.append(v)
            dens.append(1)
        else:
            return _on_quad_grid(groups)
    distinct = list(set(dens))
    lcm = 1
    for k in range(0, len(distinct), _GRID_CHUNK):
        lcm = math.lcm(lcm, *distinct[k:k + _GRID_CHUNK])
        if lcm.bit_length() > _GRID_MAX_BITS:
            return groups, 1
    scale = {den: lcm // den for den in distinct}
    ints = [n * scale[den] for n, den in zip(nums, dens)]
    split, start = [], 0
    for group in groups:
        split.append(ints[start:start + len(group)])
        start += len(group)
    return split, lcm


def _on_quad_grid(groups):
    """``_on_grid`` past a value that is not a ``Fraction`` or an ``int``:
    the rational grid's steps over the triples (p, q, r) of one radicand."""
    triples, d = [], None
    for v in chain(*groups):
        if type(v) is QuadExt:
            if d is None:
                d = v.d
            elif v.d != d:
                return groups, 1
            triples.append((v._p, v._q, v._r))
        elif type(v) is Fraction:
            triples.append((v._numerator, 0, v._denominator))
        elif type(v) is int:
            triples.append((v, 0, 1))
        else:
            return groups, 1
    distinct = list({r for _, _, r in triples})
    lcm = 1
    for k in range(0, len(distinct), _GRID_CHUNK):
        lcm = math.lcm(lcm, *distinct[k:k + _GRID_CHUNK])
        if lcm.bit_length() > _GRID_MAX_BITS:
            return groups, 1
    scale = {r: lcm // r for r in distinct}
    values = [_IntQuad(p * scale[r], q * scale[r], d) for p, q, r in triples]
    split, start = [], 0
    for group in groups:
        split.append(values[start:start + len(group)])
        start += len(group)
    return split, lcm


class _IntQuad:
    """An element p + q*sqrt(d) of Z[sqrt(d)], with int p and q: a value on
    a ``QuadExt`` grid (``_on_grid``).

    Sums, negation and products with ints and with elements of the same
    radicand stay in Z[sqrt(d)] and run on ints, with no gcd.  Any other
    operand, an element of another radicand included, meets the
    ``QuadExt`` this value equals, so mixed input keeps the field's results
    and errors.  Order is read through ``_order_keys``.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p: int, q: int, d: int):
        self.p, self.q, self.d = p, q, d

    def _field(self) -> QuadExt:
        return _reduced(self.p, self.q, 1, self.d)

    def __add__(self, other):
        if type(other) is _IntQuad and other.d == self.d:
            return _IntQuad(self.p + other.p, self.q + other.q, self.d)
        if type(other) is int:
            return _IntQuad(self.p + other, self.q, self.d)
        return self._field() + other

    def __radd__(self, other):
        if type(other) is int:
            return _IntQuad(other + self.p, self.q, self.d)
        return other + self._field()

    def __sub__(self, other):
        if type(other) is _IntQuad and other.d == self.d:
            return _IntQuad(self.p - other.p, self.q - other.q, self.d)
        if type(other) is int:
            return _IntQuad(self.p - other, self.q, self.d)
        return self._field() - other

    def __rsub__(self, other):
        if type(other) is int:
            return _IntQuad(other - self.p, -self.q, self.d)
        return other - self._field()

    def __mul__(self, other):
        p, q, d = self.p, self.q, self.d
        if type(other) is _IntQuad and other.d == d:
            op, oq = other.p, other.q
            return _IntQuad(p * op + q * oq * d, p * oq + q * op, d)
        if type(other) is int:
            return _IntQuad(p * other, q * other, d)
        return self._field() * other

    def __rmul__(self, other):
        if type(other) is int:
            return _IntQuad(other * self.p, other * self.q, self.d)
        return other * self._field()

    def __neg__(self):
        return _IntQuad(-self.p, -self.q, self.d)

    def __eq__(self, other):
        if type(other) is _IntQuad and other.d == self.d:
            return self.p == other.p and self.q == other.q
        if type(other) is int:
            return self.q == 0 and self.p == other
        return self._field() == other

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __repr__(self):
        return f"_IntQuad({self.p}, {self.q}, d={self.d})"


def _order_keys(values: list) -> list:
    """Ints that order ``values`` exactly: equal where the values are equal,
    and in their order where they differ.

    ``values`` are one grid's: ints, or ``_IntQuad`` of one radicand and
    ints; a list with no ``_IntQuad`` comes back as given.  Over Z[sqrt(d)]
    the key of v = p + q*sqrt(d) is p*2^k + q*s, where s = floor(2^k sqrt(d))
    is one ``math.isqrt`` for the whole list, so the key is 2^k v - q*t for
    one t in [0, 1).  Two distinct values differ by some e = u + w*sqrt(d)
    with |u|, |w| <= 2M, for M the largest |p| or |q|, and the norm of e is
    a nonzero integer, so |e| >= 1 / |u - w*sqrt(d)| >= 1 / (2M(1 + sqrt(d))).
    With 2^k >= 4M^2 (1 + sqrt(d)), 2^k |e| >= 2M >= |w| > |w| t, so their
    keys differ by 2^k e - w*t, which has the sign of e.
    """
    if _IntQuad not in set(map(type, values)):
        return values
    pairs = [(v.p, v.q) if type(v) is _IntQuad else (v, 0) for v in values]
    m = max(max(abs(p), abs(q)) for p, q in pairs)
    d = next(v.d for v in values if type(v) is _IntQuad)
    k = (4 * m * m * (math.isqrt(d) + 2)).bit_length()
    s = math.isqrt(d << 2 * k)
    return [(p << k) + q * s for p, q in pairs]


_MAX_RADICAND = 10**10
# Radicands remembered by _is_squarefree; bounded so that a long-lived
# process that meets many radicands does not grow without limit.
_SQUAREFREE_CACHE_SIZE = 1024


@lru_cache(maxsize=_SQUAREFREE_CACHE_SIZE)
def _is_squarefree(d: int) -> bool:
    """Whether d > 1 has no square factor, by trial division up to sqrt(d).

    Radicands above 10**10 (more than 10**5 trial divisors) raise
    ``InputError``.
    """
    if d > _MAX_RADICAND:
        raise InputError("radicand exceeds the supported bound 10^10")
    if d <= 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class QuadExt:
    """Element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    d must be a squarefree integer > 1 and is fixed per element; arithmetic
    between elements with different radicands raises ``ValueError``.  Plain
    ints and ``Fraction`` values coerce as b = 0 elements.  The field is
    ordered by its real embedding, decided exactly.

    An element is stored as the integer triple (p + q*sqrt(d))/r with
    r > 0 and gcd(p, q, r) = 1.  Since 1 and sqrt(d) are linearly
    independent over Q, a = p/r and b = q/r, so r is a multiple of the
    common denominator of a and b, and the gcd condition makes it exactly
    that one: each element has one triple.  Equality, sign, order and truth
    read the triple directly, arithmetic runs on ints with one gcd per
    result, and ``a`` and ``b`` are read-only properties giving the
    canonical ``Fraction`` components.  Only this constructor checks the
    radicand and the component types; results of arithmetic reuse the
    operands' checked radicand.
    """

    __slots__ = ("_p", "_q", "_r", "d")

    def __init__(self, a, b, d: int):
        if type(d) is not int or not _is_squarefree(d):
            raise InputError(f"radicand must be a squarefree integer > 1, got {d}")
        a, b = _as_fraction(a), _as_fraction(b)
        r = math.lcm(a.denominator, b.denominator)
        _set_p(self, a.numerator * (r // a.denominator))
        _set_q(self, b.numerator * (r // b.denominator))
        _set_r(self, r)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt values are immutable")

    def __reduce__(self):
        return QuadExt, (self.a, self.b, self.d)

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(d)."""
        return Fraction(self._q, self._r)

    def _parts(self, other) -> "tuple[int, int, int] | None":
        """other as a triple over this radicand; None for a foreign type."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"mixed radicands sqrt({self.d}) and sqrt({other.d})")
            return other._p, other._q, other._r
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def conjugate(self) -> "QuadExt":
        """The field conjugate a - b*sqrt(d)."""
        return _triple(self._p, -self._q, self._r, self.d)

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._p, self._q, self._r, *o, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        return _sum(self._p, self._q, self._r, -p, -q, r, self.d)

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _sum(*o, -self._p, -self._q, self._r, self.d)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        sp, sq, d = self._p, self._q, self.d
        return _reduced(sp * p + sq * q * d, sp * q + sq * p, self._r * r, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        return _quotient(1, 0, 1, self._p, self._q, self._r, self.d)

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self._p, self._q, self._r, *o, self.d)

    def __rtruediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self._p, self._q, self._r, self.d)

    def __neg__(self):
        return _triple(-self._p, -self._q, self._r, self.d)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = _triple(1, 0, 1, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, QuadExt) and other.d != self.d:
            # only the rational embeddings of distinct fields can agree
            return (self._q == 0 and other._q == 0
                    and self._p == other._p and self._r == other._r)
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._p == o[0] and self._q == o[1] and self._r == o[2]

    def __hash__(self):
        if self._q == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other) -> int:
        o = self._parts(other)
        if o is None:
            raise TypeError(f"cannot order QuadExt against {type(other).__name__}")
        p, q, r = o
        sr = self._r
        return _sign(self._p * r - p * sr, self._q * r - q * sr, self.d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __bool__(self):
        return self._p != 0 or self._q != 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"


_new_quad = object.__new__
_set_p = QuadExt._p.__set__
_set_q = QuadExt._q.__set__
_set_r = QuadExt._r.__set__
_set_d = QuadExt.d.__set__


def _triple(p: int, q: int, r: int, d: int) -> QuadExt:
    """(p + q*sqrt(d))/r from a triple already reduced with r > 0."""
    x = _new_quad(QuadExt)
    _set_p(x, p)
    _set_q(x, q)
    _set_r(x, r)
    _set_d(x, d)
    return x


def _reduced(p: int, q: int, r: int, d: int) -> QuadExt:
    """(p + q*sqrt(d))/r for any r != 0: divide by gcd(p, q, r), make r > 0."""
    g = math.gcd(p, q, r)
    if r < 0:
        g = -g
    if g != 1:
        p, q, r = p // g, q // g, r // g
    return _triple(p, q, r, d)


def _sum(p1: int, q1: int, r1: int, p2: int, q2: int, r2: int, d: int) -> QuadExt:
    """(p1 + q1*sqrt(d))/r1 plus (p2 + q2*sqrt(d))/r2."""
    if r1 == r2:
        return _reduced(p1 + p2, q1 + q2, r1, d)
    return _reduced(p1 * r2 + p2 * r1, q1 * r2 + q2 * r1, r1 * r2, d)


def _quotient(p1: int, q1: int, r1: int, p2: int, q2: int, r2: int, d: int) -> QuadExt:
    """(p1 + q1*sqrt(d))/r1 divided by (p2 + q2*sqrt(d))/r2.

    Multiplies through by the conjugate p2 - q2*sqrt(d); its norm
    p2^2 - q2^2*d vanishes only for zero, since d is not a square.
    """
    norm = p2 * p2 - q2 * q2 * d
    if norm == 0:
        raise ZeroDivisionError("division by zero in quadratic field")
    return _reduced(r2 * (p1 * p2 - q1 * q2 * d), r2 * (q1 * p2 - p1 * q2), r1 * norm, d)


def _sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d), decided exactly."""
    if q == 0:
        return -1 if p < 0 else (1 if p > 0 else 0)
    if p == 0:
        return 1 if q > 0 else -1
    if (p > 0) == (q > 0):
        return 1 if p > 0 else -1
    # opposite signs: compare p^2 against q^2*d, never equal for squarefree d
    pp, qq = p * p, q * q * d
    if p > 0:
        return 1 if pp > qq else -1
    return 1 if qq > pp else -1


def quad_conjugate(x):
    """Map a + b*sqrt(d) to a - b*sqrt(d); rationals are fixed points."""
    if isinstance(x, QuadExt):
        return x.conjugate()
    return _as_fraction(x)


class Poly:
    """Polynomial with rational coefficients, lowest degree first.

    The zero polynomial is the empty coefficient tuple; otherwise the
    leading coefficient is nonzero.  Evaluation accepts any field value
    whose arithmetic coerces rationals (QuadExt in particular).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly values are immutable")

    def __reduce__(self):
        return Poly, (self.coeffs,)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Poly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        return Poly([c * x for x in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Exact division with remainder: self = q*divisor + r, deg r < deg divisor."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(divisor.coeffs)
        lead = divisor.coeffs[-1]
        if len(rem) < dn:
            return Poly(), Poly(rem)
        quo = [Fraction(0)] * (len(rem) - dn + 1)
        for k in range(len(rem) - dn, -1, -1):
            c = rem[k + dn - 1] / lead
            quo[k] = c
            if c != 0:
                for j, dj in enumerate(divisor.coeffs):
                    rem[k + j] -= c * dj
        return Poly(quo), Poly(rem[: dn - 1])

    def __divmod__(self, other):
        return self.divmod(other)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading())

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        """Horner evaluation; exact in whatever field x lives in."""
        if self.is_zero:
            return Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def compose_square(self) -> "Poly":
        """Substitute x^2 for the variable."""
        out = [Fraction(0)] * (2 * len(self.coeffs) - 1) if self.coeffs else []
        for k, c in enumerate(self.coeffs):
            out[2 * k] = c
        return Poly(out)

    def shift_up(self, k: int = 1) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def clear_denominators(self) -> tuple[tuple[int, ...], int]:
        """Integer coefficients plus the positive multiplier that was applied."""
        if self.is_zero:
            return (), 1
        mult = 1
        for c in self.coeffs:
            mult = mult * c.denominator // math.gcd(mult, c.denominator)
        return tuple(int(c * mult) for c in self.coeffs), mult

    def format(self, var: str = "x") -> str:
        return _format_poly(self.coeffs, var)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def poly_divmod(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    return p.divmod(d)


def poly_eval(p: Poly, x):
    return p.eval(x)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def squarefree_check(p: Poly) -> bool:
    """True when gcd(p, p') is constant, i.e. p has no repeated roots."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return True
    return poly_gcd(p, p.derivative()).degree == 0


def _format_poly(coeffs, var: str) -> str:
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            x = var if k == 1 else f"{var}^{k}"
            body = x if mag == 1 else f"{mag}*{x}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


class RatFunc:
    """Rational function num/den over Q; den monic and coprime to num."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly((1,))):
        if not isinstance(num, Poly):
            num = Poly.constant(_as_fraction(num))
        if not isinstance(den, Poly):
            den = Poly.constant(_as_fraction(den))
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly(), Poly((1,))
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading()
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc values are immutable")

    def __reduce__(self):
        return RatFunc, (self.num, self.den)

    @classmethod
    def constant(cls, c) -> "RatFunc":
        return cls(Poly.constant(c))

    @classmethod
    def t(cls) -> "RatFunc":
        return cls(Poly.x())

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(other)
        return None

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def eval(self, t0) -> Fraction:
        t0 = _as_fraction(t0)
        d = self.den.eval(t0)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at t = {t0}")
        return self.num.eval(t0) / d

    def format(self, var: str = "t") -> str:
        num = self.num.format(var)
        if self.den == Poly((1,)):
            return num
        if len([c for c in self.num.coeffs if c != 0]) > 1:
            num = f"({num})"
        return f"{num}/({self.den.format(var)})"

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


def zero_like(x):
    """Additive identity of the field x belongs to."""
    if isinstance(x, QuadExt):
        return _triple(0, 0, 1, x.d)
    if isinstance(x, RatFunc):
        return RatFunc(Poly())
    return Fraction(0)


def one_like(x):
    """Multiplicative identity of the field x belongs to."""
    if isinstance(x, QuadExt):
        return _triple(1, 0, 1, x.d)
    if isinstance(x, RatFunc):
        return RatFunc.constant(1)
    return Fraction(1)


# --- textual scalar syntax ------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_SQRT_TERM_RE = re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)\*)?sqrt\((\d+)\)$")
_TERM_SPLIT_RE = re.compile(r"[+-]?[^+-]+")


def _numeral(digits: str, text: str, kind=Fraction):
    """kind(digits) for a numeral that matched the syntax; scalar text errors."""
    try:
        return kind(digits)
    except ZeroDivisionError:
        raise ScalarParseError(f"zero denominator in scalar: {text!r}") from None
    except ValueError as exc:  # more digits than int() converts
        raise ScalarParseError(f"{exc}: {text!r}") from None


def parse_rational(text: str) -> Fraction:
    s = "".join(text.split())
    if not _RATIONAL_RE.match(s):
        raise ScalarParseError(f"not a rational scalar: {text!r}")
    return _numeral(s, text)


def parse_quadext(text: str, d: int | None = None):
    """Parse ``a/b + c/e*sqrt(d)`` with either term omissible.

    Returns a QuadExt when a sqrt term appears or a radicand is supplied,
    otherwise a plain Fraction.
    """
    s = "".join(text.split())
    if not s:
        raise ScalarParseError("empty scalar")
    rational = Fraction(0)
    coeff = Fraction(0)
    seen_d = None
    pieces = _TERM_SPLIT_RE.findall(s)
    if "".join(pieces) != s:
        raise ScalarParseError(f"malformed scalar: {text!r}")
    for piece in pieces:
        m = _SQRT_TERM_RE.match(piece)
        if m:
            sign = -1 if m.group(1) == "-" else 1
            c = _numeral(m.group(2), text) if m.group(2) else Fraction(1)
            dd = _numeral(m.group(3), text, int)
            if seen_d is not None and dd != seen_d:
                raise ScalarParseError(f"mixed radicands in scalar: {text!r}")
            seen_d = dd
            coeff += sign * c
        elif _RATIONAL_RE.match(piece):
            rational += _numeral(piece, text)
        else:
            raise ScalarParseError(f"malformed scalar term: {piece!r}")
    if seen_d is not None:
        if d is not None and seen_d != d:
            raise ScalarParseError(
                f"scalar uses sqrt({seen_d}) but the field is Q(sqrt({d}))"
            )
        return QuadExt(rational, coeff, seen_d)
    if d is not None:
        return QuadExt(rational, 0, d)
    return rational


def format_scalar(x) -> str:
    """Canonical text for a Rational or QuadExt scalar; round-trips exactly."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        mag = abs(x.b)
        root = f"sqrt({x.d})" if mag == 1 else f"{mag}*sqrt({x.d})"
        if x.a == 0:
            return root if x.b > 0 else f"-{root}"
        op = "+" if x.b > 0 else "-"
        return f"{x.a} {op} {root}"
    if isinstance(x, RatFunc):
        return x.format()
    raise TypeError(f"cannot format {type(x).__name__} as a scalar")


_SYMBOLIC_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)?\*?(t)?$")


def parse_symbolic_scalar(text: str) -> RatFunc:
    """Parse a netlist scalar in symbolic mode: a rational, ``t`` or ``c*t``."""
    s = "".join(text.split())
    m = _SYMBOLIC_RE.match(s)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ScalarParseError(f"not a symbolic scalar: {text!r}")
    c = _numeral(m.group(1), text) if m.group(1) else Fraction(1)
    if m.group(2):
        return RatFunc(Poly.x().scale(c))
    return RatFunc.constant(c)


class FieldSpec:
    """Descriptor for the scalar field a dissection or netlist lives over."""

    __slots__ = ("kind", "d")

    def __init__(self, kind: str, d: int | None = None):
        if kind == "rational":
            if d is not None:
                raise InputError("rational field takes no radicand")
        elif kind == "quadratic":
            if type(d) is not int or not _is_squarefree(d):
                raise InputError("quadratic field needs a squarefree d > 1")
        else:
            raise InputError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __reduce__(self):
        return FieldSpec, (self.kind, self.d)

    @classmethod
    def rational(cls) -> "FieldSpec":
        return cls("rational")

    @classmethod
    def quadratic(cls, d: int) -> "FieldSpec":
        return cls("quadratic", d)

    @property
    def zero(self):
        return Fraction(0) if self.kind == "rational" else _triple(0, 0, 1, self.d)

    @property
    def one(self):
        return Fraction(1) if self.kind == "rational" else _triple(1, 0, 1, self.d)

    def parse(self, text: str):
        if self.kind == "rational":
            return parse_rational(text)
        return parse_quadext(text, self.d)

    def format(self, x) -> str:
        return format_scalar(x)

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "quadratic", "d": self.d}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        kind = obj.get("kind")
        if kind not in ("rational", "quadratic"):
            raise ScalarParseError(f"unknown field descriptor: {obj!r}")
        return cls(kind, obj.get("d"))

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.kind, self.d))

    def __repr__(self):
        if self.kind == "rational":
            return "FieldSpec.rational()"
        return f"FieldSpec.quadratic({self.d})"
