"""The ``QuadExt`` class as it stood when it held two ``Fraction``s, kept as a test oracle.

``tilecircuit.fields.QuadExt`` now stores a reduced integer triple
(p + q*sqrt(d))/r.  This is the class it replaced, copied verbatim,
together with the ``format_scalar`` that its ``__str__`` calls (that copy
recognises only this class and plain rationals).  The property tests in
``test_quadext_exactness.py`` require the two classes to agree on every
value, comparison, printed form, hash and error they are drawn on.
"""

from __future__ import annotations

import math
from fractions import Fraction

from tilecircuit.fields import InputError, RatFunc, _as_fraction, _is_squarefree


class QuadExt:
    """Element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    d must be a squarefree integer > 1 and is fixed per element; arithmetic
    between elements with different radicands raises ``ValueError``.  Plain
    ints and ``Fraction`` values coerce as b = 0 elements.  The field is
    ordered by its real embedding, decided exactly.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        if not _is_squarefree(d):
            raise InputError(f"radicand must be a squarefree integer > 1, got {d}")
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt values are immutable")

    def _coerce(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"mixed radicands sqrt({self.d}) and sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "QuadExt":
        """The field conjugate a - b*sqrt(d)."""
        return QuadExt(self.a, -self.b, self.d)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return QuadExt(self.a / norm, -self.b / norm, self.d)

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
        return QuadExt(-self.a, -self.b, self.d)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadExt(1, 0, self.d)
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
            return self.b == 0 and other.b == 0 and self.a == other.a
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # opposite signs: compare a^2 against b^2*d, exactly
        aa, bb = a * a, b * b * self.d
        if a > 0:
            return 1 if aa > bb else -1
        return 1 if bb > aa else -1

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot order QuadExt against {type(other).__name__}")
        return (self - o)._sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"


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
