"""Seeded input generators, each paired with an exact oracle.

Every generator builds its answer by construction, independently of
tilecircuit: brick walls come from exact rectangles, series-parallel
netlists from their composition tree, symbolic ladders from a continued
fraction evaluated at sample points, two-rung ladder tilings from the
quadratic that pins their ratio, and polynomials from their roots.  The
benchmark hands tilecircuit only the generated text and compares what comes
back with the oracle, exactly.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

# Joints of neighbouring rows must differ by this share of the wall width in
# floating point, far above tilecircuit's 1e-6 sketch tolerance, so the
# sketch cannot merge two staggered joints into a four-tile cross.
STAGGER_GAP = 1e-3
# Any two distinct joints of the wall stay this far apart, so snapping the
# sketch to coordinate classes is never ambiguous.
SNAP_GAP = 1e-5


# --- exact oracle arithmetic in Q(sqrt d) ------------------------------------


class Surd:
    """a + b*sqrt(d) with rational a, b; the oracle's own quadratic numbers."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    def _lift(self, other) -> "Surd":
        if isinstance(other, Surd):
            if other.d != self.d:
                raise ValueError("mixed radicands")
            return other
        return Surd(other, 0, self.d)

    def __add__(self, other):
        o = self._lift(other)
        return Surd(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return Surd(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        norm = o.a * o.a - o.b * o.b * o.d
        return self * Surd(o.a / norm, -o.b / norm, self.d)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def sign(self) -> int:
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0 or sa == sb:
            return sa or sb
        if sa == 0:
            return sb
        # opposite signs: the larger square decides
        lhs, rhs = self.a * self.a, self.b * self.b * self.d
        return sa if lhs > rhs else sb

    def __eq__(self, other):
        o = self._lift(other)
        return (self.a, self.b) == (o.a, o.b)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def text(self) -> str:
        if self.b == 0:
            return str(self.a)
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self.d})"


def sign(x) -> int:
    if isinstance(x, Surd):
        return x.sign()
    return (x > 0) - (x < 0)


def text(x) -> str:
    return x.text() if isinstance(x, Surd) else str(Fraction(x))


def as_exact(value, d: int | None):
    """A tilecircuit scalar (Fraction or QuadExt) as the oracle's number."""
    if d is None:
        if not isinstance(value, Fraction):
            raise TypeError(f"expected a rational, got {type(value).__name__}")
        return value
    if isinstance(value, Fraction):
        return Surd(value, 0, d)
    if getattr(value, "d", None) != d:
        raise TypeError(f"expected an element of Q(sqrt {d}), got {value!r}")
    return Surd(value.a, value.b, d)


_RATIONAL_TERM = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_SQRT_TERM = re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)\*)?sqrt\((\d+)\)$")


def parse_exact(s: str, d: int | None):
    """Read a scalar printed by tilecircuit back into an oracle number."""
    compact = "".join(s.split())
    pieces = re.findall(r"[+-]?[^+-]+", compact)
    if not pieces or "".join(pieces) != compact:
        raise ValueError(f"unreadable scalar {s!r}")
    a = Fraction(0)
    b = Fraction(0)
    for piece in pieces:
        if _RATIONAL_TERM.match(piece):
            a += Fraction(piece)
            continue
        m = _SQRT_TERM.match(piece)
        if not m or d is None or int(m.group(3)) != d:
            raise ValueError(f"unreadable scalar term {piece!r}")
        c = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        b += -c if m.group(1) == "-" else c
    if d is None:
        return a
    return Surd(a, b, d)


# --- brick walls ---------------------------------------------------------------


@dataclass(frozen=True)
class Wall:
    """A staggered brick wall and its exact sizing.

    ``rects`` holds (x, y, w, h) per tile id, with the big rectangle's
    vertical side normalised to 1, which is how tilecircuit sizes a sketch
    whose big sides are left open.
    """

    d: int | None
    rects: dict          # tile id -> exact (x, y, w, h)
    width: object        # big horizontal side (the ratio, since height is 1)

    @property
    def tiles(self) -> int:
        return len(self.rects)

    def aspect(self, tid: int):
        _, _, w, h = self.rects[tid]
        return w / h

    def rows(self) -> list[list[int]]:
        """Tile ids row by row, bottom row first, each left to right."""
        by_y: dict = {}
        for tid, (x, y, _, _) in self.rects.items():
            by_y.setdefault(y, []).append(tid)
        return [
            sorted(by_y[y], key=lambda t: float(self.rects[t][0]))
            for y in sorted(by_y, key=float)
        ]

    def field_json(self) -> dict:
        if self.d is None:
            return {"kind": "rational"}
        return {"kind": "quadratic", "d": self.d}

    def sketch_json(self) -> str:
        """Dissection file with sketch and aspects only; tilecircuit sizes it."""
        return _dissection_json(self.field_json(), self.rects, None)

    def sized_json(self, rects=None) -> str:
        """Dissection file carrying the exact rectangles and big sides."""
        return _dissection_json(
            self.field_json(), rects or self.rects, (self.width, Fraction(1))
        )


def _dissection_json(field: dict, rects: dict, big) -> str:
    tiles = []
    for tid in sorted(rects):
        x, y, w, h = rects[tid]
        fx, fy = float(x), float(y)
        tiles.append({
            "id": tid,
            "sketch": [fx, fy, float(x + w) - fx, float(y + h) - fy],
            "aspect": text(w / h),
            "rect": [text(c) for c in rects[tid]] if big else None,
        })
    return json.dumps({
        "field": field,
        "big": {"w": text(big[0]), "h": text(big[1])} if big else {"w": None, "h": None},
        "tiles": tiles,
    })


def _positive(rng: random.Random, d: int | None):
    if d is None:
        return Fraction(rng.randint(1, 12), rng.randint(1, 12))
    # small parts: the cost of Q(sqrt d) elimination grows fast with their size
    return Surd(Fraction(rng.randint(1, 6), rng.randint(1, 6)),
                Fraction(rng.randint(1, 4), rng.randint(1, 4)), d)


def four_tile_points(rects: dict, width, height) -> list:
    """Interior points that are a corner of four tiles (a cross)."""
    corners: dict = {}
    for x, y, w, h in rects.values():
        for p in ((x, y), (x + w, y), (x, y + h), (x + w, y + h)):
            corners[p] = corners.get(p, 0) + 1
    return [
        (px, py) for (px, py), n in corners.items()
        if n >= 4 and 0 < sign(px) and sign(px - width) < 0
        and 0 < sign(py) and sign(py - height) < 0
    ]


def _joints_clear(joints, placed_rows, width) -> bool:
    """Separation of a new row's joints from the rows already placed."""
    scale = float(width)
    for depth, row in enumerate(reversed(placed_rows)):
        gap = STAGGER_GAP if depth == 0 else SNAP_GAP
        for x in joints:
            fx = float(x)
            for y in row:
                if abs(fx - float(y)) < gap * scale and (depth == 0 or x != y):
                    return False
    return True


def brick_wall(rng: random.Random, tiles: int, d: int | None = None) -> Wall:
    """A staggered wall of ``tiles`` bricks in about sqrt(tiles) rows.

    Row heights and brick widths are random positive numbers of the field;
    every row is rescaled to the bottom row's width.  A row whose joints
    come too close to those of the rows below is drawn again, and the
    finished wall is checked to have no point where four tiles meet.
    """
    rows = max(2, round(math.sqrt(tiles)))
    counts = [tiles // rows + (1 if i < tiles % rows else 0) for i in range(rows)]
    heights = [_positive(rng, d) for _ in range(rows)]
    total_h = sum(heights[1:], heights[0])

    width = None
    joint_rows: list = []
    widths_per_row = []
    for count in counts:
        while True:
            widths = [_positive(rng, d) for _ in range(count)]
            row_sum = sum(widths[1:], widths[0])
            if width is None:
                width = row_sum
            widths = [w * width / row_sum for w in widths]
            joints = []
            x = widths[0]
            for w in widths[1:]:
                joints.append(x)
                x = x + w
            if _joints_clear(joints, joint_rows, width):
                break
        joint_rows.append(joints)
        widths_per_row.append(widths)

    rects = {}
    tid = 1
    y = Fraction(0)
    for h, widths in zip(heights, widths_per_row):
        x = Fraction(0)
        for w in widths:
            rects[tid] = (x / total_h, y / total_h, w / total_h, h / total_h)
            tid += 1
            x = x + w
        y = y + h
    wall = Wall(d, rects, width / total_h)
    if four_tile_points(rects, wall.width, Fraction(1)):
        raise AssertionError("staggered wall has a four-tile point")
    return wall


# --- the nine-square shelf -------------------------------------------------------

# The classic 33 x 32 rectangle dissected into nine different squares,
# as (x, y, side) in units of 1/32 of its height.
SHELF_SQUARES = {
    1: (8, 22, 1), 2: (9, 22, 10), 3: (0, 23, 9), 4: (0, 15, 8), 5: (8, 15, 7),
    6: (15, 18, 4), 7: (15, 0, 18), 8: (19, 18, 14), 9: (0, 0, 15),
}


def shelf() -> Wall:
    """The nine-square shelf: ratio 33/32, every tile a square."""
    unit = Fraction(1, 32)
    rects = {
        tid: (x * unit, y * unit, s * unit, s * unit)
        for tid, (x, y, s) in SHELF_SQUARES.items()
    }
    return Wall(None, rects, Fraction(33, 32))


# --- series-parallel netlists ------------------------------------------------------


@dataclass(frozen=True)
class SPNet:
    text: str
    resistance: Fraction


def series_parallel(rng: random.Random, resistors: int) -> SPNet:
    """Random series-parallel network; its resistance follows its build tree."""
    lines = []
    names = iter(range(1, 10**9))

    def build(a: str, b: str, budget: int) -> Fraction:
        if budget == 1:
            value = Fraction(rng.randint(1, 30), rng.randint(1, 6))
            lines.append(f"R {len(lines) + 1} {a} {b} {value}")
            return value
        left = rng.randint(1, budget - 1)
        if rng.random() < 0.5:
            mid = f"m{next(names)}"
            return build(a, mid, left) + build(mid, b, budget - left)
        r1, r2 = build(a, b, left), build(a, b, budget - left)
        return r1 * r2 / (r1 + r2)

    value = build("p", "q", resistors)
    voltage = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    lines.append(f"V p q {voltage}")
    return SPNet("\n".join(lines) + "\n", value)


# --- symbolic ladders ------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicLadder:
    """Ladder network s1, p1, s2, p2, ... with some resistors symbolic in t.

    ``entries`` holds (coefficient, is_symbolic) for each (series, shunt)
    pair, from the battery end inward.
    """

    text: str
    edges: int
    entries: tuple

    @property
    def symbolic(self) -> int:
        return sum(s for pair in self.entries for _, s in pair)

    def samples(self) -> dict:
        """Exact resistance at 2k+1 positive rationals t0, k = ``symbolic``.

        Numerator and denominator of the resistance both have degree at
        most k, so two such functions that agree on 2k+1 points are equal.
        """
        k = self.symbolic
        points = [Fraction(j, 1 + j % 3) for j in range(1, 2 * k + 2)]
        out = {t0: _ladder_value(self.entries, t0) for t0 in points}
        if len(out) != 2 * k + 1:
            raise AssertionError("sample points must be distinct")
        return out


def _ladder_value(entries, t0: Fraction) -> Fraction:
    def val(entry):
        c, symbolic = entry
        return c * t0 if symbolic else c

    tail = None
    for series, shunt in reversed(entries):
        p = val(shunt)
        if tail is not None:
            p = p * tail / (p + tail)
        tail = val(series) + p
    return tail


def symbolic_ladder(rng: random.Random, sections: int) -> SymbolicLadder:
    """Ladder with 2*sections resistors plus the battery (2*sections+1 edges).

    The series resistors are symbolic (c*t) and the shunts constant, with
    random coefficients, so that ladders of one size cost about the same to
    solve.
    """
    entries = []
    lines = []
    rid = 1
    for i in range(1, sections + 1):
        pair = []
        for a, b in ((f"n{i - 1}", f"n{i}"), (f"n{i}", "g")):
            c = Fraction(rng.randint(1, 5), rng.randint(1, 2))
            symbolic = b != "g"
            if symbolic:
                token = "t" if c == 1 else f"{c}*t"
            else:
                token = str(c)
            lines.append(f"R {rid} {a} {b} {token}")
            pair.append((c, symbolic))
            rid += 1
        entries.append(tuple(pair))
    lines.append("V n0 g 1")
    return SymbolicLadder("\n".join(lines) + "\n", 2 * sections + 1, tuple(entries))


def poly_value(coeffs, t0):
    total = 0 * t0
    for c in reversed(coeffs):
        total = total * t0 + c
    return total


def check_ratfunc(num, den, bound: int, samples: dict) -> str | None:
    """None if num/den (lowest-first coefficients) matches the samples.

    ``bound`` caps both degrees of the true function and ``samples`` holds
    more than twice as many points, which makes the comparison exact.
    """
    deg_num = len(num) - 1
    deg_den = len(den) - 1
    if deg_num > bound or deg_den > bound:
        return f"degree ({deg_num}, {deg_den}) exceeds the bound {bound}"
    if len(samples) <= max(deg_num, deg_den) + bound:
        return "too few sample points for an exact comparison"
    for t0, want in samples.items():
        q = poly_value(den, t0)
        if q == 0 or poly_value(num, t0) / q != want:
            return f"wrong value at t = {t0}"
    return None


# --- two-rung ladder tilings ----------------------------------------------------


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree."""
    s, d, k = 1, 1, 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            s *= k
        if n % k == 0:
            n //= k
            d *= k
        k += 1
    return s, d * n


def primitive(coeffs) -> tuple[int, ...]:
    """Integer coefficients (lowest first), content removed, leading > 0."""
    den = 1
    for c in coeffs:
        den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    if ints[-1] < 0:
        g = -g
    return tuple(c // g for c in ints)


@dataclass(frozen=True)
class LadderTiling:
    """Unit square tiled from the ladder c1*R + 1/(c2*R) = 1.

    R is a root of c1*c2*x^2 - c2*x + 1, irreducible because its
    discriminant is not a square, and both roots are positive: that
    polynomial is the expected Theorem-1 certificate and minimal
    polynomial, and the positive-conjugates verdict is PASS.
    """

    d: int
    ratio: Surd
    c: tuple[Fraction, Fraction]
    rects: dict
    certificate: tuple[int, ...]

    def ladder_json(self) -> str:
        return json.dumps({
            "field": {"kind": "quadratic", "d": self.d},
            "R": self.ratio.text(),
            "c": [str(c) for c in self.c],
        })

    def sketch_json(self) -> str:
        return _dissection_json({"kind": "quadratic", "d": self.d}, self.rects, None)


def _slab(x, y, w, h, cols: int, rows: int, rects: dict) -> None:
    for i in range(cols):
        for j in range(rows):
            rects[len(rects) + 1] = (x + w * i / cols, y + h * j / rows, w / cols, h / rows)


# (c1, c2) of the two-rung ladders: grids of one row or one column, so no
# four-tile crosses, and six to eight tiles, so every tiling costs about
# the same to certify.
LADDER_SHAPES = (
    (Fraction(1, 5), Fraction(1)), (Fraction(1, 6), Fraction(1)),
    (Fraction(1, 7), Fraction(1)), (Fraction(1), Fraction(5)),
    (Fraction(1), Fraction(6)), (Fraction(1), Fraction(7)),
)


def ladder_tiling(rng: random.Random, shapes=LADDER_SHAPES) -> LadderTiling:
    """Two-rung ladder of one of ``shapes``, with either root as R.

    The finished tiling is checked for four-tile crosses, which the sizing
    contract excludes.
    """
    c1, c2 = rng.choice(shapes)
    disc = c2 * c2 - 4 * c1 * c2
    s, d = _squarefree_split(disc.numerator * disc.denominator)
    root = Surd(0, Fraction(s, disc.denominator), d)  # sqrt(disc)
    ratio = (c2 + (root if rng.random() < 0.5 else -root)) / (2 * c1 * c2)
    zero, one = Surd(0, 0, d), Surd(1, 0, d)
    rects: dict = {}
    slab_w = c1 * ratio
    _slab(zero, zero, slab_w, one, c1.numerator, c1.denominator, rects)
    _slab(slab_w, zero, one - slab_w, one, c2.denominator, c2.numerator, rects)
    if four_tile_points(rects, one, one):
        raise AssertionError(f"ladder shape {c1}, {c2} has a four-tile cross")
    return LadderTiling(d, ratio, (c1, c2), rects, primitive([Fraction(1), -c2, c1 * c2]))


def rational_ladder(rng: random.Random) -> tuple[str, Fraction]:
    """Ladder file over Q whose continued fraction is not 1, and its value."""
    while True:
        ratio = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(3)]
        value = None
        for c in reversed(coeffs):
            value = c * ratio if value is None else c * ratio + 1 / value
        if value != 1:
            spec = {"field": {"kind": "rational"}, "R": str(ratio),
                    "c": [str(c) for c in coeffs]}
            return json.dumps(spec), value


# --- polynomials with known roots ----------------------------------------------------


@dataclass(frozen=True)
class RootedPoly:
    """Integer polynomial built from its roots.

    ``passed`` says whether every root has positive real part; ``caveat``
    is what tilecircuit must attach to a FAIL: irreducibility is only
    settled up to degree 3, and a product of factors is reducible.
    """

    coeffs: tuple[int, ...]   # primitive, lowest degree first
    passed: bool
    caveat: bool

    def text(self) -> str:
        return format_poly(self.coeffs)


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def rooted_poly(rng: random.Random, degree: int) -> RootedPoly:
    """Product of linear (bx - a) and complex-pair quadratic factors."""
    factors = []
    real_parts = []
    used = set()
    remaining = degree
    positive_bias = rng.random() < 0.5
    while remaining:
        lo = 1 if positive_bias else -4
        if remaining >= 2 and rng.random() < 0.5:
            a, b = rng.randint(lo, 5), rng.randint(1, 4)
            if ("q", a, b) in used:
                continue
            used.add(("q", a, b))
            factors.append([a * a + b * b, -2 * a, 1])
            real_parts.append(Fraction(a))
            remaining -= 2
        else:
            r = Fraction(rng.randint(lo, 7), rng.randint(1, 3))
            if ("l", r) in used:
                continue
            used.add(("l", r))
            factors.append([-r.numerator, r.denominator])
            real_parts.append(r)
            remaining -= 1
    coeffs = [1]
    for f in factors:
        coeffs = _mul(coeffs, f)
    passed = all(r > 0 for r in real_parts)
    irreducible = len(factors) == 1
    caveat = not passed and not irreducible
    return RootedPoly(primitive(coeffs), passed, caveat)


def format_poly(coeffs) -> str:
    """Caret syntax accepted by tilecircuit, e.g. 2x^2-6x+3."""
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign_text = "-" if c < 0 else ("+" if out else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else str(mag)) + ("x" if k == 1 else f"x^{k}")
        out += sign_text + body
    return out


def parse_poly_output(s: str) -> tuple[int, ...]:
    """Read tilecircuit's printed polynomial (``2*x^2 - 6*x + 3``)."""
    compact = "".join(s.split())
    coeffs: dict[int, int] = {}
    for sgn, mag, var, power in re.findall(r"([+-]?)(\d*)\*?(x?)(?:\^(\d+))?", compact):
        if not mag and not var:
            continue
        c = int(mag) if mag else 1
        k = (int(power) if power else 1) if var else 0
        coeffs[k] = coeffs.get(k, 0) + (-c if sgn == "-" else c)
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return tuple(out)


def parse_ratfunc_output(s: str) -> tuple[list, list]:
    """Read tilecircuit's printed p(t)/q(t) into coefficient lists."""
    compact = "".join(s.split())
    num_text, den_text = compact, "1"
    if compact.endswith(")") and "/(" in compact:
        cut = compact.rindex("/(")
        num_text, den_text = compact[:cut], compact[cut + 2:-1]
        if num_text.startswith("(") and num_text.endswith(")"):
            num_text = num_text[1:-1]
    return _rational_poly(num_text), _rational_poly(den_text)


def _rational_poly(s: str) -> list:
    coeffs: dict[int, Fraction] = {}
    pieces = re.findall(r"[+-]?[^+-]+", s)
    if not pieces or "".join(pieces) != s:
        raise ValueError(f"unreadable polynomial {s!r}")
    for piece in pieces:
        m = re.fullmatch(r"([+-]?)(\d+(?:/\d+)?)?\*?(t(?:\^(\d+))?)?", piece)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"unreadable term {piece!r}")
        c = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        k = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + (-c if m.group(1) == "-" else c)
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def irreducible_cubic(rng: random.Random, magnitude: int) -> RootedPoly:
    """x^3 + x + c with c near ``magnitude`` and no rational root.

    Its real root is negative, so the verdict is FAIL; a monic integer
    polynomial's rational roots are integers m with m^3 + m = c, and c is
    chosen to avoid them, so no caveat is due.
    """
    while True:
        c = magnitude + rng.randint(0, magnitude // 10)
        m = round(c ** (1 / 3))
        if all(k ** 3 + k != c for k in range(max(0, m - 2), m + 3)):
            return RootedPoly((c, 1, 0, 1), False, False)
