"""The certificate's near-linear scans against the scans they replaced.

``validate_reference.py`` keeps the pairwise ``validate_geometric``, the
per-strip ``extract_cuts`` and the dense ``junction_system`` verbatim.
The library must give the same validation report (``ok`` and every issue,
in order), the same cut structure or the same exception type and message,
and the same junction rows and nonzeros with the same coefficient types.
Inputs are random rectangle sets, exact brick walls with one tile shifted,
mutated wall sketches and the test dissections, over Q and Q(sqrt 2), and
over Q a tiling whose y values have pairwise coprime denominators.

The complexity guard counts, without timing anything, the ``Fraction``
comparisons of ``validate_geometric``, the ``Fraction`` zero tests of
``junction_system``, and the ``Fraction`` sums and products of the
certificate's two checks (``validate_geometric`` and the local laws),
which over Q run on integer grids, on generated walls of 1,040 and 2,000
tiles.
"""

import importlib.util
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import validate_reference as ref
from conftest import tilings
from tilecircuit import (
    Dissection,
    FieldSpec,
    QuadExt,
    Tile,
    extract_cuts,
    junction_system,
    load_dissection,
    solve_sizes,
    validate_geometric,
)
from tilecircuit.correspondence import _obeys_circuit_laws
from tilecircuit.dissection import SKETCH_REL_TOL, _classes
from tilecircuit.fields import _on_grid

Q = FieldSpec.rational()
QSQRT2 = FieldSpec.quadratic(2)


def _grid(field):
    """A small set of coordinates, so that edges often touch or coincide.

    Over Q the halves are joined by values with denominators 3, 7, 11 and
    one above 2**64, and by plain ints, so that the integer grid of each
    axis has a nontrivial common denominator and mixes both types.
    """
    if field is Q:
        return ([Fraction(k, 2) for k in range(-2, 13)]
                + [Fraction(1, 3), Fraction(7, 3), Fraction(3, 7), Fraction(17, 7),
                   Fraction(5, 11), Fraction(2**65 + 3, 2**64 + 13)]
                + [0, 1, 2, 5])
    return [QuadExt(Fraction(a, 2), Fraction(b, 2), 2)
            for a in range(-2, 9) for b in range(-1, 3)]


FIELDS = {"Q": Q, "Q(sqrt2)": QSQRT2}


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


# --- validate_geometric ----------------------------------------------------------


@st.composite
def rect_sets(draw, field):
    """Random rects: nonpositive sides, tiles leaving the big rectangle,
    touching, duplicated and overlapping ones."""
    grid = _grid(field)
    coord = st.sampled_from(grid)
    zero = field.zero
    rects = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["free", "copy", "beside", "above"]))
        if kind != "free" and rects:
            x, y, w, h = draw(st.sampled_from(rects))
            if kind == "beside":
                x = x + w
            elif kind == "above":
                y = y + h
            rects.append((x, y, w, h))
        else:
            rects.append(tuple(draw(coord) for _ in range(4)))
    tiles = []
    for tid, (x, y, w, h) in enumerate(rects, 1):
        aspect = field.one * w / h if w > zero and h > zero else field.one
        if draw(st.booleans()):
            aspect = aspect * 2
        tiles.append(Tile(tid, (0.0, 0.0, 1.0, 1.0), aspect, (x, y, w, h)))
    positive = st.sampled_from([v for v in grid if v > zero])
    return Dissection(field, tiles, big_w=draw(positive), big_h=draw(positive))


def _exact_wall(draw, field, values):
    """Exact rects of a brick wall: rows of bricks, every row as wide."""
    width = draw(values)
    rects = []
    y = field.zero
    for _ in range(draw(st.integers(1, 4))):
        h = draw(values)
        parts = [draw(values) for _ in range(draw(st.integers(1, 4)))]
        whole = sum(parts[1:], parts[0])
        x = field.zero
        for p in parts:
            w = field.one * p * width / whole
            rects.append((x, y, w, h))
            x = x + w
        y = y + h
    return rects, width, y


@st.composite
def shifted_walls(draw, field):
    """A sized wall, valid or with one tile moved, stretched or shrunk."""
    values = st.sampled_from([v for v in _grid(field) if v > field.zero])
    rects, width, height = _exact_wall(draw, field, values)
    k = draw(st.integers(0, len(rects) - 1))
    x, y, w, h = rects[k]
    shift = draw(st.sampled_from(_grid(field))) - draw(st.sampled_from(_grid(field)))
    part = draw(st.sampled_from(["none", "x", "y", "w", "h"]))
    moved = {"none": (x, y, w, h), "x": (x + shift, y, w, h), "y": (x, y + shift, w, h),
             "w": (x, y, w + shift, h), "h": (x, y, w, h + shift)}[part]
    rects[k] = moved
    tiles = [Tile(tid, (0.0, 0.0, 1.0, 1.0),
                  field.one * r[2] / r[3] if r[3] else field.one, r)
             for tid, r in enumerate(rects, 1)]
    tiles = [t if t.aspect > field.zero else Tile(t.tid, t.sketch, field.one, t.rect)
             for t in tiles]
    return Dissection(field, tiles, big_w=width, big_h=height)


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_matches_reference_on_random_rects(field, data):
    d = data.draw(rect_sets(FIELDS[field]))
    assert validate_geometric(d) == ref.validate_geometric(d)


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_matches_reference_on_shifted_walls(field, data):
    d = data.draw(shifted_walls(FIELDS[field]))
    assert validate_geometric(d) == ref.validate_geometric(d)


def test_validate_matches_reference_on_test_tilings():
    for d in tilings().values():
        sized = solve_sizes(d).sized
        assert validate_geometric(sized) == ref.validate_geometric(sized)


def _primes(first, count):
    """``count`` consecutive primes from ``first`` >= 2 on, by trial division."""
    out = []
    k = first
    while len(out) < count:
        if all(k % q for q in range(2, math.isqrt(k) + 1)):
            out.append(k)
        k += 1
    return out


def coprime_tiling(columns, first_prime, move=None):
    """Unit columns side by side, column k cut at height 1/p_k for the k-th
    prime p_k from ``first_prime`` on.  The y values have pairwise coprime
    denominators, so their common denominator grows with the columns.
    ``move`` lifts that tile's cut by a half of its height."""
    tiles = []
    for k, p in enumerate(_primes(first_prime, columns)):
        cut = Fraction(1, p)
        for y, h in ((Fraction(0), cut), (cut, 1 - cut)):
            tid = len(tiles) + 1
            if tid == move:
                y = y + h / 2
            tiles.append(Tile(tid, (float(k), float(y), 1.0, float(h)), 1 / h,
                              (Fraction(k), y, Fraction(1), h)))
    return Dissection(Q, tiles, big_w=Fraction(columns), big_h=Fraction(1))


@pytest.mark.parametrize("move", [None, 1, 2, 301])
def test_validate_matches_reference_past_the_grid_cap(move):
    d = coprime_tiling(300, first_prime=10**6, move=move)
    ys = [v for t in d.tiles for v in (t.rect[1], t.rect[3])]
    (same,), scale = _on_grid(ys)
    assert same is ys and scale == 1  # the y axis passes the cap: as given
    xs = [t.rect[0] for t in d.tiles]
    (ints,), scale = _on_grid(xs)
    assert all(type(x) is int for x in ints) and ints == [x * scale for x in xs]
    report = validate_geometric(d)
    assert report == ref.validate_geometric(d)
    assert report.ok is (move is None)


# --- extract_cuts ------------------------------------------------------------------


def _sketch(rects):
    return [(float(x), float(y), float(x + w) - float(x), float(y + h) - float(y))
            for x, y, w, h in rects]


@st.composite
def mutated_sketches(draw, field):
    """A wall sketch, as drawn or with a gap, an overlap, a top gap or a
    tile collapsed below the sketch tolerance."""
    values = st.sampled_from([v for v in _grid(field) if v > field.zero])
    rects, _, _ = _exact_wall(draw, field, values)
    sketch = _sketch(rects)
    k = draw(st.integers(0, len(sketch) - 1))
    x, y, w, h = sketch[k]
    delta = draw(st.sampled_from([0.25, 0.5, 0.75])) * min(w, h)
    sketch[k] = {
        "none": (x, y, w, h),
        "gap": (x + delta, y, w - delta, h),
        "overlap": (x - delta, y, w + delta, h),
        "top gap": (x, y, w, h - delta),
        "collapse": (x, y, w * 1e-9, h),
    }[draw(st.sampled_from(["none", "gap", "overlap", "top gap", "collapse"]))]
    tids = draw(st.permutations(range(1, len(sketch) + 1)))
    tiles = [Tile(tid, s, field.one) for tid, s in zip(tids, sketch)]
    order = draw(st.permutations(range(len(tiles))))
    return Dissection(field, [tiles[i] for i in order])


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_extract_cuts_matches_reference_on_mutated_sketches(field, data):
    d = data.draw(mutated_sketches(FIELDS[field]))
    assert outcome(extract_cuts, d) == outcome(ref.extract_cuts, d)


def test_extract_cuts_matches_reference_on_test_tilings():
    for d in tilings().values():
        assert outcome(extract_cuts, d) == outcome(ref.extract_cuts, d)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 12),
                                st.sampled_from([0.0, 1e-13, -1e-13, 3e-7, -3e-7])),
                      min_size=1, max_size=30),
       scale=st.sampled_from([0.5, 1.0, 1.5]))
def test_classes_match_reference_near_the_tolerance(steps, scale):
    """Labelling while clustering gives each value the class that
    ``_class_of`` finds among ``_cluster``'s representatives; the values
    are half a tolerance apart, give or take a rounding or a third."""
    values = [1.0 + k * 0.5e-6 + jitter for k, jitter in steps]
    eps = SKETCH_REL_TOL * scale
    reps, labels = _classes(values, eps)
    assert reps == ref._cluster(values, eps)
    assert labels == [ref._class_of(v, reps, eps, "value") for v in values]


# --- junction_system ---------------------------------------------------------------


def assert_same_system(new, old):
    assert new.variables == old.variables
    assert new.rhs == tuple(rhs for _, rhs in old.rows)
    assert len(new.rows) == len(old.rows)
    for (coeffs, rhs), (old_coeffs, old_rhs) in zip(new.rows, old.rows):
        assert coeffs == old_coeffs and rhs == old_rhs
        assert list(map(type, coeffs)) == list(map(type, old_coeffs))
        assert type(rhs) is type(old_rhs)
    assert new.nonzeros == old.nonzeros
    for row, old_row in zip(new.nonzeros, old.nonzeros):
        assert {j: type(c) for j, c in row.items()} == {
            j: type(c) for j, c in old_row.items()}
    assert new == old


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_junction_system_matches_dense_build(field, data):
    spec = FIELDS[field]
    values = st.sampled_from([v for v in _grid(spec) if v > spec.zero])
    rects, _, height = _exact_wall(data.draw, spec, values)
    d = Dissection(spec, [Tile(tid, s, r[2] / r[3]) for tid, (s, r)
                          in enumerate(zip(_sketch(rects), rects), 1)])
    cs = extract_cuts(d)
    side = data.draw(st.sampled_from([None, height]))
    new = junction_system(cs, d.tiles, spec, side)
    old = ref.junction_system(cs, d.tiles, spec, side)
    # the dense view is read last, so the sparse parts are compared unforced
    assert new.nonzeros == old.nonzeros and new.rhs == tuple(b for _, b in old.rows)
    assert_same_system(new, old)


def test_junction_system_matches_dense_build_on_test_tilings():
    for d in tilings().values():
        cs = extract_cuts(d)
        assert_same_system(junction_system(cs, d.tiles, d.field),
                           ref.junction_system(cs, d.tiles, d.field))


# --- complexity guard --------------------------------------------------------------

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
# Fraction comparisons per n log2 n that validate_geometric may make
COMPARISONS_PER_N_LOG_N = 4


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def big_walls():
    gen = _gen()
    return [load_dissection(gen.brick_wall(random.Random(n), n).sized_json())
            for n in (1040, 2000)]


def _counting(monkeypatch, names):
    calls = Counter()
    for name in names:
        def counted(self, *args, _name=name, _original=getattr(Fraction, name)):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(Fraction, name, counted)
    return calls


def test_validate_geometric_makes_n_log_n_comparisons(big_walls, monkeypatch):
    for d in big_walls:
        n = len(d.tiles)
        with monkeypatch.context() as patch:
            calls = _counting(patch, ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"))
            assert validate_geometric(d).ok
        assert sum(calls.values()) < COMPARISONS_PER_N_LOG_N * n * math.log2(n), calls


def test_junction_system_tests_only_nonzeros_for_zero(big_walls, monkeypatch):
    for d in big_walls:
        cs = extract_cuts(d)
        with monkeypatch.context() as patch:
            calls = _counting(patch, ("__bool__",))
            system = junction_system(cs, d.tiles, d.field)
        assert calls["__bool__"] <= sum(len(row) for row in system.nonzeros)


# Fraction products per tile that the two checks of a certificate may
# make between them: the aspect check and Ohm's law
PRODUCTS_PER_TILE = 2


def test_certificate_checks_run_on_the_integer_grid(big_walls, monkeypatch):
    for d in big_walls:
        cs = extract_cuts(d)
        with monkeypatch.context() as patch:
            calls = _counting(patch, ("__add__", "__radd__", "__sub__", "__rsub__",
                                      "__mul__", "__rmul__"))
            assert validate_geometric(d).ok
            assert _obeys_circuit_laws(cs, d)
        sums = ("__add__", "__radd__", "__sub__", "__rsub__")
        assert sum(calls[name] for name in sums) == 0, calls
        assert calls["__mul__"] + calls["__rmul__"] <= PRODUCTS_PER_TILE * len(d.tiles), calls
