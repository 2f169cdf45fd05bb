"""``solve_sizes`` against the junction-system elimination it replaced.

The library sizes a sketch by one grounded Laplacian solve of the dual
network; ``sizing_reference.py`` solves the junction system with
``gauss_jordan``, propagates both coordinates, and refuses a sketch where
four tiles meet at a point, whose junction system is one equation short.
On every other sketch both must give the same sized dissection, ratio and
cut structure, with the same value types, or raise the same exception
type with the same message.  A sketch with a four-tile point must size
into a tiling that certifies, or be refused by a ``SizingError``.  The
sketches are the test dissections and random brick walls, guillotine
cuttings, pinwheels and grids (which have four-tile points) over Q,
Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5), with their true aspects or random
ones, and with declared sides that are right, wrong or nonpositive.

The Euler count, which tells the sketches with a four-tile point apart, is
checked against ``gauss_jordan`` on the same sketches, and no sizing or
certificate may run ``gauss_jordan`` at all.  A 2x2 grid's sketch sizes.
A certificate runs the Laplacian elimination once, for a sketch's sizing,
and never again for the flow.  A sized tiling is checked on its sketch's
cuts and eliminated never: it is its own sizing, with or without four-tile
points, an aligned grid's sketch sizes to it, and swapping the rects of
two equal tiles is refused.
"""

import dataclasses
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import sizing_reference as ref
import tilecircuit.dissection
from conftest import RATIONAL, counted_eliminations, quadratic, sketch_merges_edges, tilings
from tilecircuit import (
    Dissection,
    DissectionError,
    FieldSpec,
    Inconsistent,
    Parametric,
    QuadExt,
    SizingError,
    Tile,
    certify_equivalence,
    circuit_of_dissection,
    extract_cuts,
    junction_system,
    solve_sizes,
    theorem1_certificate,
    validate_geometric,
)
from tilecircuit.linear import gauss_jordan

FIELDS = {
    "Q": (FieldSpec.rational(), RATIONAL),
    "Q(sqrt2)": (FieldSpec.quadratic(2), quadratic(2)),
    "Q(sqrt3)": (FieldSpec.quadratic(3), quadratic(3)),
    "Q(sqrt5)": (FieldSpec.quadratic(5), quadratic(5)),
}


def outcome(solve, d):
    try:
        result = solve(d)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    sized = result.sized
    types = [tuple(map(type, t.rect)) for t in sized.tiles]
    types += [type(sized.big_w), type(sized.big_h), type(result.ratio)]
    return sized, result.ratio, result.cuts, types


def assert_same(d):
    assert outcome(solve_sizes, d) == outcome(ref.solve_sizes, d)


def has_four_tile_point(d):
    """Whether d's junction system is one equation short (T + 1 unknowns,
    V + H - 2 equations), which by Euler's formula is a point where four
    tiles meet; False when d has no cut structure."""
    try:
        cs = extract_cuts(d)
    except DissectionError:
        return False
    return len(d.tiles) + 1 != len(cs.v_nodes) + len(cs.h_cuts) - 2


def assert_sized_or_refused(d):
    """d sizes into a tiling that certifies, or raises a ``SizingError``."""
    try:
        sizing = solve_sizes(d)
    except SizingError:
        return
    assert validate_geometric(sizing.sized).ok
    assert certify_equivalence(d).ok


# --- sketches: exact rectangles (x, y, w, h) of a big rectangle ---------------


def _split(draw, values, total, count):
    """count positive parts of total, in drawn proportions."""
    parts = [draw(values) for _ in range(count)]
    whole = sum(parts[1:], parts[0])
    return [p * total / whole for p in parts]


@st.composite
def walls(draw, values):
    """Rows of bricks, every row as wide as the others."""
    width = draw(values)
    y = width - width
    rects = []
    for _ in range(draw(st.integers(1, 4))):
        h = draw(values)
        x = y - y
        for w in _split(draw, values, width, draw(st.integers(1, 4))):
            rects.append((x, y, w, h))
            x = x + w
        y = y + h
    return rects


def _guillotine(draw, values, x, y, w, h, depth):
    count = draw(st.integers(1, 3)) if depth else 1
    if count == 1:
        return [(x, y, w, h)]
    rects = []
    if draw(st.booleans()):
        for part in _split(draw, values, w, count):
            rects += _guillotine(draw, values, x, y, part, h, depth - 1)
            x = x + part
    else:
        for part in _split(draw, values, h, count):
            rects += _guillotine(draw, values, x, y, w, part, depth - 1)
            y = y + part
    return rects


@st.composite
def guillotines(draw, values):
    """A rectangle cut into slabs, each slab cut again across."""
    w, h = draw(values), draw(values)
    return _guillotine(draw, values, w - w, w - w, w, h, 2)


@st.composite
def grids(draw, values):
    """Columns times rows of cells: every interior grid point is a four-tile point."""
    widths = [draw(values) for _ in range(draw(st.integers(2, 3)))]
    heights = [draw(values) for _ in range(draw(st.integers(2, 3)))]
    zero = widths[0] - widths[0]
    rects = []
    x = zero
    for w in widths:
        y = zero
        for h in heights:
            rects.append((x, y, w, h))
            y = y + h
        x = x + w
    return rects


@st.composite
def pinwheels(draw, values):
    """Four tiles turning around a middle one: a bridge, so that random
    aspects can drive a side negative."""
    w, h = draw(values), draw(values)
    a, middle, _ = _split(draw, values, w, 3)
    c, high, _ = _split(draw, values, h, 3)
    b, d = a + middle, c + high
    zero = w - w
    return [(zero, c, a, h - c), (a, d, w - a, h - d), (b, zero, w - b, d),
            (zero, zero, b, c), (a, c, middle, high)]


@st.composite
def sketches(draw, field_name):
    """A sketch with true or random aspects, tile ids in random order, and a
    declared vertical side that is absent, positive or not."""
    field, values = FIELDS[field_name]
    rects = draw(st.one_of(walls(values), guillotines(values), grids(values),
                           pinwheels(values)))
    true_aspects = draw(st.booleans())
    ids = draw(st.permutations(range(1, len(rects) + 1)))
    tiles = [
        Tile(tid, tuple(float(c) for c in rect),
             rect[2] / rect[3] if true_aspects else draw(values))
        for tid, rect in zip(ids, rects)
    ]
    kind = draw(st.integers(0, 7))  # mostly none or positive
    big_h = (None if kind < 3 else draw(values) if kind < 6
             else field.zero if kind == 6 else -draw(values))
    return Dissection(field, tiles, big_h=big_h)


def declared_widths(d, scale):
    """d, and d with its solved width declared, and declared times scale."""
    yield d
    result = ref.solve_sizes(dataclasses.replace(d, big_w=None))
    width = result.sized.big_w
    yield dataclasses.replace(d, big_w=width)
    yield dataclasses.replace(d, big_w=width * scale)


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_sketches_match_reference(field, data):
    d = data.draw(sketches(field))
    if has_four_tile_point(d):
        # the reference refuses these, by the Euler count
        assert_sized_or_refused(d)
        return
    assert_same(d)
    try:
        variants = list(declared_widths(d, data.draw(FIELDS[field][1])))
    except DissectionError:
        return
    for variant in variants:
        assert_same(variant)


def sketch_of(d):
    """d without its rects."""
    return dataclasses.replace(d, tiles=[dataclasses.replace(t, rect=None) for t in d.tiles])


@pytest.mark.parametrize("name, d", sorted(tilings().items()))
def test_fixture_dissections_match_reference(name, d):
    """A sketch sizes as the reference sizes it; a sized tiling is its own
    sketch's sizing, kept as it is, and refused once a big side changes."""
    two = d.field.one + d.field.one
    sketch = sketch_of(d)
    for variant in declared_widths(sketch, two):
        assert_same(variant)
        assert_same(dataclasses.replace(variant, big_h=two))
    if d.is_sized:
        assert outcome(solve_sizes, d) == outcome(ref.solve_sizes, sketch)
        assert solve_sizes(d).sized is d
        for variant in (dataclasses.replace(d, big_w=d.big_w * two),
                        dataclasses.replace(d, big_h=d.big_h * two)):
            with pytest.raises(DissectionError, match="^dissection fails geometric validation"):
                solve_sizes(variant)


# --- the Euler count decides what the elimination decided ---------------------


def assert_euler_count_decides(d):
    """Parametric exactly when the unknowns outnumber the equations, and
    never inconsistent; there are never more equations than unknowns."""
    try:
        cs = extract_cuts(d)
    except DissectionError:
        return
    unknowns = len(d.tiles) + 1
    equations = len(cs.v_nodes) + len(cs.h_cuts) - 2
    solved = gauss_jordan(junction_system(cs, d.tiles, d.field))
    assert unknowns >= equations
    assert not isinstance(solved, Inconsistent)
    assert isinstance(solved, Parametric) == (unknowns > equations)


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_euler_count_decides_random_junction_systems(field, data):
    assert_euler_count_decides(data.draw(sketches(field)))


@pytest.mark.parametrize("name, d", sorted(tilings().items()))
def test_euler_count_decides_fixture_junction_systems(name, d):
    assert_euler_count_decides(d)


def test_a_two_by_two_grid_is_one_equation_short():
    """The junction system of a 2x2 grid is Parametric, yet its network
    sizes it: four 1/2 squares."""
    field = FieldSpec.rational()
    d = Dissection(field, [
        Tile(tid, (float(x), float(y), 1.0, 1.0), field.one)
        for tid, (x, y) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1)), start=1)
    ])
    cs = extract_cuts(d)
    assert len(d.tiles) + 1 == len(cs.v_nodes) + len(cs.h_cuts) - 2 + 1
    assert_euler_count_decides(d)
    half = Fraction(1, 2)
    sizing = solve_sizes(d)
    assert [t.rect for t in sizing.sized.tiles] == [
        (x * half, y * half, half, half) for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))]
    assert sizing.ratio == 1
    assert certify_equivalence(d).ok


# --- no elimination of a general linear system on the pipeline ---------------


@pytest.fixture
def gauss_jordan_calls(monkeypatch):
    """Every module-level ``gauss_jordan`` of the package, counted."""
    calls = []
    for name, module in list(sys.modules.items()):
        original = getattr(module, "gauss_jordan", None)
        if name.split(".")[0] == "tilecircuit" and original is not None:
            def counted(system, original=original):
                calls.append(system)
                return original(system)
            monkeypatch.setattr(module, "gauss_jordan", counted)
    return calls


@pytest.mark.parametrize("name, d", sorted(tilings().items()))
def test_sizing_and_certificates_call_no_gauss_jordan(name, d, gauss_jordan_calls):
    solve_sizes(d)
    assert certify_equivalence(d).ok
    if name in ("five_similar", "ladder_sqrt3"):
        theorem1_certificate(d)
    assert gauss_jordan_calls == []
    # the counter sees a call made through the package
    cs = extract_cuts(d)
    tilecircuit.dissection.gauss_jordan(junction_system(cs, d.tiles, d.field))
    assert len(gauss_jordan_calls) == 1


# --- one Laplacian elimination per certificate --------------------------------


@pytest.mark.parametrize("name, d", sorted(tilings().items()))
def test_one_laplacian_elimination_per_certificate(name, d):
    """One for a sketch's sizing; none for a sized tiling, which is checked."""
    with counted_eliminations() as calls:
        assert certify_equivalence(d).ok
    assert len(calls) == (0 if d.is_sized else 1)


@pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_laplacian_elimination_per_wall_certificate(field, data):
    """Brick walls with their true aspects, joints that line up across rows
    (four-tile points) included."""
    spec, values = FIELDS[field]
    rects = data.draw(walls(values))
    d = Dissection(spec, [Tile(tid, tuple(float(c) for c in rect), rect[2] / rect[3])
                          for tid, rect in enumerate(rects, 1)])
    try:
        solve_sizes(d)
    except DissectionError as exc:
        # a brick thinner than the sketch tolerance collapses: ROADMAP item
        # 14, pinned by test_a_wall_with_a_thin_brick_sizes
        assume(not COLLAPSE.fullmatch(str(exc)))
        raise
    with counted_eliminations() as calls:
        assert certify_equivalence(d).ok
    assert len(calls) == 1


# --- a sized file is checked, not solved ----------------------------------------


def sized_from(spec, rects):
    """The exact tiling of the rects, drawn as its own sketch."""
    top = max(r[1] + r[3] for r in rects)
    tiles = [Tile(tid, tuple(float(c) for c in rect), rect[2] / rect[3], rect)
             for tid, rect in enumerate(rects, 1)]
    return Dissection(spec, tiles, big_w=rects[-1][0] + rects[-1][2], big_h=top)


@pytest.mark.parametrize("name, d", sorted(tilings().items()))
def test_only_a_sketch_is_solved(name, d, monkeypatch):
    """Every reader of sizes sizes a sketch by one grounded Laplacian solve
    and a sized tiling by none; only theorem 1's symbolic resistance, which
    it computes in both cases, eliminates then."""
    sketch, sized = sketch_of(d), solve_sizes(d).sized
    sizings = []
    potentials = tilecircuit.dissection.laplacian_potentials
    monkeypatch.setattr(tilecircuit.dissection, "laplacian_potentials",
                        lambda *args: sizings.append(args) or potentials(*args))
    readers = [solve_sizes, certify_equivalence, circuit_of_dissection]
    if name in ("five_similar", "ladder_sqrt3"):
        readers.append(theorem1_certificate)
    for reader in readers:
        for given, count in ((sketch, 1), (sized, 0)):
            sizings.clear()
            with counted_eliminations() as calls:
                reader(given)
            assert len(sizings) == count
            if reader is not theorem1_certificate:
                assert len(calls) == count


@pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_sizing_is_its_own_sizing(field, data):
    """Reading a sizing back gives it again, types included, and solves nothing."""
    spec, values = FIELDS[field]
    rects = data.draw(walls(values))
    assume(not sketch_merges_edges(rects))
    sized = sized_from(spec, rects)
    sketch = dataclasses.replace(
        sized, tiles=[dataclasses.replace(t, rect=None) for t in sized.tiles], big_w=None)
    sizing = solve_sizes(sketch)
    assert sizing.sized == sized
    with counted_eliminations() as calls:
        again = outcome(solve_sizes, sizing.sized)
    assert calls == []
    assert again == outcome(lambda _: sizing, None)


@pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_sized_wall_certifies_without_elimination(field, data):
    """Walls, and grids, whose joints all line up: a grid's sketch sizes to
    the grid, four-tile points and all, and the sized file is kept."""
    spec, values = FIELDS[field]
    aligned = data.draw(st.booleans())
    sized = sized_from(spec, data.draw(grids(values) if aligned else walls(values)))
    try:
        extract_cuts(sized)
    except DissectionError as exc:
        assume(not COLLAPSE.fullmatch(str(exc)))
        raise
    if aligned:
        sketch = dataclasses.replace(
            sized, tiles=[dataclasses.replace(t, rect=None) for t in sized.tiles])
        assert solve_sizes(sketch).sized == sized
    with counted_eliminations() as calls:
        assert certify_equivalence(sized).ok
        assert solve_sizes(sized).sized is sized
    assert calls == []


@pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_swapped_equal_tiles_are_refused(field, data):
    """A wall's bottom row laid again on top: a brick and its copy have the
    same size, so swapping their rects leaves a valid tiling that is not
    the one the sketch sizes to."""
    spec, values = FIELDS[field]
    rects = data.draw(walls(values))
    bottom = [r for r in rects if r[1] == rects[0][1]]
    top = max(r[1] + r[3] for r in rects)
    rects += [(x, top, w, h) for x, _, w, h in bottom]
    a = data.draw(st.integers(0, len(bottom) - 1))
    b = len(rects) - len(bottom) + a
    sized = sized_from(spec, rects)
    try:
        extract_cuts(sized)
    except DissectionError as exc:
        assume(not COLLAPSE.fullmatch(str(exc)))
        raise
    tiles = list(sized.tiles)
    tiles[a], tiles[b] = (dataclasses.replace(tiles[a], rect=rects[b]),
                          dataclasses.replace(tiles[b], rect=rects[a]))
    swapped = dataclasses.replace(sized, tiles=tiles)
    assert validate_geometric(swapped).ok
    message = f"^tile {a + 1}'s rect is not the one its sketch sizes to$"
    for check in (solve_sizes, certify_equivalence, circuit_of_dissection):
        with pytest.raises(DissectionError, match=message):
            check(swapped)


COLLAPSE = re.compile(r"tile \d+ collapses at sketch tolerance")
# the width of a brick that the wall strategy drew over Q(sqrt 2): about
# 1.5e-6, below the float sketch's tolerance on a wall 2 wide
THIN_BRICK = QuadExt(Fraction(370281, 191816), Fraction(-65457, 47954), 2)


@pytest.mark.xfail(raises=DissectionError, strict=True,
                   reason="the float sketch collapses the brick (ROADMAP item 14)")
def test_a_wall_with_a_thin_brick_sizes():
    spec = FieldSpec.quadratic(2)
    width = spec.one * 2
    rects = [(spec.zero, spec.zero, width - THIN_BRICK, spec.one),
             (width - THIN_BRICK, spec.zero, THIN_BRICK, spec.one)]
    d = Dissection(spec, [Tile(tid, tuple(float(c) for c in rect), rect[2] / rect[3])
                          for tid, rect in enumerate(rects, 1)])
    sizing = solve_sizes(d)
    assert [t.rect for t in sizing.sized.tiles] == rects
