"""Sketches where four tiles meet at a point size like any other.

The sketches are slabs nested up to three deep whose leaves are grid
blocks, so cross points sit inside the blocks and, where cuts happen to
line up, between them.  Over Q and Q(sqrt 2):

- with their true aspects, a sketch sizes to exactly the drawn rects, its
  certificate is ok, and the certificate runs one Laplacian elimination;
- with two aspects swapped or one scaled, it sizes into a tiling that
  certifies and on which every tile agrees with its neighbours about each
  cut's position, or it is refused by ``SizingError`` as a sizing that
  does not assemble into a tiling or that gives a nonpositive side.

A sized file of nested grids is its rects: one whose sketch merges two
cuts of neighbouring slabs, which sizes from its sketch into overlapping
tiles, certifies.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from conftest import counted_eliminations, sketch_merges_edges
from test_placement import assert_positions_agree
from test_sizing_exactness import FIELDS, _split
from tilecircuit import (
    Dissection,
    FieldSpec,
    QuadExt,
    SizingError,
    Tile,
    certify_equivalence,
    dump_dissection,
    load_dissection,
    solve_sizes,
)

REFUSALS = ("solved sides do not assemble into an exact tiling", "degenerate sizing")


def _block(x, y, widths, heights):
    """The cells of the given column widths times row heights, from (x, y)."""
    rects = []
    for width in widths:
        row_y = y
        for height in heights:
            rects.append((x, row_y, width, height))
            row_y = row_y + height
        x = x + width
    return rects


def _grid(draw, values, x, y, w, h):
    """A block of columns times rows of cells."""
    heights = _split(draw, values, h, draw(st.integers(1, 3)))
    return _block(x, y, _split(draw, values, w, draw(st.integers(1, 3))), heights)


def _slabs(draw, values, x, y, w, h, depth):
    if not depth or draw(st.integers(0, 2)) == 0:
        return _grid(draw, values, x, y, w, h)
    rects = []
    count = draw(st.integers(2, 3))
    if draw(st.booleans()):
        for part in _split(draw, values, w, count):
            rects += _slabs(draw, values, x, y, part, h, depth - 1)
            x = x + part
    else:
        for part in _split(draw, values, h, count):
            rects += _slabs(draw, values, x, y, w, part, depth - 1)
            y = y + part
    return rects


@st.composite
def nested_grids(draw, values):
    """The exact rects of slabs nested up to three deep, grid blocks at the leaves."""
    w, h = draw(values), draw(values)
    zero = w - w
    return _slabs(draw, values, zero, zero, w, h, 3)


def drawn(field, data):
    """Nested grids and their sketch with true aspects and the drawn height.

    The sketch draws each coordinate at its rank among the distinct exact
    coordinates of its axis.  That keeps every order and coincidence, so
    the combinatorics, while no two cuts come closer than the float
    sketch's tolerance (which ROADMAP item 14 is about).
    """
    spec, values = FIELDS[field]
    rects = data.draw(nested_grids(values))
    rank = [{v: k for k, v in enumerate(sorted({r[axis] for r in rects}
                                               | {r[axis] + r[axis + 2] for r in rects}))}
            for axis in (0, 1)]
    tiles = []
    for tid, (x, y, w, h) in enumerate(rects, 1):
        left, bottom = rank[0][x], rank[1][y]
        sketch = (left, bottom, rank[0][x + w] - left, rank[1][y + h] - bottom)
        tiles.append(Tile(tid, tuple(map(float, sketch)), w / h))
    return rects, Dissection(spec, tiles, big_h=max(y + h for _, y, _, h in rects))


@pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_true_aspects_size_to_the_drawn_rects(field, data):
    rects, d = drawn(field, data)
    sizing = solve_sizes(d)
    assert [t.rect for t in sizing.sized.tiles] == rects
    with counted_eliminations() as calls:
        assert certify_equivalence(d).ok
    assert len(calls) == 1


@pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_other_aspects_size_and_certify_or_are_refused(field, data):
    rects, d = drawn(field, data)
    aspects = [t.aspect for t in d.tiles]
    i = data.draw(st.integers(0, len(aspects) - 1))
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, len(aspects) - 1))
        aspects[i], aspects[j] = aspects[j], aspects[i]
    else:
        aspects[i] = aspects[i] * data.draw(FIELDS[field][1])
    d = dataclasses.replace(d, tiles=[dataclasses.replace(t, aspect=a)
                                      for t, a in zip(d.tiles, aspects)])
    try:
        solve_sizes(d)
    except SizingError as exc:
        assert str(exc).startswith(REFUSALS)
        return
    assert certify_equivalence(d).ok
    assert_positions_agree(d)


def test_a_sized_nested_grid_with_cuts_closer_than_the_sketch_tolerance_certifies():
    """Over Q(sqrt 2), a 4x5 grid beside a slab of a 3x3 grid under a 3x4
    one, 41 tiles.  The slab's middle cut lies (sqrt 2 - 1)^14, about
    4.4e-6, above the grid's third row cut, 4.4e-7 of the height 10, so
    the sketch merges the two cuts; its sketch sizes into overlapping
    tiles (ROADMAP item 14)."""
    spec = FieldSpec.quadratic(2)
    one, root = spec.one, QuadExt(0, 1, 2)
    gap = (root - 1) ** 14
    middle = 5 + gap
    rects = (_block(spec.zero, spec.zero, [one, root, one, 2 * one],
                    [root, 2 * one, 3 - root, 2 * one, 3 * one])
             + _block(4 + root, spec.zero, [one, 2 * one, root],
                      [2 * one, 1 + root, middle - 3 - root])
             + _block(4 + root, middle, [2 * one, one, root],
                      [one * 3 / 2, one, root - 1, one * 7 / 2 - root - gap]))
    assert sketch_merges_edges(rects)
    sized = Dissection(spec, [Tile(tid, tuple(map(float, rect)), rect[2] / rect[3], rect)
                              for tid, rect in enumerate(rects, 1)],
                       big_w=7 + 2 * root, big_h=10 * one)
    sized = load_dissection(dump_dissection(sized))
    with counted_eliminations() as calls:
        assert solve_sizes(sized).ratio == (7 + 2 * root) / 10
        assert certify_equivalence(sized).ok
    assert calls == []
