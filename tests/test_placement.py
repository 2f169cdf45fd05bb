"""What ``solve_sizes`` relies on to place the tiles by one pass per axis.

The sizing places each vertical node and horizontal cut (a *segment* of
its axis) at the start of the first tile ending on it plus that tile's
width or height, walking the segments in id order.  That is sound when
segment 0 is the left or bottom boundary, every tile starts on a lower
segment id than it ends on, and every other segment has a tile ending on
it; the cut structures of random sketches must have all three.  In every
sized result, all tiles ending or starting on a segment must then agree on
its position, which the pass itself never compares.  On a vertical node
the potentials make them agree; elsewhere, four-tile points included,
only the geometric validation of the result stands behind it, and this
property checks it.

The sketches are those of ``test_sizing_exactness.py`` (walls, guillotine
cuttings, grids and pinwheels over Q, Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5),
with true or random aspects) and the mutated wall sketches of
``test_sweep_exactness.py`` (gaps, overlaps and collapsed tiles).
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tilings
from test_sizing_exactness import FIELDS, sketches
from test_sweep_exactness import FIELDS as SWEEP_FIELDS, mutated_sketches
from tilecircuit import DissectionError, extract_cuts, solve_sizes


def assert_placeable(d):
    """The three facts the pass relies on, on each axis of d's cuts."""
    try:
        cs = extract_cuts(d)
    except DissectionError:
        return
    assert cs.left_boundary == 0 and cs.bottom_cut == 0
    assert cs.v_nodes[0].left_tiles == () and cs.h_cuts[0].below_tiles == ()
    for ends in (cs.tile_ends, cs.tile_spans):
        assert all(start < end for start, end in ends.values())
    assert all(n.left_tiles for n in cs.v_nodes[1:])
    assert all(c.below_tiles for c in cs.h_cuts[1:])


def assert_positions_agree(d):
    """Every tile ending or starting on a segment, and the big rectangle's
    sides, give that segment one position."""
    try:
        sizing = solve_sizes(d)
    except DissectionError:
        return
    cs, sized = sizing.cuts, sizing.sized
    zero = sized.field.zero
    xs = {cs.left_boundary: [zero], cs.right_boundary: [sized.big_w]}
    ys = {cs.bottom_cut: [zero], cs.top_cut: [sized.big_h]}
    for t in sized.tiles:
        x, y, w, h = t.rect
        left, right = cs.tile_ends[t.tid]
        bottom, top = cs.tile_spans[t.tid]
        for positions, segment, at in ((xs, left, x), (xs, right, x + w),
                                       (ys, bottom, y), (ys, top, y + h)):
            positions.setdefault(segment, []).append(at)
    for positions, count in ((xs, len(cs.v_nodes)), (ys, len(cs.h_cuts))):
        assert sorted(positions) == list(range(count))
        assert all(at == ats[0] for ats in positions.values() for at in ats)


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_sketches_are_placeable_and_agree(field, data):
    d = data.draw(sketches(field))
    assert_placeable(d)
    assert_positions_agree(d)


@pytest.mark.parametrize("field", sorted(SWEEP_FIELDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_sketches_are_placeable_and_agree(field, data):
    d = data.draw(mutated_sketches(SWEEP_FIELDS[field]))
    assert_placeable(d)
    assert_positions_agree(d)


@pytest.mark.parametrize("name, d", sorted(tilings().items()))
def test_test_tilings_are_placeable_and_agree(name, d):
    assert_placeable(d)
    assert_positions_agree(d)
