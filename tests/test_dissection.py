import math
import random
from fractions import Fraction

import pytest

from conftest import (
    PINWHEEL_RATIO,
    PINWHEEL_SIDES,
    SHELF_SIDES,
    SHELF_X,
    golden_ratio_like,
    make_five_similar,
    make_pinwheel,
    make_shelf,
    make_two_columns,
    make_two_rows,
    random_fraction,
)
from tilecircuit import (
    DehnReport,
    Dissection,
    DissectionError,
    FieldSpec,
    QuadExt,
    SizingError,
    Tile,
    dehn_check,
    dump_dissection,
    extract_cuts,
    format_scalar,
    junction_system,
    load_dissection,
    render_svg,
    solve_sizes,
    validate_geometric,
)


def row_signature(system):
    """Rows as frozen multisets of (variable, coefficient) plus rhs."""
    out = set()
    for coeffs, rhs in system.rows:
        terms = frozenset(
            (var, c) for var, c in zip(system.variables, coeffs) if c != 0
        )
        out.add((terms, rhs))
    return out


def test_shelf_cut_structure():
    cs = extract_cuts(make_shelf())
    # two boundary columns and four interior maximal segments
    assert len(cs.v_nodes) == 6
    assert len(cs.h_cuts) == 6
    left = cs.v_nodes[cs.left_boundary]
    assert left.right_tiles == (3, 4, 9)
    top = cs.h_cuts[cs.top_cut]
    assert top.below_tiles == (2, 3, 8)
    # the tall cut merges collinear touching segments into one node
    widths = {node.nid: node.right_tiles for node in cs.v_nodes}
    assert any(set(t) == {6, 7} for t in widths.values())


def test_two_columns_has_three_nodes():
    cs = extract_cuts(make_two_columns(1, 1))
    assert len(cs.v_nodes) == 3
    assert cs.tile_ends[1] == (cs.left_boundary, 1)
    assert cs.tile_ends[2] == (1, cs.right_boundary)


def test_two_rows_has_two_nodes():
    cs = extract_cuts(make_two_rows(1, 1))
    assert len(cs.v_nodes) == 2
    assert cs.tile_ends[1] == (cs.left_boundary, cs.right_boundary)
    assert cs.tile_ends[2] == (cs.left_boundary, cs.right_boundary)


def test_shelf_junction_system_is_the_ten_equation_system():
    d = make_shelf()
    system = junction_system(extract_cuts(d), d.tiles, d.field)
    one = Fraction(1)

    def row(rhs, **terms):
        return (
            frozenset((f"v{k}" if k != "x" else "x", Fraction(c))
                      for k, c in terms.items()),
            Fraction(rhs),
        )

    expected = {
        # vertical balances (boundary first, then by cut position)
        row(1, **{"3": one, "4": one, "9": one}),
        row(0, **{"4": 1, "1": -1, "5": -1}),
        row(0, **{"1": 1, "3": 1, "2": -1}),
        row(0, **{"5": 1, "9": 1, "6": -1, "7": -1}),
        row(0, **{"2": 1, "6": 1, "8": -1}),
        # top edge and horizontal balances
        row(0, **{"x": 1, "2": -1, "3": -1, "8": -1}),
        row(0, **{"4": 1, "5": 1, "9": -1}),
        row(0, **{"6": 1, "8": 1, "7": -1}),
        row(0, **{"1": 1, "2": 1, "5": -1, "6": -1}),
        row(0, **{"3": 1, "1": -1, "4": -1}),
    }
    assert row_signature(system) == expected
    assert len(system.rows) == 10


# Node and cut numbering, and the order of the junction rows, are part of
# the output: netlist node names and ``Inconsistent.row_index`` follow them.
PINNED_CUTS = {
    "shelf": (
        [(0, (), (3, 4, 9)), (1, (4,), (1, 5)), (2, (1, 3), (2,)),
         (3, (5, 9), (6, 7)), (4, (2, 6), (8,)), (5, (7, 8), ())],
        [(0, (7, 9), ()), (1, (4, 5), (9,)), (2, (6, 8), (7,)),
         (3, (1, 2), (5, 6)), (4, (3,), (1, 4)), (5, (), (2, 3, 8))],
        (0, 5, 0, 5),
        {1: (1, 2), 2: (2, 4), 3: (0, 2), 4: (0, 1), 5: (1, 3), 6: (3, 4),
         7: (3, 5), 8: (4, 5), 9: (0, 3)},
        {1: (3, 4), 2: (3, 5), 3: (4, 5), 4: (1, 4), 5: (1, 3), 6: (2, 3),
         7: (0, 2), 8: (2, 5), 9: (0, 1)},
        [({"v3": "1", "v4": "1", "v9": "1"}, "1"),
         ({"v1": "-1", "v4": "1", "v5": "-1"}, "0"),
         ({"v1": "1", "v2": "-1", "v3": "1"}, "0"),
         ({"v5": "1", "v6": "-1", "v7": "-1", "v9": "1"}, "0"),
         ({"v2": "1", "v6": "1", "v8": "-1"}, "0"),
         ({"v2": "-1", "v3": "-1", "v8": "-1", "x": "1"}, "0"),
         ({"v4": "1", "v5": "1", "v9": "-1"}, "0"),
         ({"v6": "1", "v7": "-1", "v8": "1"}, "0"),
         ({"v1": "1", "v2": "1", "v5": "-1", "v6": "-1"}, "0"),
         ({"v1": "-1", "v3": "1", "v4": "-1"}, "0")],
    ),
    "five_similar": (
        [(0, (), (1, 4)), (1, (1,), (2,)), (2, (4,), (5,)), (3, (2,), (3,)),
         (4, (3, 5), ())],
        [(0, (1, 2, 3), ()), (1, (4, 5), (1, 2, 3)), (2, (), (4, 5))],
        (0, 4, 0, 2),
        {1: (0, 1), 2: (1, 3), 3: (3, 4), 4: (0, 2), 5: (2, 4)},
        {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (1, 2), 5: (1, 2)},
        [({"v1": "1", "v4": "1"}, "1"),
         ({"v1": "1", "v2": "-1"}, "0"),
         ({"v4": "1", "v5": "-1"}, "0"),
         ({"v2": "1", "v3": "-1"}, "0"),
         ({"v4": "-3/2 - 1/2*sqrt(3)", "v5": "-3/2 - 1/2*sqrt(3)", "x": "1"}, "0"),
         ({"v1": "-1 + 1/3*sqrt(3)", "v2": "-1 + 1/3*sqrt(3)",
           "v3": "-1 + 1/3*sqrt(3)", "v4": "3/2 + 1/2*sqrt(3)",
           "v5": "3/2 + 1/2*sqrt(3)"}, "0")],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CUTS))
def test_cut_numbering_and_ordered_junction_rows_are_pinned(name):
    d = {"shelf": make_shelf, "five_similar": make_five_similar}[name]()
    nodes, cuts, boundaries, tile_ends, tile_spans, rows = PINNED_CUTS[name]
    cs = extract_cuts(d)
    assert [(n.nid, n.left_tiles, n.right_tiles) for n in cs.v_nodes] == nodes
    assert [(c.cid, c.above_tiles, c.below_tiles) for c in cs.h_cuts] == cuts
    assert (cs.left_boundary, cs.right_boundary, cs.bottom_cut, cs.top_cut) == boundaries
    assert cs.tile_ends == tile_ends and list(cs.tile_ends) == list(tile_ends)
    assert cs.tile_spans == tile_spans and list(cs.tile_spans) == list(tile_spans)

    system = junction_system(cs, d.tiles, d.field)
    assert system.variables == tuple(f"v{t.tid}" for t in d.tiles) + ("x",)
    field_type = type(d.field.zero)
    got = []
    for coeffs, rhs in system.rows:
        assert all(type(c) is field_type for c in coeffs) and type(rhs) is field_type
        got.append(({v: format_scalar(c) for v, c in zip(system.variables, coeffs) if c},
                    format_scalar(rhs)))
    assert got == rows


@pytest.mark.parametrize("field, aspects", [
    (FieldSpec.rational(), (2, Fraction(1, 2))),
    (FieldSpec.quadratic(2), (Fraction(1, 2), 3)),
], ids=["int over Q", "rational over Q(sqrt2)"])
def test_junction_coefficients_take_the_fields_type(field, aspects):
    """A first coefficient is stored as it is, yet an aspect given as an int
    or a Fraction still enters as an element of the field."""
    d = Dissection(field, [Tile(1, (0, 0, 1, 1), aspects[0]),
                           Tile(2, (1, 0, 1, 1), aspects[1])])
    system = junction_system(extract_cuts(d), d.tiles, d.field)
    field_type = type(field.zero)
    assert all(type(c) is field_type for row in system.nonzeros for c in row.values())


def test_junction_equation_count_invariant():
    for d in (make_shelf(), make_two_columns(1, 2), make_two_rows(1, 2),
              make_pinwheel(), make_five_similar()):
        cs = extract_cuts(d)
        system = junction_system(cs, d.tiles, d.field)
        vertical_rows = len(cs.v_nodes) - 1
        assert len(system.rows) == len(d.tiles) + 1
        # vertical balances: one per interior node plus one boundary row
        interior = len(cs.v_nodes) - 2
        assert vertical_rows == interior + 1


def test_shelf_solution():
    result = solve_sizes(make_shelf())
    assert result.ratio == SHELF_X
    for t in result.sized.tiles:
        assert t.rect[3] == SHELF_SIDES[t.tid]
        assert t.rect[2] == t.rect[3]  # all squares
    assert validate_geometric(result.sized).ok


def test_two_columns_recovers_sum():
    for _ in range(10):
        rng = random.Random(_)
        r1, r2 = random_fraction(rng), random_fraction(rng)
        assert solve_sizes(make_two_columns(r1, r2)).ratio == r1 + r2


def test_two_rows_recovers_harmonic_combination():
    for seed in range(10):
        rng = random.Random(seed)
        r1, r2 = random_fraction(rng), random_fraction(rng)
        assert solve_sizes(make_two_rows(r1, r2)).ratio == r1 * r2 / (r1 + r2)


def test_pinwheel_solution():
    result = solve_sizes(make_pinwheel())
    assert result.ratio == PINWHEEL_RATIO
    for t in result.sized.tiles:
        assert t.rect[3] == PINWHEEL_SIDES[t.tid]


def test_five_similar_solution():
    result = solve_sizes(make_five_similar())
    field = result.sized.field
    assert result.ratio == field.one
    r = golden_ratio_like()
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    for t in result.sized.tiles:
        if t.tid in (1, 2, 3):
            assert t.rect[2] == third          # upright tiles are 1/3 wide
            assert t.rect[3] == r / 3          # and R/3 tall
        else:
            assert t.rect[2] == half           # lying tiles are 1/2 wide
            assert t.rect[3] == 1 - r / 3


def test_sizing_soundness_across_corpus():
    for d in (make_shelf(), make_two_columns(2, 3), make_two_rows(1, 1),
              make_pinwheel(), make_five_similar()):
        result = solve_sizes(d)
        assert validate_geometric(result.sized).ok
        for t in result.sized.tiles:
            assert t.rect[2] == t.aspect * t.rect[3]


def test_scale_equivariance():
    base = solve_sizes(make_pinwheel())
    for s in (Fraction(2), Fraction(3, 7)):
        scaled_input = Dissection(
            base.sized.field,
            [Tile(t.tid, t.sketch, t.aspect) for t in base.sized.tiles],
            big_h=s,
        )
        scaled = solve_sizes(scaled_input)
        assert scaled.ratio == base.ratio
        for t, u in zip(scaled.sized.tiles, base.sized.tiles):
            assert t.rect[3] == u.rect[3] * s


def test_declared_width_contradiction_detected():
    d = Dissection(
        FieldSpec.rational(),
        make_pinwheel().tiles,
        big_w=Fraction(7),  # true solved width is 5/3
    )
    with pytest.raises(SizingError):
        solve_sizes(d)


def test_degenerate_sizing_detected():
    # the pinwheel is a bridge: a lopsided corner ratio drives the middle
    # tile's solved side negative, so no actual tiling exists
    field = FieldSpec.rational()
    tiles = [
        Tile(1, (0.0, 1.0, 2.0, 2.0), Fraction(100)),
        Tile(2, (2.0, 1.0, 1.0, 1.0), Fraction(1)),
        Tile(3, (3.0, 0.0, 2.0, 2.0), Fraction(1)),
        Tile(4, (2.0, 2.0, 3.0, 1.0), Fraction(1)),
        Tile(5, (0.0, 0.0, 3.0, 1.0), Fraction(1)),
    ]
    d = Dissection(field, tiles)
    with pytest.raises(SizingError, match="degenerate"):
        solve_sizes(d)


def test_nonpositive_aspect_rejected():
    field = FieldSpec.rational()
    with pytest.raises(DissectionError):
        Dissection(field, [Tile(1, (0.0, 0.0, 1.0, 1.0), Fraction(0))])
    with pytest.raises(DissectionError):
        Dissection(field, [Tile(1, (0.0, 0.0, 1.0, 1.0), Fraction(-2))])


@pytest.mark.parametrize("coordinate", range(2))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_sketch_rejected(coordinate, value):
    """Refused when built, before any clustering reads the sketch."""
    sketch = [0.0, 0.0, 1.0, 1.0]
    sketch[coordinate] = value
    tiles = [Tile(1, (1.0, 0.0, 1.0, 1.0), Fraction(1)), Tile(2, tuple(sketch), Fraction(1))]
    with pytest.raises(DissectionError, match="^tile 2 has a non-finite sketch coordinate$"):
        Dissection(FieldSpec.rational(), tiles)


def test_validate_geometric_single_tile():
    field = FieldSpec.rational()
    one = field.one
    d = Dissection(
        field,
        [Tile(1, (0.0, 0.0, 1.0, 1.0), one, (field.zero, field.zero, one, one))],
        big_w=one,
        big_h=one,
    )
    assert validate_geometric(d).ok


def test_validate_geometric_catches_overlap():
    # two unit squares both at the origin inside a 2-by-1 rectangle
    field = FieldSpec.rational()
    one = field.one
    zero = field.zero
    d = Dissection(
        field,
        [
            Tile(1, (0.0, 0.0, 1.0, 1.0), one, (zero, zero, one, one)),
            Tile(2, (0.2, 0.2, 1.0, 1.0), one, (zero, zero, one, one)),
        ],
        big_w=Fraction(2),
        big_h=one,
    )
    report = validate_geometric(d)
    assert not report.ok
    assert any("overlap" in issue for issue in report.issues)


def _overlaps_match_all_pairs(field, coordinate):
    # the sweep must report exactly the pairs, in exactly the order, of the
    # all-pairs test -- tiles of nonpositive size included
    rng = random.Random(23)
    for _ in range(200):
        rects = [
            tuple(coordinate(rng) for _ in range(4))
            for _ in range(rng.randint(1, 9))
        ]
        tiles = [
            Tile(k + 1, (0.0, 0.0, 1.0, 1.0), field.one, rect)
            for k, rect in enumerate(rects)
        ]
        d = Dissection(field, tiles, big_w=field.one * 6, big_h=field.one * 6)
        expected = [
            f"tiles {i + 1} and {j + 1} overlap"
            for i, (xi, yi, wi, hi) in enumerate(rects)
            for j, (xj, yj, wj, hj) in enumerate(rects)
            if i < j and xi < xj + wj and xj < xi + wi and yi < yj + hj and yj < yi + hi
        ]
        issues = validate_geometric(d).issues
        assert [issue for issue in issues if "overlap" in issue] == expected


def test_validate_geometric_overlaps_match_all_pairs():
    _overlaps_match_all_pairs(
        FieldSpec.rational(), lambda rng: Fraction(rng.randint(-2, 6), rng.randint(1, 2))
    )


def test_validate_geometric_overlaps_match_all_pairs_over_sqrt2():
    _overlaps_match_all_pairs(
        FieldSpec.quadratic(2),
        lambda rng: QuadExt(Fraction(rng.randint(-2, 6), rng.randint(1, 2)),
                            Fraction(rng.randint(-1, 1), 2), 2),
    )


def test_validate_geometric_catches_area_shortfall():
    field = FieldSpec.rational()
    one = field.one
    zero = field.zero
    d = Dissection(
        field,
        [Tile(1, (0.0, 0.0, 1.0, 1.0), one, (zero, zero, one, one))],
        big_w=Fraction(2),
        big_h=one,
    )
    report = validate_geometric(d)
    assert not report.ok
    assert any("area" in issue for issue in report.issues)



@pytest.mark.parametrize("big_w, big_h", [(0, 1), (1, -1), (-2, 0)])
def test_validate_geometric_checks_the_big_sides_first(big_w, big_h):
    field = FieldSpec.rational()
    one, zero = field.one, field.zero
    tile = Tile(1, (0.0, 0.0, 1.0, 1.0), one, (zero, zero, one, one))
    for tiles in ([], [tile]):
        d = Dissection(field, tiles, big_w=Fraction(big_w), big_h=Fraction(big_h))
        report = validate_geometric(d)
        assert not report.ok
        assert report.issues[0] == "the big rectangle has a nonpositive side"

def test_validate_needs_exact_data():
    d = make_shelf()
    with pytest.raises(DissectionError):
        validate_geometric(d)


def test_dehn_check_shelf():
    report = dehn_check(solve_sizes(make_shelf()).sized)
    assert isinstance(report, DehnReport)
    assert report.all_squares
    assert report.ratio == SHELF_X
    assert report.ratio_is_rational


def test_dehn_check_grid():
    field = FieldSpec.rational()
    tiles = []
    tid = 1
    for i in range(3):
        for j in range(2):
            tiles.append(
                Tile(
                    tid,
                    (float(i), float(j), 1.0, 1.0),
                    field.one,
                    (Fraction(i), Fraction(j), field.one, field.one),
                )
            )
            tid += 1
    d = Dissection(field, tiles, big_w=Fraction(3), big_h=Fraction(2))
    report = dehn_check(d)
    assert report.all_squares and report.ratio == Fraction(3, 2)


def test_dehn_check_rejects_non_squares():
    report = dehn_check(solve_sizes(make_five_similar()).sized)
    assert not report.all_squares
    assert set(report.non_square_tiles) == {1, 2, 3, 4, 5}
    assert not report.ok


def test_dehn_rational_closure_over_corpus():
    # rational aspects force rational sides and a rational big ratio
    for d in (make_shelf(), make_two_columns(1, 2), make_pinwheel()):
        sized = solve_sizes(d).sized
        assert all(isinstance(t.rect[3], Fraction) for t in sized.tiles)
        assert isinstance(sized.big_w / sized.big_h, Fraction)


def test_sketch_gap_rejected():
    field = FieldSpec.rational()
    tiles = [
        Tile(1, (0.0, 0.0, 1.0, 1.0), field.one),
        Tile(2, (1.5, 0.0, 1.0, 1.0), field.one),
    ]
    with pytest.raises(DissectionError):
        extract_cuts(Dissection(field, tiles))


def test_sketch_overlap_rejected():
    field = FieldSpec.rational()
    tiles = [
        Tile(1, (0.0, 0.0, 1.5, 1.0), field.one),
        Tile(2, (1.0, 0.0, 1.0, 1.0), field.one),
    ]
    with pytest.raises(DissectionError):
        extract_cuts(Dissection(field, tiles))


def test_json_round_trip():
    sized = solve_sizes(make_five_similar()).sized
    text = dump_dissection(sized)
    back = load_dissection(text)
    assert back.field == sized.field
    assert back.big_w == sized.big_w and back.big_h == sized.big_h
    for t, u in zip(back.tiles, sized.tiles):
        assert t.tid == u.tid and t.aspect == u.aspect and t.rect == u.rect
    assert dump_dissection(back) == text


def test_render_svg_deterministic():
    sized = solve_sizes(make_shelf()).sized
    first = render_svg(sized)
    second = render_svg(sized)
    assert first == second
    assert first.count("<rect") == 10  # background plus nine tiles
    assert "<text" in first
    with pytest.raises(DissectionError):
        render_svg(make_shelf())


def test_duplicate_ids_rejected():
    field = FieldSpec.rational()
    with pytest.raises(DissectionError):
        Dissection(
            field,
            [
                Tile(1, (0.0, 0.0, 1.0, 1.0), field.one),
                Tile(1, (1.0, 0.0, 1.0, 1.0), field.one),
            ],
        )
