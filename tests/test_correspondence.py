import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    corpus,
    counted_eliminations,
    golden_ratio_like,
    make_five_similar,
    make_pinwheel,
    make_shelf,
    make_two_columns,
    make_two_rows,
    sketch_merges_edges,
    tilings,
)
from tilecircuit import (
    Battery,
    CorrespondenceError,
    Dissection,
    DissectionError,
    FieldSpec,
    InputError,
    LadderError,
    LadderSpec,
    Netlist,
    QuadExt,
    RatFunc,
    Resistor,
    Tile,
    certify_equivalence,
    cf_eval,
    circuit_of_dissection,
    infer_ratio,
    ladder_dissection,
    ladder_from_json,
    ladder_to_json,
    replace_resistor_with_network,
    resistance,
    solve_flow,
    solve_sizes,
    stretch,
    symbolic_resistance,
    theorem1_certificate,
    validate_geometric,
)
from tilecircuit import correspondence


def test_shelf_circuit_shape():
    net = circuit_of_dissection(make_shelf())
    assert len(net.resistors) == 9
    assert len(net.nodes) == 6
    assert net.battery.plus == "L" and net.battery.minus == "R"
    assert net.battery.voltage == Fraction(33, 32)
    # every square has resistance 1
    assert all(r.value == 1 for r in net.resistors)


def test_shelf_circuit_all_ones_unit_battery():
    # classic normalization: unit resistances, unit voltage
    base = circuit_of_dissection(make_shelf())
    unit = Netlist(base.resistors, Battery("L", "R", Fraction(1)))
    flow = solve_flow(unit)
    assert flow.total_resistance == Fraction(33, 32)
    assert flow.battery_current == Fraction(32, 33)


def test_shelf_circuit_all_symbolic():
    # every resistance replaced by t: scaling all resistances scales the
    # total resistance linearly, so the formula is (33/32) t; cross-checked
    # by evaluation
    base = circuit_of_dissection(make_shelf())
    t = RatFunc.t()
    sym = Netlist(
        [Resistor(r.rid, r.node_a, r.node_b, t) for r in base.resistors],
        Battery("L", "R", RatFunc.constant(1)),
    )
    formula = symbolic_resistance(sym)
    assert formula == t * Fraction(33, 32)
    for t0 in (Fraction(1), Fraction(2), Fraction(3)):
        unit = Netlist(
            [Resistor(r.rid, r.node_a, r.node_b, t0) for r in base.resistors],
            Battery("L", "R", Fraction(1)),
        )
        assert formula.eval(t0) == resistance(unit)


def test_shelf_circuit_composition_keeps_battery_current():
    # swapping one unit square's resistor for an equivalent pair leaves the
    # battery current at 32/33 under the unit normalization
    base = circuit_of_dissection(make_shelf())
    unit = Netlist(base.resistors, Battery("L", "R", Fraction(1)))
    inner = Netlist(
        [Resistor(1, "p", "q", Fraction(2)), Resistor(2, "p", "q", Fraction(2))],
        Battery("p", "q", Fraction(1)),
    )
    merged = replace_resistor_with_network(unit, 5, inner)
    assert solve_flow(merged).battery_current == Fraction(32, 33)


def test_two_columns_circuit_is_series():
    net = circuit_of_dissection(make_two_columns(Fraction(1, 2), Fraction(3, 2)))
    assert len(net.resistors) == 2
    assert len(net.nodes) == 3
    assert resistance(net) == Fraction(2)


def test_two_rows_circuit_is_parallel():
    net = circuit_of_dissection(make_two_rows(Fraction(1), Fraction(1)))
    assert len(net.resistors) == 2
    assert len(net.nodes) == 2
    assert resistance(net) == Fraction(1, 2)


def test_equivalence_across_corpus():
    for name, d in corpus().items():
        report = certify_equivalence(d)
        assert report.ok, f"{name}: {report.mismatches()}"


def test_equivalence_shelf_details():
    report = certify_equivalence(make_shelf())
    assert report.battery_current == 1
    assert report.resistance == Fraction(33, 32)
    assert report.systems_agree
    sides = {t.tile: t.current for t in report.tiles}
    assert sides[7] == Fraction(9, 16)


def test_single_square_equivalence():
    field = FieldSpec.rational()
    d = Dissection(field, [Tile(1, (0.0, 0.0, 1.0, 1.0), field.one)])
    report = certify_equivalence(d)
    assert report.ok
    assert report.battery_current == 1
    assert report.resistance == 1


DISAGREE = "junction and Kirchhoff systems disagree on a solution"


def certify_corrupted(monkeypatch, d, corrupt):
    """certify_equivalence of d, its sizing passed through corrupt() first."""
    size = correspondence.solve_sizes

    def corrupted(d):
        sizing = size(d)
        return dataclasses.replace(sizing, sized=corrupt(sizing.sized))

    monkeypatch.setattr(correspondence, "solve_sizes", corrupted)
    return certify_equivalence(d)


def shifted(sized, tid, index, delta):
    """sized with rect[index] of tile tid moved by delta."""
    def move(t):
        rect = list(t.rect)
        rect[index] += delta
        return dataclasses.replace(t, rect=tuple(rect))

    return dataclasses.replace(
        sized, tiles=[move(t) if t.tid == tid else t for t in sized.tiles]
    )


def test_certificate_refuses_a_changed_height(monkeypatch):
    """Current is not conserved, and the tile breaks Ohm's law."""
    report = certify_corrupted(
        monkeypatch, make_shelf(), lambda s: shifted(s, 7, 3, Fraction(1, 32))
    )
    assert not report.systems_agree
    assert report.mismatches() == ("tile 7: side 19/32 != current 9/16", DISAGREE)


def test_certificate_refuses_a_moved_tile(monkeypatch):
    """Tile 7's terminals get potentials no other tile there gives them."""
    report = certify_corrupted(
        monkeypatch, make_shelf(), lambda s: shifted(s, 7, 0, Fraction(1, 32))
    )
    assert not report.systems_agree
    assert report.mismatches() == (DISAGREE,)


def test_certificate_refuses_a_changed_big_height(monkeypatch):
    """The battery current is not conserved at the terminals."""
    report = certify_corrupted(
        monkeypatch, make_shelf(), lambda s: dataclasses.replace(s, big_h=s.big_h * 2)
    )
    assert not report.systems_agree
    assert report.mismatches() == ("battery current 1 != big vertical side 2", DISAGREE)


def test_certificate_refuses_heights_that_break_ohms_law(monkeypatch):
    """A circulation through the two parallel tiles conserves current, but
    neither tile obeys Ohm's law any more."""
    delta = Fraction(1, 10)
    report = certify_corrupted(
        monkeypatch, make_two_rows(Fraction(1), Fraction(2)),
        lambda s: shifted(shifted(s, 1, 3, delta), 2, 3, -delta),
    )
    assert not report.systems_agree
    assert report.mismatches() == (
        "tile 1: side 23/30 != current 2/3",
        "tile 2: side 7/30 != current 1/3",
        DISAGREE,
    )


def test_certificate_checks_the_rects_of_a_sized_dissection():
    """A sized dissection is certified only when its rects tile the big
    rectangle and are the rects its sketch sizes to."""
    sized = solve_sizes(make_shelf()).sized
    assert certify_equivalence(sized).ok
    with pytest.raises(DissectionError, match="^dissection fails geometric "
                       "validation: tile 7 violates its aspect ratio;"):
        certify_equivalence(shifted(sized, 7, 3, Fraction(1, 32)))
    # tile 2 (height 1/3) below tile 1 (height 2/3), drawn the other way up
    rows = solve_sizes(make_two_rows(1, 2)).sized
    swapped = shifted(shifted(rows, 1, 1, Fraction(-1, 3)), 2, 1, Fraction(2, 3))
    assert validate_geometric(swapped).ok
    with pytest.raises(DissectionError,
                       match="^tile 1's rect is not the one its sketch sizes to$"):
        certify_equivalence(swapped)


@pytest.mark.parametrize("corrupt", [
    lambda s: shifted(s, 7, 3, Fraction(1, 32)),
    lambda s: shifted(s, 7, 0, Fraction(1, 32)),
    lambda s: dataclasses.replace(s, big_h=s.big_h * 2),
], ids=["height", "position", "big height"])
def test_a_refused_certificate_solves_the_flow_to_name_the_mismatch(monkeypatch, corrupt):
    with counted_eliminations() as calls:
        report = certify_corrupted(monkeypatch, make_shelf(), corrupt)
    assert not report.ok
    assert len(calls) == 2


@pytest.mark.parametrize("name, d", sorted(tilings().items()))
def test_certified_sizes_are_the_flow(name, d):
    """The report reads the currents off the heights; they are the currents
    the flow solve gives, of the same type."""
    report = certify_equivalence(d)
    sizing = solve_sizes(d)
    flow = solve_flow(circuit_of_dissection(sizing.sized))
    pairs = [(t.current, flow.edge_current[t.tile]) for t in report.tiles]
    pairs += [(report.battery_current, flow.battery_current),
              (report.resistance, flow.total_resistance)]
    assert [(a, type(a)) for a, _ in pairs] == [(b, type(b)) for _, b in pairs]


def test_smith_duality_resistance_equals_ratio():
    for name, d in corpus().items():
        sizing = solve_sizes(d)
        net = circuit_of_dissection(sizing.sized)
        assert resistance(net) == sizing.sized.big_w / sizing.sized.big_h, name


def test_stretch_identity_and_inverse():
    d = make_pinwheel()
    assert stretch(d, Fraction(1)).tiles == d.tiles
    r = Fraction(3, 2)
    back = stretch(stretch(d, r), 1 / r)
    for t, u in zip(back.tiles, d.tiles):
        assert t.aspect == u.aspect


def test_stretch_square_tiling_by_its_ratio():
    d = make_five_similar()
    r = golden_ratio_like()
    widened = stretch(solve_sizes(d).sized, r)
    # ratio-R tiles become ratio R^2, ratio-1/R tiles become squares
    aspects = {t.aspect for t in widened.tiles}
    assert aspects == {r * r, QuadExt(1, 0, 3)}
    assert widened.big_w / widened.big_h == r


def test_stretch_requires_positive_factor():
    with pytest.raises(CorrespondenceError):
        stretch(make_pinwheel(), Fraction(-1))


def test_infer_ratio():
    assert infer_ratio(make_five_similar()) == golden_ratio_like()
    field = FieldSpec.rational()
    d = Dissection(field, [Tile(1, (0.0, 0.0, 1.0, 1.0), field.one)])
    assert infer_ratio(d) == 1
    with pytest.raises(CorrespondenceError):
        infer_ratio(make_pinwheel())  # aspects 1 and 3 are not {R, 1/R}


def test_certificate_five_similar():
    d = make_five_similar()
    r = golden_ratio_like()
    cert = theorem1_certificate(d, r)
    assert not cert.is_zero
    assert cert.eval(r) == 0
    # three squares in series parallel to two t-resistors in series:
    # W(t) = 6t/(2t+3), so F(x) = (2x^2+3)x - 6x^2 up to normalization
    assert cert.coeffs == (0, 3, -6, 2)


def test_certificate_trivial_square():
    field = FieldSpec.rational()
    d = Dissection(field, [Tile(1, (0.0, 0.0, 1.0, 1.0), field.one)])
    cert = theorem1_certificate(d, Fraction(1))
    assert cert.coeffs == (-1, 1)  # x - 1
    assert cert.eval(Fraction(1)) == 0


def test_certificate_brick_pair():
    # unit square as two stacked 2:1 bricks; W(t) = t/2 by hand
    field = FieldSpec.rational()
    d = Dissection(
        field,
        [
            Tile(1, (0.0, 0.0, 1.0, 0.5), Fraction(2)),
            Tile(2, (0.0, 0.5, 1.0, 0.5), Fraction(2)),
        ],
    )
    cert = theorem1_certificate(d, Fraction(2))
    assert cert.eval(Fraction(2)) == 0
    assert cert.coeffs == (0, -2, 1)  # x^2 - 2x


def test_certificate_requires_square():
    with pytest.raises(CorrespondenceError):
        theorem1_certificate(make_pinwheel(), Fraction(1))


def test_certificate_rejects_foreign_aspects():
    d = make_five_similar()
    with pytest.raises(CorrespondenceError):
        theorem1_certificate(d, QuadExt(2, 1, 3))


def test_certificate_degree_bound():
    for d, r in (
        (make_five_similar(), golden_ratio_like()),
        (
            Dissection(
                FieldSpec.rational(),
                [
                    Tile(1, (0.0, 0.0, 1.0, 0.5), Fraction(2)),
                    Tile(2, (0.0, 0.5, 1.0, 0.5), Fraction(2)),
                ],
            ),
            Fraction(2),
        ),
    ):
        cert = theorem1_certificate(d, r)
        assert cert.degree <= 2 * len(d.tiles) + 1


def test_cf_eval_base_cases():
    field = FieldSpec.rational()
    assert cf_eval(LadderSpec(field, Fraction(1), (Fraction(1),))) == 1
    assert cf_eval(LadderSpec(field, Fraction(2), (Fraction(1, 2),))) == 1
    assert cf_eval(LadderSpec(field, Fraction(2), (Fraction(1, 4),))) == Fraction(1, 2)


def test_cf_eval_golden_case():
    field = FieldSpec.quadratic(3)
    spec = LadderSpec(field, golden_ratio_like(), (Fraction(1, 3), Fraction(2)))
    assert cf_eval(spec) == 1


def test_ladder_single_square():
    field = FieldSpec.rational()
    d = ladder_dissection(LadderSpec(field, Fraction(1), (Fraction(1),)))
    assert len(d.tiles) == 1
    assert validate_geometric(d).ok


def test_ladder_two_stacked():
    field = FieldSpec.rational()
    d = ladder_dissection(LadderSpec(field, Fraction(2), (Fraction(1, 2),)))
    assert len(d.tiles) == 2
    assert all(t.aspect == 2 for t in d.tiles)
    assert all(t.rect[2] == 1 and t.rect[3] == Fraction(1, 2) for t in d.tiles)


def test_ladder_golden_case():
    field = FieldSpec.quadratic(3)
    r = golden_ratio_like()
    spec = LadderSpec(field, r, (Fraction(1, 3), Fraction(2)))
    d = ladder_dissection(spec)
    assert len(d.tiles) == 1 * 3 + 2 * 1
    assert validate_geometric(d).ok
    inv = 1 / r
    assert all(t.aspect == r or t.aspect == inv for t in d.tiles)
    assert solve_sizes(d).ratio == 1


def _squarefree_split(n: int):
    """n = s^2 * d with d squarefree."""
    s, d = 1, 1
    k = 2
    while k * k <= n:
        while n % (k * k) == 0:
            s *= k
            n //= k * k
        if n % k == 0:
            d *= k
            n //= k
        k += 1
    return s, d * n


def assert_sketch_round_trip(tiling):
    """The ladder tiling without its rects and big sides sizes to exactly
    its rects, certifies, and gives the tiling's theorem-1 polynomial."""
    sketch = Dissection(tiling.field, [dataclasses.replace(t, rect=None) for t in tiling.tiles])
    sizing = solve_sizes(sketch)
    assert [t.rect for t in sizing.sized.tiles] == [t.rect for t in tiling.tiles]
    assert certify_equivalence(sketch).ok
    ratio = infer_ratio(tiling)
    assert theorem1_certificate(sketch, ratio) == theorem1_certificate(tiling, ratio)


# each ladder's theorem-1 polynomial
LADDERS = {
    "R = 7/5, c = [5/7]": (
        FieldSpec.rational(), Fraction(7, 5), (Fraction(5, 7),), "5*x^2 - 7*x"),
    "R = 2+sqrt3, c = (1/4, 4)": (
        FieldSpec.quadratic(3), QuadExt(Fraction(2), Fraction(1), 3),
        (Fraction(1, 4), Fraction(4)), "x^2 - 4*x + 1"),
    "R = 1+sqrt2/2, c = (1/2, 4)": (
        FieldSpec.quadratic(2), QuadExt(Fraction(1), Fraction(1, 2), 2),
        (Fraction(1, 2), Fraction(4)), "2*x^2 - 4*x + 1"),
    "R = (3+sqrt3)/2, c = (1/3, 2)": (
        FieldSpec.quadratic(3), golden_ratio_like(),
        (Fraction(1, 3), Fraction(2)), "2*x^2 - 6*x + 3"),
}


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_a_ladder_sizes_from_its_sketch(name):
    field, r, coefficients, polynomial = LADDERS[name]
    tiling = ladder_dissection(LadderSpec(field, r, coefficients))
    assert theorem1_certificate(tiling, infer_ratio(tiling)).format("x") == polynomial
    assert_sketch_round_trip(tiling)


def unit_grid(columns, rows):
    """The unit square cut into columns by rows of equal tiles, of aspect
    rows/columns: a four-tile point at every inner corner."""
    w, h = Fraction(1, columns), Fraction(1, rows)
    tiles = []
    for col in range(columns):
        for row in range(rows):
            rect = (w * col, h * row, w, h)
            tiles.append(Tile(len(tiles) + 1, tuple(map(float, rect)), w / h, rect))
    return Dissection(FieldSpec.rational(), tiles, big_w=Fraction(1), big_h=Fraction(1))


def test_a_grid_sizes_from_its_sketch():
    """The 5-by-7 grid of ratio-7/5 tiles: the slab of c = [5/7] cut into
    35 cells instead of Euclid's 5 squares."""
    tiling = unit_grid(5, 7)
    assert theorem1_certificate(tiling, infer_ratio(tiling)).format("x") == "5*x^2 - 7*x"
    assert_sketch_round_trip(tiling)


def partial_quotient_sum(c: Fraction) -> int:
    """The terms of c's regular continued fraction, added up: the squares
    of Euclid's tiling of a p-by-q rectangle, c = p/q."""
    count = 0
    while c:
        whole = math.floor(c)
        count += whole
        c -= whole
        if c:
            c = 1 / c
    return count


def test_a_slab_is_tiled_by_euclid():
    spec = LadderSpec(FieldSpec.rational(), Fraction(99, 101), (Fraction(101, 99),))
    tiling = ladder_dissection(spec)
    assert len(tiling.tiles) == partial_quotient_sum(Fraction(101, 99)) == 52
    assert validate_geometric(tiling).ok
    assert all(t.aspect == Fraction(99, 101) for t in tiling.tiles)


# p/q with 1 < p, q <= 40
COEFFICIENTS = sorted({Fraction(p, q) for p in range(2, 41) for q in range(2, 41)
                       if math.gcd(p, q) == 1})


def coefficients(above=0):
    return st.sampled_from(COEFFICIENTS).filter(lambda c: c > above)


@st.composite
def two_slab_ladders(draw, field_name):
    """c = (c1, c2), c1 R + 1/(c2 R) = 1, each c_k = p/q with p, q > 1.

    Over Q, R and c2 are drawn and c1 = (c2 R - 1) / (c2 R^2).  Over
    Q(sqrt d), c1 and c2 are drawn and R is either root of
    c1 c2 R^2 - c2 R + 1, irrational when the discriminant c2^2 - 4 c1 c2
    is not a square."""
    top = COEFFICIENTS[-1]
    if field_name == "Q":
        field, r = FieldSpec.rational(), draw(coefficients(above=1 / top))
        c2 = draw(coefficients(above=1 / r))
        c1 = (c2 * r - 1) / (c2 * r * r)
        assume(c1.numerator > 1 and c1.denominator > 1)
    else:
        c1 = draw(coefficients().filter(lambda c: 4 * c < top))
        c2 = draw(coefficients(above=4 * c1))
        disc = c2 * c2 - 4 * c1 * c2
        s, d = _squarefree_split(disc.numerator * disc.denominator)
        assume(d > 1)
        field, sign = FieldSpec.quadratic(d), draw(st.sampled_from((1, -1)))
        r = QuadExt(c2, sign * Fraction(s, disc.denominator), d) / (2 * c1 * c2)
    assume(partial_quotient_sum(c1) + partial_quotient_sum(c2) <= 300)
    return LadderSpec(field, r, (c1, c2))


@pytest.mark.parametrize("field", ["Q", "Q(sqrt d)"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_ladder_tiles_each_slab_by_euclid(field, data):
    """The tiles are Euclid's squares of each slab, and the tiling sizes
    from its sketch, certifies and gives a polynomial with R as a root.  A
    sketch that merges two cuts (ROADMAP item 14) is set aside."""
    spec = data.draw(two_slab_ladders(field))
    assert cf_eval(spec) == 1
    tiling = ladder_dissection(spec)
    assert len(tiling.tiles) == sum(map(partial_quotient_sum, spec.coefficients))
    assert validate_geometric(tiling).ok
    r = spec.ratio
    assert all(t.aspect == r or t.aspect == 1 / r for t in tiling.tiles)
    assume(not sketch_merges_edges([t.rect for t in tiling.tiles]))
    assert certify_equivalence(tiling).ok
    assert_sketch_round_trip(tiling)
    assert theorem1_certificate(tiling, r).eval(r) == 0


def test_ladder_soundness_random():
    # two-rung ladders c = (c1, c2) of any positive rationals: the value-1
    # identity c1 R + 1/(c2 R) = 1 pins R as a root of
    # c1 c2 R^2 - c2 R + 1, generally in a quadratic field; both roots are
    # positive once c2 > 4 c1.  A coefficient p/q tiles its slab by
    # Euclid's squares, one per unit of each partial quotient.
    rng = random.Random(23)
    built = 0
    while built < 15:
        c1, c2 = (Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(2))
        disc = c2 * c2 - 4 * c1 * c2
        if not disc > 0:
            continue
        s, d = _squarefree_split(disc.numerator * disc.denominator)
        sign = rng.choice((1, -1))
        if d == 1:
            field = FieldSpec.rational()
            r = (c2 + sign * Fraction(s, disc.denominator)) / (2 * c1 * c2)
        else:
            field = FieldSpec.quadratic(d)
            r = QuadExt(c2, sign * Fraction(s, disc.denominator), d) / (2 * c1 * c2)
        spec = LadderSpec(field, r, (c1, c2))
        assert cf_eval(spec) == 1
        tiling = ladder_dissection(spec)
        assert len(tiling.tiles) == partial_quotient_sum(c1) + partial_quotient_sum(c2)
        assert validate_geometric(tiling).ok
        assert solve_sizes(tiling).ratio == 1
        inv = 1 / r
        assert all(t.aspect == r or t.aspect == inv for t in tiling.tiles)
        assert_sketch_round_trip(tiling)
        built += 1


def test_ladder_rejects_wrong_value():
    field = FieldSpec.rational()
    spec = LadderSpec(field, Fraction(2), (Fraction(1, 4),))
    with pytest.raises(LadderError):
        ladder_dissection(spec)


def test_ladder_tile_bound(monkeypatch):
    spec = LadderSpec(FieldSpec.quadratic(3), golden_ratio_like(),
                      (Fraction(1, 3), Fraction(2)))
    monkeypatch.setattr(correspondence, "MAX_LADDER_TILES", 5)
    assert len(ladder_dissection(spec).tiles) == 5
    monkeypatch.setattr(correspondence, "MAX_LADDER_TILES", 4)
    with pytest.raises(LadderError, match="^ladder would build more than 4 tiles$") as info:
        ladder_dissection(spec)
    assert isinstance(info.value, InputError)


def test_ladder_json_round_trip():
    field = FieldSpec.quadratic(3)
    spec = LadderSpec(field, golden_ratio_like(), (Fraction(1, 3), Fraction(2)))
    again = ladder_from_json(ladder_to_json(spec))
    assert again.ratio == spec.ratio
    assert again.coefficients == spec.coefficients
