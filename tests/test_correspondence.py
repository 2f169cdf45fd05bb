import dataclasses
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    corpus,
    golden_ratio_like,
    make_five_similar,
    make_pinwheel,
    make_shelf,
    make_two_columns,
    make_two_rows,
)
from tilecircuit import (
    Battery,
    CorrespondenceError,
    Dissection,
    FieldSpec,
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


def test_smith_duality_resistance_equals_ratio():
    for name, d in corpus().items():
        sizing = solve_sizes(d)
        net = circuit_of_dissection(sizing.sized, sizing.cuts)
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


def test_ladder_soundness_random():
    # two-rung ladders c = (1/a, b): the value-1 identity pins R as the
    # positive root of b R^2 - ab R + a, generally in a quadratic field.
    # Coefficients of this shape keep every slab a single file of tiles;
    # grids with both dimensions > 1 would meet at interior cross points,
    # which the maximal-segment cut reading deliberately leaves aside.
    rng = random.Random(23)
    built = 0
    while built < 15:
        a = rng.randint(1, 6)
        b = rng.randint(1, 6)
        # coprime row counts keep the two stages' cut heights disjoint,
        # so no cut of one block continues collinearly into the other
        if a * b <= 4 or math.gcd(a, b) != 1:
            continue
        disc = a * b * (a * b - 4)
        s, d = _squarefree_split(disc)
        if d == 1:
            field = FieldSpec.rational()
            r = Fraction(a * b + s, 2 * b)
        else:
            field = FieldSpec.quadratic(d)
            r = QuadExt(Fraction(a * b, 2 * b), Fraction(s, 2 * b), d)
        spec = LadderSpec(field, r, (Fraction(1, a), Fraction(b)))
        assert cf_eval(spec) == 1
        tiling = ladder_dissection(spec)
        assert len(tiling.tiles) == a + b
        assert validate_geometric(tiling).ok
        assert solve_sizes(tiling).ratio == 1
        inv = 1 / r
        assert all(t.aspect == r or t.aspect == inv for t in tiling.tiles)
        built += 1


def test_ladder_rejects_wrong_value():
    field = FieldSpec.rational()
    spec = LadderSpec(field, Fraction(2), (Fraction(1, 4),))
    with pytest.raises(LadderError):
        ladder_dissection(spec)


def test_ladder_json_round_trip():
    field = FieldSpec.quadratic(3)
    spec = LadderSpec(field, golden_ratio_like(), (Fraction(1, 3), Fraction(2)))
    again = ladder_from_json(ladder_to_json(spec))
    assert again.ratio == spec.ratio
    assert again.coefficients == spec.coefficients
