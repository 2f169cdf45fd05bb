"""The benchmark's own checks: oracles agree with tilecircuit, failures count.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import random
from fractions import Fraction

import pytest

import tilecircuit as tc
import tilecircuit.cli  # noqa: F401  (cli-small calls tc.cli.run)
import cli_small
import gen
import run
import workloads
from items import Item
from spans import Tracer, layer_metrics


def _wall_item(wall, check=workloads.check_certify):
    d = tc.load_dissection(wall.sketch_json())
    return Item("wall", [("correspondence.certify_equivalence", tc.certify_equivalence, (d,))],
                lambda results: check(wall, results))


@pytest.mark.parametrize("d", [None, 2])
@pytest.mark.parametrize("tiles", [4, 6, 9])
def test_wall_oracle_agrees(d, tiles):
    for seed in range(3):
        wall = gen.brick_wall(random.Random(seed), tiles, d)
        _, _, reason = run.run_item(_wall_item(wall), None, 0)
        assert reason is None


def test_shelf_gives_33_over_32():
    shelf = gen.shelf()
    assert shelf.width == Fraction(33, 32)
    _, _, reason = run.run_item(_wall_item(shelf), None, 0)
    assert reason is None
    report = tc.certify_equivalence(tc.load_dissection(shelf.sketch_json()))
    assert report.resistance == Fraction(33, 32)


def test_wrong_answer_is_counted_as_failed():
    wall = gen.brick_wall(random.Random(0), 6)
    wrong = gen.Wall(wall.d, wall.rects, wall.width + 1)
    items = [_wall_item(wall), _wall_item(wrong)]
    workload = workloads.Workload("t", None, None, None, warmup=0)
    result = run.measure(workload, items, 0.0, None, run.SpeedGauge())
    failed = run.failures(result, items)
    assert result["rounds"] == run.MIN_ROUNDS
    assert len(failed) == run.MIN_ROUNDS
    assert all(item is items[1] and "resistance" in reason for item, reason in failed)


def test_escaping_exception_is_a_failure():
    item = Item("boom", [("x", lambda: 1 / 0, ())], lambda results: None)
    _, _, reason = run.run_item(item, None, 0)
    assert reason.startswith("exception escaped: ZeroDivisionError")


def test_four_tile_point_is_found():
    half = Fraction(1, 2)
    grid = {
        i + 1: (x, y, half, half)
        for i, (x, y) in enumerate([(0, 0), (half, 0), (0, half), (half, half)])
    }
    assert gen.four_tile_points(grid, Fraction(1), Fraction(1)) == [(half, half)]


def test_series_parallel_oracle_agrees():
    rng = random.Random(1)
    for size in (1, 2, 3, 5):
        net = gen.series_parallel(rng, size)
        assert tc.resistance(tc.parse_netlist(net.text)) == net.resistance


def test_symbolic_ladder_oracle_agrees_and_rejects():
    rng = random.Random(2)
    for sections in (1, 2, 3):
        ladder = gen.symbolic_ladder(rng, sections)
        value = tc.symbolic_resistance(tc.parse_netlist(ladder.text, symbolic=True))
        samples = ladder.samples()
        assert len(samples) == 2 * ladder.symbolic + 1
        assert workloads.check_symbolic(ladder, samples, [value]) is None
        shifted = value + tc.RatFunc.constant(1)
        assert workloads.check_symbolic(ladder, samples, [shifted]) is not None


def test_ladder_tiling_oracle_agrees():
    rng = random.Random(3)
    for _ in range(3):
        tiling = gen.ladder_tiling(rng)
        d = tc.load_dissection(tiling.sketch_json())
        ratio = tc.parse_quadext(tiling.ratio.text(), tiling.d)
        results = [tc.theorem1_certificate(d, ratio), tc.lfs_condition3(ratio)]
        assert workloads.check_tiling(tiling, results) is None
        assert tc.cf_eval(tc.load_ladder(tiling.ladder_json())) == 1


@pytest.mark.parametrize("degree", [2, 3, 4, 6])
def test_rooted_polynomial_oracle_agrees(degree):
    rng = random.Random(degree)
    for _ in range(5):
        poly = gen.rooted_poly(rng, degree)
        verdict = tc.lfs_condition3(tc.parse_intpoly(poly.text()))
        assert verdict.passed == poly.passed
        assert verdict.caveat == poly.caveat
        assert verdict.minimal_polynomial.coeffs == poly.coeffs


def test_cli_small_fails_exactly_the_known_defects(tmp_path):
    requests = cli_small.cases(4, str(tmp_path))
    items = cli_small.items(tc, requests, str(tmp_path))
    failed = set()
    for item in items:
        _, _, reason = run.run_item(item, None, 0)
        if reason is not None:
            failed.add(item.label)
    known = {item.label for item in items if item.known_defect}
    assert len(known) == 8
    assert failed == known


def test_traced_self_times_add_up_to_the_item_latency():
    wall = gen.brick_wall(random.Random(5), 9)
    tracer = Tracer()
    tracer.install(tc)
    try:
        start, end, reason = run.run_item(_wall_item(wall), tracer, 0)
    finally:
        tracer.uninstall()
    assert reason is None
    self_ns = tracer.self_times()[0]
    assert sum(self_ns.values()) == end - start
    assert self_ns["linear.gauss_jordan.junction"] > 0
    assert self_ns["linear.gauss_jordan.kirchhoff"] > 0
    metrics = layer_metrics(tracer, [1.0])
    assert metrics["linear.gauss_jordan.calls"][0] == 2
    assert metrics["dissection.validate_geometric.pairs"][0] == 9 * 8 // 2
    assert metrics["circuit.netlist.edges"][0] == 10
    # the untraced names are restored
    assert tc.dissection.gauss_jordan is tc.linear.gauss_jordan


def test_refuses_to_run_without_the_package(monkeypatch, capsys):
    monkeypatch.chdir(run.os.path.dirname(run.__file__))
    assert run.main(["--workload", "wall-q", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
