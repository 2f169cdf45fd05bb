"""The benchmark's workloads: seeded inputs, the calls they make, the checks.

Each workload is a fixed mix of items per round; a run repeats whole rounds
until its time is up, so every metric is taken over the same mix.  Input
generation (``cases``) and loading through tilecircuit (``items``) make up
the set-up time; oracle preparation (``prepare``) is kept out of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import cli_small
import gen
from items import Item, expect, first_error

# One round's items.  Each run makes at least three rounds (see run.py), so
# the tail percentile lies about ten samples from the top, just below the
# three or four largest items of a round.  A smooth ladder of sizes keeps
# the median and the tail off any step between sizes; the largest walls are
# one each and show in the throughput.  Over Q(sqrt 2), where walls of one
# size differ more in cost, three 22-tile walls hold the median and two
# 36-tile walls the tail.
WALL_Q_SIZES = tuple(range(36, 61)) + (100, 144)
WALL_SQRT2_SIZES = (
    tuple(range(16, 22)) * 2 + (22,) * 3 + tuple(range(23, 31)) + (36, 36, 49, 64)
)
# Ladder networks of 15 to 31 edges (7 to 15 sections), weighted to the
# small ones; with the tilings, the median falls among the 8-section
# ladders and the tail among the 11-section ones.
LADDER_SECTIONS = (7,) * 6 + (8,) * 8 + (9, 9, 10, 10) + (11,) * 6 + (14, 15)
LADDER_TILINGS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Callable          # (seed, workdir) -> generated inputs
    items: Callable          # (tilecircuit, cases, workdir) -> [Item]
    prepare: Callable        # (items, cases) -> None, oracle work
    warmup: int | None       # smallest items run once, untimed; None: a round
    skipped: tuple = ()      # (input, reason) never run


def _no_oracle_prep(items, cases) -> None:
    return None


# --- brick walls -------------------------------------------------------------


def _wall_cases(sizes, d):
    def cases(seed, workdir):
        rng = random.Random(seed)
        order = list(sizes)
        rng.shuffle(order)
        return [gen.brick_wall(rng, n, d) for n in order]

    return cases


def check_certify(wall: gen.Wall, results) -> str | None:
    report = results[0]
    d = wall.d
    if len(report.tiles) != wall.tiles:
        return f"{len(report.tiles)} tile reports for {wall.tiles} tiles"
    for t in report.tiles:
        side = wall.rects[t.tile][3]
        if gen.as_exact(t.vertical_side, d) != side:
            return f"tile {t.tile}: wrong vertical side"
        if gen.as_exact(t.current, d) != side:
            return f"tile {t.tile}: wrong current"
    return first_error(
        expect(report.ok, "certificate not ok"),
        expect(gen.as_exact(report.battery_current, d) == 1, "battery current != 1"),
        expect(gen.as_exact(report.resistance, d) == wall.width, "wrong resistance"),
        expect(gen.as_exact(report.big_ratio, d) == wall.width, "wrong ratio"),
    )


def _wall_items(tc, walls, workdir):
    out = []
    for wall in walls:
        dissection = tc.load_dissection(wall.sketch_json())
        out.append(Item(
            f"certify wall{wall.tiles}",
            [("correspondence.certify_equivalence", tc.certify_equivalence, (dissection,))],
            lambda results, wall=wall: check_certify(wall, results),
            meta={"size": wall.tiles},
        ))
    return out


# --- symbolic resistance and ratio certificates ----------------------------------


def _symbolic_cases(seed, workdir):
    rng = random.Random(seed)
    ladders = [gen.symbolic_ladder(rng, s) for s in LADDER_SECTIONS]
    tilings = [gen.ladder_tiling(rng) for _ in range(LADDER_TILINGS)]
    mixed = ladders + tilings
    rng.shuffle(mixed)
    return mixed


def check_symbolic(ladder: gen.SymbolicLadder, samples: dict, results) -> str | None:
    value = results[0]
    return gen.check_ratfunc(value.num.coeffs, value.den.coeffs, ladder.symbolic, samples)


def check_tiling(tiling: gen.LadderTiling, results) -> str | None:
    certificate, verdict = results
    return first_error(
        expect(certificate.coeffs == tiling.certificate, "wrong Theorem-1 certificate"),
        expect(verdict.passed, "positive-conjugates verdict should be PASS"),
        expect(verdict.minimal_polynomial.coeffs == tiling.certificate,
               "wrong minimal polynomial"),
        expect(not verdict.caveat, "unexpected caveat"),
    )


def _symbolic_items(tc, cases, workdir):
    out = []
    for case in cases:
        if isinstance(case, gen.SymbolicLadder):
            net = tc.parse_netlist(case.text, symbolic=True)
            out.append(Item(
                f"symbolic ladder{case.edges}",
                [("circuit.symbolic_resistance", tc.symbolic_resistance, (net,))],
                None,
                meta={"ladder": case, "size": case.edges},
            ))
        else:
            dissection = tc.load_dissection(case.sketch_json())
            ratio = tc.parse_quadext(case.ratio.text(), case.d)
            out.append(Item(
                f"theorem1+cond3 tiles{len(case.rects)}",
                [
                    ("correspondence.theorem1_certificate", tc.theorem1_certificate,
                     (dissection, ratio)),
                    ("algcheck.lfs_condition3", tc.lfs_condition3, (ratio,)),
                ],
                lambda results, case=case: check_tiling(case, results),
                meta={"size": len(case.rects)},
            ))
    return out


def _symbolic_prepare(items, cases) -> None:
    for item in items:
        ladder = item.meta.get("ladder")
        if ladder is not None:
            samples = ladder.samples()
            item.check = (
                lambda results, ladder=ladder, samples=samples:
                check_symbolic(ladder, samples, results)
            )


WORKLOADS = {
    "wall-q": Workload(
        "wall-q",
        _wall_cases(WALL_Q_SIZES, None),
        _wall_items,
        _no_oracle_prep,
        warmup=2,
        skipped=(
            ("brick walls of 264 and 588 tiles",
             "dense sizing takes ~7 s and ~53 s each at the seed; not timed"),
        ),
    ),
    "wall-sqrt2": Workload(
        "wall-sqrt2",
        _wall_cases(WALL_SQRT2_SIZES, 2),
        _wall_items,
        _no_oracle_prep,
        warmup=2,
    ),
    "symbolic": Workload(
        "symbolic",
        _symbolic_cases,
        _symbolic_items,
        _symbolic_prepare,
        warmup=2,
    ),
    "cli-small": Workload(
        "cli-small",
        cli_small.cases,
        cli_small.items,
        _no_oracle_prep,
        warmup=None,
        skipped=cli_small.SKIPPED,
    ),
}
