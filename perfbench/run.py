"""Run one workload of the tilecircuit benchmark and print its metrics.

    python3 perfbench/run.py --workload wall-q --seed 1 --seconds 20 --trace 0

Run it from the repository root: it imports tilecircuit from ``src/``.  One
invocation runs one workload in its own process, single-threaded, as a
closed loop with one client: each item starts when the previous one has
been answered and checked.  The run repeats whole rounds of the workload's
item mix until the timed work reaches ``--seconds``; every answer is
compared with the generator's exact oracle outside the timed region.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same run is made with spans
recorded around every layer boundary and the object carries the per-layer
metrics instead.  Lines before it describe the environment, the tail
percentile, skipped inputs and every failure.  Work files, a JSON record of
the run and the spans go to ``.perfbench-work/`` under the current directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SRC = "src"
WORK_ROOT = ".perfbench-work"
SETUP_REPEATS = 5
# Times are reported in reference seconds: wall time scaled by CAL_REF_S
# over the time a fixed Fraction loop takes around the moment of
# measurement.  On a shared host the speed of any fixed loop swings by up
# to 2x in phases lasting tens of seconds, while the ratio of an item's
# time to the loop's stays within a few percent, so the scaled times are
# what a change to tilecircuit moves and the host's phases are not.  Raw
# times are kept in the run record.
CAL_REF_S = 1.0e-3
CAL_INTERVAL_NS = 250_000_000
# Every run makes at least this many whole rounds of its item mix.
MIN_ROUNDS = 3
TAIL_BEYOND = 10   # samples that must lie beyond the tail percentile


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def _purge_tilecircuit() -> None:
    for name in list(sys.modules):
        if name == "tilecircuit" or name.startswith("tilecircuit."):
            del sys.modules[name]


def _calibration_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 97 + 1)
    return total


class SpeedGauge:
    """Samples of the calibration loop's duration over the run."""

    def __init__(self):
        self.times: list[int] = []
        self.values: list[float] = []

    def sample(self) -> None:
        best = None
        for _ in range(3):
            start = time.perf_counter_ns()
            _calibration_loop()
            took = time.perf_counter_ns() - start
            best = took if best is None else min(best, took)
        self.times.append(time.perf_counter_ns())
        self.values.append(best / 1e9)

    def sample_if_stale(self) -> None:
        if not self.times or time.perf_counter_ns() - self.times[-1] > CAL_INTERVAL_NS:
            self.sample()

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Scale from wall time to reference time for an interval.

        Uses the last sample before the interval and the first after it.
        """
        before = self.values[max(0, bisect_right(self.times, start_ns) - 1)]
        after = self.values[min(len(self.values) - 1, bisect_left(self.times, end_ns))]
        return CAL_REF_S / ((before + after) / 2)


def set_up(workload, seed: int, workdir: str, gauge: SpeedGauge):
    """Import tilecircuit and build the inputs, several times.

    Returns the last repetition's modules and items, and the median set-up
    time in reference seconds and in wall seconds.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        _purge_tilecircuit()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        gauge.sample()
        start = time.perf_counter_ns()
        tc = importlib.import_module("tilecircuit")
        importlib.import_module("tilecircuit.cli")
        cases = workload.cases(seed, workdir)
        items = workload.items(tc, cases, workdir)
        end = time.perf_counter_ns()
        gauge.sample()
        raw.append((end - start) / 1e9)
        scaled.append(raw[-1] * gauge.factor(start, end))
    return tc, cases, items, statistics.median(scaled), statistics.median(raw)


def run_item(item, tracer: Tracer | None, item_id):
    """Time one item's calls; returns (start ns, end ns, failure reason or None)."""
    results = []
    error = None
    if tracer is not None:
        tracer.item = item_id
        root = tracer.begin("bench.item")
    start = time.perf_counter_ns()
    try:
        for name, fn, args in item.calls:
            if tracer is not None:
                results.append(tracer.call(name, fn, *args))
            else:
                results.append(fn(*args))
    except Exception as exc:  # an escaping exception fails the item
        error = f"exception escaped: {type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.end(root)
            span = tracer.spans[root]
            start, end = span[1], span[2]
    if error is None:
        try:
            error = item.check(results)
        except Exception as exc:  # a malformed answer the check cannot read
            error = f"unreadable answer: {type(exc).__name__}: {exc}"
    return start, end, error


def tail_percentile(items_per_round: int) -> int:
    """Highest whole percentile with TAIL_BEYOND samples above it in any run.

    Fixed per workload from the fewest samples a run can have, so that it
    does not move with the number of rounds a run happens to make.
    """
    return int(100 * (1 - TAIL_BEYOND / (MIN_ROUNDS * items_per_round)))


def percentile(sorted_values: list, pct: float) -> float:
    """Percentile by linear interpolation between the closest ranks."""
    position = (len(sorted_values) - 1) * pct / 100
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def measure(workload, items, seconds: float, tracer: Tracer | None,
            gauge: SpeedGauge) -> dict:
    """Warm up, then run whole rounds until the timed work reaches ``seconds``."""
    warm = items if workload.warmup is None else sorted(
        items, key=lambda it: it.meta.get("size", 0))[:workload.warmup]
    for item in warm:
        run_item(item, tracer, None)

    timings = []         # (item index, start ns, end ns, failure reason or None)
    timed_ns = 0
    rounds = 0
    while rounds < MIN_ROUNDS or timed_ns < seconds * 1e9:
        for index, item in enumerate(items):
            gauge.sample_if_stale()
            start, end, reason = run_item(item, tracer, len(timings))
            timings.append((index, start, end, reason))
            timed_ns += end - start
        rounds += 1
    gauge.sample()
    return {
        "attempts": [
            (index, (end - start) / 1e9, gauge.factor(start, end), reason)
            for index, start, end, reason in timings
        ],
        "timed_s": timed_ns / 1e9,
        "rounds": rounds,
    }


def failures(run: dict, items) -> list:
    return [(items[index], reason) for index, _, _, reason in run["attempts"] if reason]


def end_to_end(run: dict, items, setup: tuple) -> tuple[dict, dict]:
    scaled_ms = sorted(raw * f * 1e3 for _, raw, f, _ in run["attempts"])
    raw_ms = sorted(raw * 1e3 for _, raw, _, _ in run["attempts"])
    attempted = len(scaled_ms)
    ok = attempted - len(failures(run, items))
    tail_pct = tail_percentile(len(items))
    tail_ms = percentile(scaled_ms, tail_pct)
    metrics = {
        "setup_s": (setup[0], "s"),
        "throughput_items_per_s": (ok / (sum(scaled_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(scaled_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "ok_ratio": (ok / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "tail_percentile": tail_pct,
        "samples": attempted,
        "samples_beyond_tail": sum(1 for x in scaled_ms if x > tail_ms),
        "failed_ratio": (attempted - ok) / attempted,
        "wall_setup_s": setup[1],
        "wall_throughput_items_per_s": ok / run["timed_s"],
        "wall_latency_p50_ms": statistics.median(raw_ms),
        "wall_latency_tail_ms": percentile(raw_ms, tail_pct),
    }
    return metrics, notes


def item_medians(run: dict, items) -> dict:
    """Median reference latency of each item of the round, in ms."""
    by_index: dict = {}
    for index, raw, f, _ in run["attempts"]:
        by_index.setdefault(index, []).append(raw * f * 1e3)
    return {f"{i} {items[i].label}": statistics.median(v) for i, v in sorted(by_index.items())}


def per_layer(run: dict, items, tracer: Tracer, cli_workload: bool) -> dict:
    factors = [f for _, _, f, _ in run["attempts"]]
    metrics = layer_metrics(tracer, factors)
    scaled_ms = [raw * f * 1e3 for _, raw, f, _ in run["attempts"]]
    metrics["trace.latency_p50_ms"] = (statistics.median(scaled_ms), "ms")
    mismatches = sum(
        1 for _, reason in failures(run, items)
        if reason.startswith(("exit ", "exception escaped"))
    )
    metrics["cli.requests"] = (len(factors) if cli_workload else 0, "count")
    metrics["cli.exit_code_mismatches"] = (mismatches if cli_workload else 0, "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tilecircuit", "__init__.py")):
        print(f"error: {SRC}/tilecircuit not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC))

    env = environment()
    workload = WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK_ROOT, f"{label}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    gauge = SpeedGauge()
    try:
        tc, cases, items, *setup = set_up(workload, args.seed, workdir, gauge)
        workload.prepare(items, cases)
        if tracer is not None:
            tracer.install(tc)
        try:
            run = measure(workload, items, args.seconds, tracer, gauge)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, notes = end_to_end(run, items, setup)
    if tracer is not None:
        metrics = per_layer(run, items, tracer, workload.name == "cli-small")
    else:
        metrics = e2e
    failed = failures(run, items)
    result = {
        "correct": all(item.known_defect for item, _ in failed),
        "attempted": len(run["attempts"]),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    failures_by_label: dict = {}
    for item, reason in failed:
        entry = failures_by_label.setdefault(
            item.label, {"count": 0, "reason": reason, "known_defect": item.known_defect})
        entry["count"] += 1
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "rounds": run["rounds"],
        "items_per_round": len(items),
        "calibration_s": {"reference": CAL_REF_S, "median": statistics.median(gauge.values),
                          "min": min(gauge.values), "max": max(gauge.values)},
        "timed_s": run["timed_s"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "notes": notes,
        "skipped": [{"input": i, "reason": r} for i, r in workload.skipped],
        "failures": failures_by_label,
        "item_median_ms": item_medians(run, items),
        "result": result,
    }
    results_dir = os.path.join(WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.write(os.path.join(results_dir, f"{label}.spans.jsonl"))

    print(f"# environment {json.dumps(env)}")
    print(f"# {workload.name} seed {args.seed}: {result['attempted']} items in "
          f"{run['rounds']} rounds of {len(items)}, {run['timed_s']:.2f} s timed, "
          f"{result['failed']} failed")
    print(f"# latency_tail_ms is p{notes['tail_percentile']} of "
          f"{notes['samples']} samples ({notes['samples_beyond_tail']} beyond it); "
          f"failed_ratio {notes['failed_ratio']:.4f}")
    for i, r in workload.skipped:
        print(f"# skipped: {i}: {r}")
    for name, entry in failures_by_label.items():
        tag = f"known defect, {entry['known_defect']}" if entry["known_defect"] else "UNEXPECTED"
        print(f"# failed x{entry['count']}: {name}: {entry['reason']} ({tag})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
