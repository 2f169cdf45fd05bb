"""Span recording around tilecircuit's layer boundaries.

A traced run replaces, for its own duration, the functions that each
tilecircuit module looks up by module-global name (``dissection`` calls
``gauss_jordan``, ``correspondence`` calls ``solve_flow``, and so on) with
wrappers that record a span per call.  Spans stay in memory as
(name, start, end, parent, item) and are written out when the run ends.
An untraced run never installs the wrappers.

Counts gathered at the same boundaries (system shape, coefficient size,
edges, tile pairs) are computed in a ``trace.stats`` span of their own, so
that bookkeeping is charged to tracing rather than to the layer that
triggered it, and self times still add up to each item's latency.
"""

from __future__ import annotations

import importlib
import json
import time
from fractions import Fraction

STATS = "trace.stats"

# (module, attribute, span name) for every wrapped boundary.  One function
# can be reached under several module-global names; each gets a wrapper.
BOUNDARIES = (
    ("dissection", "gauss_jordan", "linear.gauss_jordan.junction"),
    ("circuit", "gauss_jordan", "linear.gauss_jordan.kirchhoff"),
    ("correspondence", "substitute_and_verify", "linear.substitute_and_verify"),
    ("dissection", "extract_cuts", "dissection.extract_cuts"),
    ("correspondence", "extract_cuts", "dissection.extract_cuts"),
    ("dissection", "junction_system", "dissection.junction_system"),
    ("correspondence", "solve_sizes", "dissection.solve_sizes"),
    ("cli", "solve_sizes", "dissection.solve_sizes"),
    ("dissection", "validate_geometric", "dissection.validate_geometric"),
    ("correspondence", "validate_geometric", "dissection.validate_geometric"),
    ("cli", "validate_geometric", "dissection.validate_geometric"),
    ("circuit", "kirchhoff_system", "circuit.kirchhoff_system"),
    ("correspondence", "kirchhoff_system", "circuit.kirchhoff_system"),
    ("circuit", "solve_flow", "circuit.solve_flow"),
    ("correspondence", "solve_flow", "circuit.solve_flow"),
    ("circuit", "symbolic_resistance", "circuit.symbolic_resistance"),
    ("correspondence", "symbolic_resistance", "circuit.symbolic_resistance"),
    ("correspondence", "circuit_of_dissection", "correspondence.circuit_of_dissection"),
    ("cli", "circuit_of_dissection", "correspondence.circuit_of_dissection"),
    ("cli", "certify_equivalence", "correspondence.certify_equivalence"),
    ("cli", "theorem1_certificate", "correspondence.theorem1_certificate"),
    ("cli", "ladder_dissection", "correspondence.ladder_dissection"),
    ("cli", "lfs_condition3", "algcheck.lfs_condition3"),
    ("algcheck", "positive_real_part_all_roots", "algcheck.positive_real_part_all_roots"),
)

# Layers whose self time is reported, in reference seconds per item.  ``bench.item``
# is the benchmark's own span around an item's calls; with every other
# layer it accounts for the whole item latency.
SELF_TIME_LAYERS = (
    "linear.gauss_jordan.junction",
    "linear.gauss_jordan.kirchhoff",
    "linear.substitute_and_verify",
    "dissection.extract_cuts",
    "dissection.junction_system",
    "dissection.solve_sizes",
    "dissection.validate_geometric",
    "circuit.kirchhoff_system",
    "circuit.solve_flow",
    "circuit.symbolic_resistance",
    "correspondence.certify_equivalence",
    "correspondence.circuit_of_dissection",
    "correspondence.theorem1_certificate",
    "correspondence.ladder_dissection",
    "algcheck.lfs_condition3",
    "algcheck.positive_real_part_all_roots",
    "cli.run",
    "bench.item",
    STATS,
)

# Counts summed per item and reported as a mean per item.
PER_ITEM_COUNTS = (
    "linear.gauss_jordan.calls",
    "linear.system.rows",
    "linear.system.unknowns",
    "linear.system.nonzeros",
    "dissection.validate_geometric.pairs",
    "circuit.netlist.edges",
)

# Counts kept as the largest value seen in the run.
MAX_COUNTS = ("linear.solution.max_bits", "fields.ratfunc.max_degree")


def scalar_bits(value) -> int:
    """Largest numerator or denominator size, in bits, inside one scalar."""
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if hasattr(value, "num") and hasattr(value, "den"):  # RatFunc
        return max(
            (scalar_bits(c) for c in value.num.coeffs + value.den.coeffs), default=0
        )
    if hasattr(value, "a") and hasattr(value, "b"):  # QuadExt
        return max(scalar_bits(value.a), scalar_bits(value.b))
    return 0


def ratfunc_degree(value) -> int:
    if hasattr(value, "num") and hasattr(value, "den"):
        return max(len(value.num.coeffs), len(value.den.coeffs)) - 1
    return 0


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []    # (name, start_ns, end_ns, parent, item)
        self._stack: list[int] = []
        self.item = None
        self.counts: dict = {}          # item -> {count name: value}
        self._patches: list[tuple] = []

    # --- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.item])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def add(self, name: str, value: int) -> None:
        bucket = self.counts.setdefault(self.item, {})
        if name in MAX_COUNTS:
            bucket[name] = max(bucket.get(name, 0), value)
        else:
            bucket[name] = bucket.get(name, 0) + value

    # --- wrappers ----------------------------------------------------------

    def install(self, tc) -> None:
        """Wrap every boundary of the imported tilecircuit package."""
        for module_name, attr, span_name in BOUNDARIES:
            module = importlib.import_module(f"{tc.__name__}.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(original, span_name))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrapper(self, original, span_name: str):
        stats = _STATS.get(span_name)

        def traced(*args, **kwargs):
            result = self.call(span_name, original, *args, **kwargs)
            if stats is not None:
                self.call(STATS, stats, self, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    # --- analysis -----------------------------------------------------------

    def self_times(self) -> dict:
        """item -> {span name: self time in ns}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            bucket = out.setdefault(item, {})
            bucket[name] = bucket.get(name, 0) + (end - start) - child_ns[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "item": item,
                }) + "\n")


# --- counts gathered at boundaries ----------------------------------------------


def _system_stats(tracer: Tracer, args, outcome) -> None:
    system = args[0]
    tracer.add("linear.gauss_jordan.calls", 1)
    tracer.add("linear.system.rows", len(system.rows))
    tracer.add("linear.system.unknowns", len(system.variables))
    tracer.add(
        "linear.system.nonzeros",
        sum(1 for coeffs, _ in system.rows for c in coeffs if c),
    )
    values = getattr(outcome, "assignment", None) or {}
    for value in values.values():
        tracer.add("linear.solution.max_bits", scalar_bits(value))
        tracer.add("fields.ratfunc.max_degree", ratfunc_degree(value))


def _validate_stats(tracer: Tracer, args, report) -> None:
    n = len(args[0].tiles)
    tracer.add("dissection.validate_geometric.pairs", n * (n - 1) // 2)


def _flow_stats(tracer: Tracer, args, flow) -> None:
    tracer.add("circuit.netlist.edges", len(args[0].resistors) + 1)


def _symbolic_stats(tracer: Tracer, args, value) -> None:
    tracer.add("fields.ratfunc.max_degree", ratfunc_degree(value))


_STATS = {
    "linear.gauss_jordan.junction": _system_stats,
    "linear.gauss_jordan.kirchhoff": _system_stats,
    "dissection.validate_geometric": _validate_stats,
    "circuit.solve_flow": _flow_stats,
    "circuit.symbolic_resistance": _symbolic_stats,
}


def layer_metrics(tracer: Tracer, factors: list) -> dict:
    """Per-layer metrics over timed items 0..n-1.

    ``factors[i]`` scales item i's wall time to reference time, as for the
    end-to-end latencies.
    """
    n = max(1, len(factors))
    self_ns = tracer.self_times()
    out = {}
    for layer in SELF_TIME_LAYERS:
        total = sum(
            self_ns.get(i, {}).get(layer, 0) * f for i, f in enumerate(factors)
        )
        out[f"{layer}.self_s"] = (total / 1e9 / n, "s/item")
    for name in PER_ITEM_COUNTS:
        total = sum(tracer.counts.get(i, {}).get(name, 0) for i in range(len(factors)))
        out[name] = (total / n, "count/item")
    for name in MAX_COUNTS:
        out[name] = (
            max((tracer.counts.get(i, {}).get(name, 0) for i in range(len(factors))),
                default=0),
            "bits" if name.endswith("bits") else "degree",
        )
    return out
