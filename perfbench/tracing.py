"""Span recorder for the traced benchmark run.

The recorder wraps stopcc's public functions at run time. Each wrapper
replaces the name where its caller looks it up (a module attribute or a
method of ``ActivationState``), so the program itself is unchanged. Spans
(name, start, end, parent, run id) are kept in memory, in flat arrays, and
written out when the run ends; the per-layer metrics are computed from them
afterwards.
"""

from __future__ import annotations

import math
import threading
import time
import tracemalloc
from array import array
from statistics import median

import numpy as np

# (metric name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("graphs.build_s", "s"),
    ("graphs.vertices_built", "count"),
    ("montecarlo.perm_draw_s", "s"),
    ("montecarlo.perm_draws", "count"),
    ("montecarlo.estimate_self_s", "s"),
    ("montecarlo.reps", "count"),
    ("activation.cc_trace_s", "s"),
    ("activation.cc_trace_calls", "count"),
    ("activation.activate_s", "s"),
    ("activation.activate_calls", "count"),
    ("activation.expected_gain_s", "s"),
    ("activation.expected_gain_calls", "count"),
    ("activation.check_permutation_s", "s"),
    ("activation.check_permutation_calls", "count"),
    ("strategies.decide_s", "s"),
    ("strategies.decide_calls", "count"),
    ("strategies.run_strategy_self_s", "s"),
    ("strategies.run_strategy_calls", "count"),
    ("strategies.run_strategy_p50_ms", "ms"),
    ("strategies.run_strategy_p99_ms", "ms"),
    ("strategies.run_strategy_samples", "count"),
    ("strategies.steps_per_run", "steps/run"),
    ("exact.solve_dp_s", "s"),
    ("exact.dp_states", "count"),
    ("exact.dp_states_per_s", "1/s"),
    ("exact.dp_peak_mb", "MB"),
    ("exact.cc_of_mask_s", "s"),
    ("exact.cc_of_mask_calls", "count"),
    ("exact.brute_force_s", "s"),
    ("exact.perms", "count"),
    ("exact.closed_form_s", "s"),
    ("exact.closed_form_calls", "count"),
    ("metagame.maximize_phi_s", "s"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.passes", "count"),
)

SETUP_RUN = -1


class Tracer:
    """Spans and counters of one process, grouped by run id (the pass index,
    or ``SETUP_RUN`` for instance construction before the first pass).

    Spans form one stack on the thread that made the tracer: the traced
    workloads call stopcc on one thread, and calls from any other thread run
    untraced."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.counters = {}  # (run id, counter name) -> number
        self.dp_calls = []  # (run id, graph, exact tier) of each solve_dp call
        self.run_id = SETUP_RUN
        self.enabled = True
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self._stack = []
        self._thread = threading.get_ident()

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter, value):
        key = (self.run_id, counter)
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, count=None):
        """Return fn recording a span per call. count(args, result) gives
        (counter name, amount) to add for calls not nested in the same name."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.enabled or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            idx = len(self.start)
            parent = self._stack[-1] if self._stack else -1
            self.name.append(nid)
            self.parent.append(parent)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if count is not None and (parent < 0 or self.name[parent] != nid):
                self.add(*count(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """All spans as flat arrays; ``parent`` indexes into them (-1 for a
        root span)."""
        return {
            "names": np.array(self.names),
            "name": np.asarray(self.name, dtype=np.uint16),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "run": np.asarray(self.run, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def instrument(tracer):
    """Wrap stopcc's public functions where their callers look them up."""
    from stopcc import activation, cli, exact, graphs, metagame, montecarlo, strategies

    def vertices(args, result):
        g = result[0] if isinstance(result, tuple) else result
        return "graphs.vertices_built", g.n

    def reps(args, result):
        return "montecarlo.reps", args[-1].replications

    def dp_states(args, result):
        return "exact.dp_states", 1 << args[0].n

    def perms(args, result):
        return "exact.perms", math.factorial(args[0].n)

    patches = [
        (graphs, "gen_named_family", "graphs.build", vertices),
        (graphs, "gen_random_ktree", "graphs.build", None),
        (graphs, "graph_from_construction", "graphs.build", vertices),
        (montecarlo, "replication_permutation", "montecarlo.perm_draw", None),
        (montecarlo, "estimate_strategy", "montecarlo.estimate", reps),
        (montecarlo, "estimate_tail", "montecarlo.estimate", reps),
        (montecarlo, "compare_strategies", "montecarlo.estimate", reps),
        (montecarlo, "blind_value_scan", "montecarlo.estimate", reps),
        (montecarlo, "component_count_trace", "activation.cc_trace", None),
        (activation.ActivationState, "activate", "activation.activate", None),
        (activation.ActivationState, "expected_gain", "activation.expected_gain", None),
        (strategies, "check_permutation", "activation.check_permutation", None),
        (strategies, "decide", "strategies.decide", None),
        (strategies, "run_strategy", "strategies.run_strategy", None),
        (exact, "cc_of_mask", "exact.cc_of_mask", None),
        (exact, "brute_force_strategy_value", "exact.brute_force", perms),
        (exact, "blind_expectation_tree", "exact.closed_form", None),
        (exact, "blind_expectation_ktree", "exact.closed_form", None),
        (metagame, "maximize_phi", "metagame.maximize_phi", None),
        (cli, "main", "cli.main", None),
    ]
    for owner, attr, name, count in patches:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
    traced_dp = tracer.wrap("exact.solve_dp", exact.solve_dp, dp_states)

    def solve_dp(graph, exact=False):
        if tracer.enabled:
            tracer.dp_calls.append((tracer.run_id, graph, exact))
        return traced_dp(graph, exact=exact)

    exact.solve_dp = solve_dp


def measure_dp_peaks(tracer):
    """Repeat each solve_dp call of the traced passes under tracemalloc and
    record the largest peak per pass in MB. This runs after the passes, with
    the tracer disabled, because tracemalloc slows Python allocations
    severalfold and would distort the layer times."""
    from stopcc import exact

    peaks = {}
    for run_id, graph, exact_tier in tracer.dp_calls:
        key = (graph.n, tuple(graph.edges()), exact_tier)
        if key not in peaks:
            tracemalloc.start()
            try:
                exact.solve_dp(graph, exact=exact_tier)
                peaks[key] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        counter = (run_id, "exact.dp_peak_mb")
        tracer.counters[counter] = max(tracer.counters.get(counter, 0), peaks[key])


def _self_times(dur, parent):
    """Duration of each span minus the durations of its child spans."""
    has_parent = parent >= 0
    return dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending array."""
    if len(sorted_values) == 0:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def layer_metrics(tracer, traced_passes, untraced_passes):
    """Per-layer metrics of the traced passes.

    Times and counts are per pass (median over traced passes); graph
    building also counts the set-up builds of the process once. Percentiles
    and steps_per_run pool every run_strategy call of the traced passes.
    """
    a = tracer.arrays()
    name, start, end, parent, run = (a[k] for k in ("name", "start", "end", "parent", "run"))
    dur = end - start
    self_time = _self_times(dur, parent)
    ids = {n: i for i, n in enumerate(tracer.names)}
    nested = (parent >= 0) & (name[np.maximum(parent, 0)] == name)
    runs = range(len(traced_passes))

    def mask(span_name, r):
        return (name == ids.get(span_name, -1)) & (run == r)

    def per_pass(fn):
        return float(median(fn(r) for r in runs))

    def total(span_name, values=dur):
        return per_pass(lambda r: float(values[mask(span_name, r) & ~nested].sum()))

    def calls(span_name):
        return per_pass(lambda r: int(np.count_nonzero(mask(span_name, r))))

    def counter(key):
        return per_pass(lambda r: tracer.counters.get((r, key), 0))

    setup_build = float(dur[mask("graphs.build", SETUP_RUN) & ~nested].sum())
    setup_vertices = tracer.counters.get((SETUP_RUN, "graphs.vertices_built"), 0)
    rs_id = ids.get("strategies.run_strategy", -1)
    rs = (name == rs_id) & (run >= 0)
    rs_ms = np.sort(dur[rs]) * 1e3
    steps = np.count_nonzero(
        (name == ids.get("activation.activate", -1)) & (parent >= 0)
        & (name[np.maximum(parent, 0)] == rs_id) & (run >= 0)
    )
    dp_s = total("exact.solve_dp")
    dp_states = counter("exact.dp_states")
    traced_wall = float(median(traced_passes))

    values = {
        "graphs.build_s": total("graphs.build") + setup_build,
        "graphs.vertices_built": counter("graphs.vertices_built") + setup_vertices,
        "montecarlo.perm_draw_s": total("montecarlo.perm_draw"),
        "montecarlo.perm_draws": calls("montecarlo.perm_draw"),
        "montecarlo.estimate_self_s": total("montecarlo.estimate", self_time),
        "montecarlo.reps": counter("montecarlo.reps"),
        "activation.cc_trace_s": total("activation.cc_trace"),
        "activation.cc_trace_calls": calls("activation.cc_trace"),
        "activation.activate_s": total("activation.activate"),
        "activation.activate_calls": calls("activation.activate"),
        "activation.expected_gain_s": total("activation.expected_gain"),
        "activation.expected_gain_calls": calls("activation.expected_gain"),
        "activation.check_permutation_s": total("activation.check_permutation"),
        "activation.check_permutation_calls": calls("activation.check_permutation"),
        "strategies.decide_s": total("strategies.decide"),
        "strategies.decide_calls": calls("strategies.decide"),
        "strategies.run_strategy_self_s": total("strategies.run_strategy", self_time),
        "strategies.run_strategy_calls": calls("strategies.run_strategy"),
        "strategies.run_strategy_p50_ms": _percentile(rs_ms, 50),
        "strategies.run_strategy_p99_ms": _percentile(rs_ms, 99),
        "strategies.run_strategy_samples": len(rs_ms),
        "strategies.steps_per_run": steps / len(rs_ms) if len(rs_ms) else 0.0,
        "exact.solve_dp_s": dp_s,
        "exact.dp_states": dp_states,
        "exact.dp_states_per_s": dp_states / dp_s if dp_s else 0.0,
        "exact.dp_peak_mb": counter("exact.dp_peak_mb"),
        "exact.cc_of_mask_s": total("exact.cc_of_mask"),
        "exact.cc_of_mask_calls": calls("exact.cc_of_mask"),
        "exact.brute_force_s": total("exact.brute_force"),
        "exact.perms": counter("exact.perms"),
        "exact.closed_form_s": total("exact.closed_form"),
        "exact.closed_form_calls": calls("exact.closed_form"),
        "metagame.maximize_phi_s": total("metagame.maximize_phi"),
        "cli.self_s": total("cli.main", self_time),
        "cli.calls": calls("cli.main"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - float(median(untraced_passes)),
        "trace.passes": len(traced_passes),
    }
    return {key: {"value": values[key], "unit": unit} for key, unit in LAYER_METRICS}
