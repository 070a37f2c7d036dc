"""Spans around fedwireless' layers, recorded from outside the package.

The package's modules look their collaborators up through module attributes
(``harness`` calls ``assignment.build_edge_weights``, ``assignment`` calls
its own ``optimal_power`` and the ``phy`` functions it imported, ``bounds``
calls the ``feasible_power_interval`` it imported), so rebinding those
attributes in this process puts a span around every call without touching
the package.  Nothing here runs unless a traced run installs it.

A span is (name, start_ns, end_ns, parent, iteration); ``parent`` is the
index of the enclosing span or -1.  Layer self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

from fedwireless import assignment, bounds, cli, config, harness, phy, training

MODULES = (assignment, bounds, cli, config, harness, phy, training)


def _observe_edges(count, args, edges):
    count["edges"] += edges.weights.size
    count["feasible_edges"] += int(np.count_nonzero(edges.feasible))


def _observe_solve(count, args, result):
    n_users, n_rbs = np.shape(args[0])
    count["solver_iterations"] += result[1]
    count["matching_cells"] += n_users * n_rbs
    count["matching_square_cells"] += max(n_users, n_rbs) ** 2


def _observe_square(count, args, result):
    count["solver_iterations"] += result[1]


def _observe_training(count, args, outcomes):
    rounds = len(outcomes) - 1
    selected = int(np.count_nonzero(np.asarray(args[1].selection) == 1))
    count["rounds"] += rounds
    count["selected_user_rounds"] += selected * rounds
    count["delivered"] += int(np.count_nonzero([o.delivered for o in outcomes[1:]]))


def _observe_fit(count, args, result):
    count["fit_points"] += np.atleast_2d(np.asarray(args[1])).shape[0]


# (module, function, span name, rebind in the defining module too, observer).
# phy functions and bounds' private Hungarian call are rebound only where
# other modules imported them, so only the outermost calls are spans.  An
# observer adds counts from a call's arguments and result.
TARGETS = [
    (config, "load_config", "config.load", True, None),
    *[(phy, name, f"phy.{name}", False, None)
      for name in phy.__all__ if inspect.isfunction(getattr(phy, name))],
    (assignment, "build_edge_weights", "assignment.build_edge_weights", True, _observe_edges),
    (assignment, "optimal_power", "assignment.optimal_power", True, None),
    (assignment, "feasible_power_interval", "assignment.feasible_power_interval", True, None),
    (assignment, "_solve_matching", "assignment.matching", True, _observe_solve),
    (assignment, "_hungarian_square", "assignment.matching", False, _observe_square),
    (training, "run_training", "training.run_training", True, _observe_training),
    (bounds, "fit_gradient_bound", "bounds.fit_gradient_bound", True, _observe_fit),
    (bounds, "curvature", "bounds.analysis", True, None),
    (bounds, "empirical_gap", "bounds.analysis", True, None),
    (bounds, "bound_series", "bounds.analysis", True, None),
    (bounds, "convergence_slope_limit", "bounds.convergence_slope_limit", True, None),
    (harness, "run_experiment", "harness.run_experiment", True, None),
    (harness, "bound_report", "harness.bound_report", True, None),
    (harness, "build_topology", "harness.build_topology", True, None),
    (harness, "export_csv", "harness.export", True, None),
    (harness, "write_manifest", "harness.export", True, None),
    (cli, "main", "cli.main", True, None),
]


class Tracer:
    """Keeps spans and counters in memory; install() rebinds, uninstall() restores."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(int))   # iteration -> counts
        self.iteration = -1
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.iteration)
            if observe is not None:
                observe(self.counters[self.iteration], args, result)
            return result

        return traced

    def install(self):
        for module, attr, name, in_defining_module, observe in TARGETS:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, observe)
            for holder in MODULES:
                if holder is module and not in_defining_module:
                    continue
                if getattr(holder, attr, None) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def write(self, path, origin_ns):
        """Write every span as CSV; times in ns from ``origin_ns``."""
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("index,name,start_ns,end_ns,parent,workload,iteration\n")
            for index, (name, start, end, parent, iteration) in enumerate(self.spans):
                handle.write(
                    f"{index},{name},{start - origin_ns},{end - origin_ns},"
                    f"{parent},{self.workload},{iteration}\n"
                )


def layer_metrics(spans, counters):
    """Per-iteration layer metrics from the spans and counters of a tracer."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    in_edge_build = [False] * len(spans)
    sums = defaultdict(lambda: defaultdict(int))    # iteration -> key -> ns or calls
    for index, (name, start, end, parent, iteration) in enumerate(spans):
        in_edge_build[index] = name == "assignment.build_edge_weights" or (
            parent >= 0 and in_edge_build[parent]
        )
        if iteration < 0:
            continue
        acc = sums[iteration]
        duration = end - start
        acc[name] += duration
        acc["self " + name] += duration - child_ns[index]
        acc["calls " + name] += 1
        if name.startswith("phy."):
            acc["phy"] += duration
            acc["calls phy"] += 1
            if in_edge_build[index]:
                acc["phy in edge build"] += duration
            if parent >= 0 and spans[parent][0] == "assignment.optimal_power":
                acc["phy calls in search"] += 1
    return {
        iteration: _metrics(acc, counters.get(iteration, {}))
        for iteration, acc in sums.items()
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _metrics(acc, count):
    s = 1e-9
    searches = acc["calls assignment.optimal_power"]
    edge_build = acc["assignment.build_edge_weights"]
    return {
        "config.load_s": acc["config.load"] * s,
        "phy.calls": acc["calls phy"],
        "phy.busy_s": acc["phy"] * s,
        "phy.us_per_call": _ratio(acc["phy"] * 1e-3, acc["calls phy"]),
        "assignment.edge_build_s": edge_build * s,
        "assignment.edge_build_self_s": (edge_build - acc["phy in edge build"]) * s,
        "assignment.edges": count.get("edges", 0),
        "assignment.feasible_share": _ratio(count.get("feasible_edges", 0), count.get("edges", 0)),
        "assignment.power_search_calls": searches,
        "assignment.phy_calls_per_search": _ratio(acc["phy calls in search"], searches),
        "assignment.min_power_search_s": acc["assignment.feasible_power_interval"] * s,
        "assignment.matching_s": acc["assignment.matching"] * s,
        "assignment.matching_calls": acc["calls assignment.matching"],
        "assignment.solver_iterations": count.get("solver_iterations", 0),
        "assignment.matching_pad_share":
            _ratio(count.get("matching_cells", 0), count.get("matching_square_cells", 0)),
        "training.run_s": acc["training.run_training"] * s,
        "training.runs": acc["calls training.run_training"],
        "training.rounds": count.get("rounds", 0),
        "training.us_per_round":
            _ratio(acc["training.run_training"] * 1e-3, count.get("rounds", 0)),
        "training.delivered_share":
            _ratio(count.get("delivered", 0), count.get("selected_user_rounds", 0)),
        "bounds.fit_s": acc["bounds.fit_gradient_bound"] * s,
        "bounds.fit_points": count.get("fit_points", 0),
        "bounds.analysis_s": acc["bounds.analysis"] * s,
        "bounds.slope_limit_s": acc["bounds.convergence_slope_limit"] * s,
        "harness.topology_s": acc["harness.build_topology"] * s,
        "harness.self_s":
            (acc["self harness.run_experiment"] + acc["self harness.bound_report"]) * s,
        "harness.export_s": acc["harness.export"] * s,
        "harness.output_bytes": count.get("output_bytes", 0),
        "cli.self_s": acc["self cli.main"] * s,
    }
