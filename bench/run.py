"""Benchmark for fedwireless: closed-loop CLI runs on generated configs.

Usage (from the repository root):

    python3 bench/run.py --workload reference --seed 1 --seconds 15 --trace 0

One caller in one process runs one workload iteration (one ``fedwireless``
CLI command, in-process) after another for ``--seconds`` seconds.  The
iterations run in a child process (``bench/child.py``) with BLAS pinned to
one thread; this parent only writes the inputs, starts the children, and
turns their raw timings into metrics.  ``--trace 0`` reports the end-to-end
metrics of an untraced run; ``--trace 1`` reports per-layer metrics from a
run whose layers are wrapped in spans (see ``bench/layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else (the
environment fingerprint, output digests, per-iteration times, the span
trace) goes to ``.bench_out/<workload>-s<seed>-t<trace>/`` in the checkout.
See ``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Each workload's child must finish well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
# Set-up is timed in this many fresh children (plus the measuring child),
# half before and half after the measuring child, so that one burst of
# machine noise cannot move the median.
SETUP_RUNS = 16

# Per-RB background interference of configs/reference.cfg (a geometric ramp
# from 1e-9 W to 1e-7 W); other RB counts use the same ramp end points.
REFERENCE_RAMP = (
    1e-09, 1.519911082952933e-09, 2.310129700083158e-09, 3.5111917342151273e-09,
    5.336699231206302e-09, 8.11130830789689e-09, 1.2328467394420658e-08,
    1.873817422860383e-08, 2.848035868435805e-08, 4.328761281083061e-08,
    6.579332246575682e-08, 1e-07,
)
ALGORITHMS = ("proposed", "baseline_a", "baseline_b", "baseline_c")


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; every other config key keeps its reference value."""

    command: str              # "simulate" or "bound"
    users: int
    rbs: int
    seeds: int                # config seeds, derived from the benchmark seed
    rounds: int = 100
    radius_m: float = 500.0
    energy_budget_j: float = 0.003

    def cells(self) -> int:
        """Work units per iteration: (algorithm, seed) cells, or training runs."""
        return self.seeds * (len(ALGORITHMS) if self.command == "simulate" else 1)


WORKLOADS = {
    "reference": Workload("simulate", users=15, rbs=12, seeds=64),
    "dense-cell": Workload("simulate", users=300, rbs=20, seeds=1),
    "contested-cell": Workload(
        "simulate", users=120, rbs=60, seeds=1, radius_m=1000.0, energy_budget_j=0.0022
    ),
    "bound-trajectories": Workload("bound", users=15, rbs=12, seeds=200, rounds=500),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

PER_LAYER_UNITS = {
    "config.load_s": "s",
    "phy.calls": "count",
    "phy.busy_s": "s",
    "phy.us_per_call": "us",
    "assignment.edge_build_s": "s",
    "assignment.edge_build_self_s": "s",
    "assignment.edges": "count",
    "assignment.feasible_share": "ratio",
    "assignment.power_search_calls": "count",
    "assignment.phy_calls_per_search": "ratio",
    "assignment.min_power_search_s": "s",
    "assignment.matching_s": "s",
    "assignment.matching_calls": "count",
    "assignment.solver_iterations": "count",
    "assignment.matching_pad_share": "ratio",
    "training.run_s": "s",
    "training.runs": "count",
    "training.rounds": "count",
    "training.us_per_round": "us",
    "training.delivered_share": "ratio",
    "bounds.fit_s": "s",
    "bounds.fit_points": "count",
    "bounds.analysis_s": "s",
    "bounds.slope_limit_s": "s",
    "harness.topology_s": "s",
    "harness.self_s": "s",
    "harness.export_s": "s",
    "harness.output_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}


def config_seeds(workload: Workload, seed: int) -> list[int]:
    return random.Random(seed).sample(range(1, 2**31 - 1), workload.seeds)


def config_text(workload: Workload, seeds) -> str:
    """Full INI text of the workload's config: reference radio parameters,
    with the workload's size, cell, budget, rounds and seed list."""
    if workload.rbs == len(REFERENCE_RAMP):
        ramp = REFERENCE_RAMP
    else:
        ramp = tuple(10.0 ** (-9 + 2 * n / (workload.rbs - 1)) for n in range(workload.rbs))
    return "\n".join([
        "[network]",
        f"rb_count = {workload.rbs}",
        "rb_bandwidth_hz = 1e6",
        "downlink_bandwidth_hz = 20e6",
        "noise_density_dbm_per_hz = -174",
        "bs_power_w = 1.0",
        "max_user_power_w = 0.01",
        "waterfall_threshold = 0.023",
        "uplink_interference_w = " + " ".join(repr(v) for v in ramp),
        "downlink_interference_w = 0.0",
        "delay_budget_s = 0.5",
        f"energy_budget_j = {workload.energy_budget_j!r}",
        "pathloss_exponent = 2.0",
        "",
        "[users]",
        f"count = {workload.users}",
        f"cell_radius_m = {workload.radius_m!r}",
        "sample_count_cycle = 12 10 8 4 2",
        "fading_scale = 1.0",
        "payload_bits = 5e4",
        "cpu_cycles_per_bit = 40.0",
        "cpu_freq_hz = 1e9",
        "energy_coeff = 1e-27",
        "",
        "[task]",
        "slope = -2.0",
        "intercept = 1.0",
        "noise_std = 0.4",
        "",
        "[training]",
        "learning_rate = one_over_L",
        f"rounds = {workload.rounds}",
        "initial_model = 0.0 0.0",
        "",
        "[experiment]",
        "algorithms = " + " ".join(ALGORITHMS),
        "seeds = " + " ".join(str(s) for s in seeds),
        "",
        "[fading]",
        "method = quadrature",
        "count = 64",
        "seed = 0",
        "",
    ])


def child_env() -> dict:
    """Environment of a child: this checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env.pop("FEDWIRELESS_OUTDIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(job: dict, job_path: Path, deadline: float) -> dict:
    """Run one child on a job file; returns its result with ``setup_s`` added."""
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path = Path(job["result"])
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(job_path)],
        env=child_env(),
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"{job['mode']} child exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - spawned
    return result


def measure(name, workload, seed, seconds, trace, workdir, setup_runs=SETUP_RUNS):
    """Run one workload; returns (result line dict, full report dict)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    seeds = config_seeds(workload, seed)
    config_path = workdir / "workload.cfg"
    config_path.write_text(config_text(workload, seeds), encoding="utf-8")
    job = {
        "workload": name,
        "command": workload.command,
        "config": str(config_path),
        "outdir": str(workdir / "out"),
        "seconds": seconds,
        "trace": bool(trace),
        "seed": seed,
        "src": str(ROOT / "src"),
        "result": str(workdir / "child_result.json"),
        "trace_file": str(workdir / "trace.csv"),
    }
    def probe_setup(count):
        return [
            run_child({**job, "mode": "setup"}, workdir / "job.json", deadline)["setup_s"]
            for _ in range(0 if trace else count)
        ]

    setups = probe_setup(setup_runs // 2)
    child = run_child({**job, "mode": "run"}, workdir / "job.json", deadline)
    setups += [child["setup_s"]] + probe_setup(setup_runs - setup_runs // 2)

    iterations = child["iterations"]
    attempted = len(iterations)
    failed = sum(1 for it in iterations if not it["ok"])
    measured = [it["seconds"] for it in iterations[1:] if not it["traced"]]
    if trace:
        # median_low keeps counts whole and every time an observed value.
        layers = {key: statistics.median_low(values) for key, values in child["layers"].items()}
        traced = [it["seconds"] for it in iterations[1:] if it["traced"]]
        layers["trace.overhead_share"] = statistics.median(traced) / statistics.median(measured) - 1.0
        values = layers
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": statistics.median(measured),
            "cells_per_s": workload.cells() * len(measured) / sum(measured),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
            "ok_share": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    report = {
        "workload": name,
        "workload_spec": asdict(workload),
        "config_seeds": seeds,
        "seconds": seconds,
        "trace": bool(trace),
        "failed_share": failed / attempted,
        "setup_s_samples": setups,
        "iterations": iterations,
        "problems": child["problems"],
        "outputs": child["outputs"],
        "fingerprint": child["fingerprint"],
        "result": line,
    }
    (workdir / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return line, report


def main(argv=None, workloads=WORKLOADS, setup_runs=SETUP_RUNS, out_root=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fedwireless" / "__init__.py").is_file():
        print(f"error: no fedwireless sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_root = ROOT / ".bench_out" if out_root is None else Path(out_root)
    workdir = out_root / f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        line, report = measure(
            args.workload, workloads[args.workload], args.seed, args.seconds,
            args.trace, workdir, setup_runs=setup_runs,
        )
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    for key, digest in sorted(report["outputs"]["sha256"].items()):
        print(f"output {key} sha256={digest}")
    print(f"allocation digests: {len(report['outputs']['allocation_digests'])} "
          f"(listed in {workdir / 'result.json'})")
    print(f"failed_share = {report['failed_share']!r} "
          f"({line['failed']} of {line['attempted']} iterations)")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for key, metric in line["metrics"].items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
