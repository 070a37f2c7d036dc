"""Smoke test of the benchmark: output schema and metric names on tiny inputs.

Asserts no timing.  Each workload runs at a tiny size, traced and untraced,
and its last output line must carry exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

_spec = importlib.util.spec_from_file_location("fedwireless_bench_run", BENCH_DIR / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_run      # dataclasses look the module up by name
_spec.loader.exec_module(bench_run)

TINY = {
    name: replace(workload, users=min(workload.users, 6), rbs=min(workload.rbs, 4),
                  seeds=min(workload.seeds, 3), rounds=min(workload.rounds, 20))
    for name, workload in bench_run.WORKLOADS.items()
}


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_declared_metrics_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(bench_run.WORKLOADS)
    assert _declared("end_to_end") == bench_run.END_TO_END_UNITS
    assert _declared("per_layer") == bench_run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_result_line_schema(workload, trace, tmp_path, capsys):
    code = bench_run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        workloads=TINY, setup_runs=1, out_root=tmp_path,
    )
    assert code == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 2
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])

    workdir = tmp_path / f"{workload}-s3-t{trace}"
    report = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    assert report["fingerprint"]["benchmark_seed"] == 3
    assert report["outputs"]["sha256"]
    if trace:
        header = (workdir / "trace.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "index,name,start_ns,end_ns,parent,workload,iteration"


def test_missing_sources_fail_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    code = bench_run.main(["--workload", "reference", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
