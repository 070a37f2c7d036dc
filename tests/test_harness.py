"""Orchestration tests: runs, persistence, sweeps, and the CLI surface."""

import configparser
import ctypes
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedwireless
from fedwireless import cli
from fedwireless.assignment import AllocationDecision, verify_allocation
from fedwireless.config import load_config, loads_config
from fedwireless.harness import (
    CSV_HEADER,
    RunRecord,
    _ulp_distance,
    bound_drift_report,
    build_topology,
    csv_drift_report,
    export_csv,
    load_manifest,
    read_csv_rows,
    run_experiment,
    sweep,
    write_manifest,
)
from fedwireless.phy import downlink_delay, training_energy, uplink_delay, user_energy

from util import REFERENCE, per_seed_allocation, record_downlink_sizes, record_integrand_sizes


# The reference run's runs.csv, whose sha256 is GOLDEN_REFERENCE_CSV_SHA256.
REFERENCE_CSV = Path(__file__).resolve().parent / "data" / "reference_runs.csv"

GOLDEN_REFERENCE_CSV_SHA256 = (
    "1f8346c560f977806ab522b7cf8dae3c569aa84ad1da5126867e76594dc1dbaf"
)

# The bound.csv that `fedwireless bound` writes for the reference config,
# whose sha256 is GOLDEN_REFERENCE_BOUND_SHA256 under numpy's default and
# X86_V3-limited SIMD dispatches alike.
REFERENCE_BOUND_CSV = Path(__file__).resolve().parent / "data" / "reference_bound.csv"

GOLDEN_REFERENCE_BOUND_SHA256 = (
    "35a1549b58e2837dd06f605c3cba4c54484617313508220c1dd5c46568e3e27f"
)

# tests/data/tall.cfg: the reference config with 40 users in a 1000 m cell
# and a binding energy budget, so pruning keeps 25 of 40 rows and every
# matching solves a rectangle in the order ``_candidate_rows`` gives.
TALL = Path(__file__).resolve().parent / "data" / "tall.cfg"

GOLDEN_TALL_CSV_SHA256 = (
    "931bf7c63c957d8092514b53159e43f22a3c8f3d620aa97cbb2982bc44f956bb"
)

# sha256 of the reference manifest.json after its first line (the
# environment block), written under numpy's X86_V3-limited SIMD dispatch.
GOLDEN_REFERENCE_MANIFEST_SHA256 = (
    "f1fe3554fa183d14b0f0f3c108a57e25cedac5501b93c4a8975274a1a1aa35a0"
)

def _cpu_has(*features):
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return all(__cpu_features__.get(f, False) for f in features)


x86_v3 = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _cpu_has("X86_V3"),
    reason="needs a CPU that runs numpy's x86 X86_V3 targets",
)


MINI = """
[network]
rb_count = 4
uplink_interference_w = 1e-9 8e-9 3e-8 1e-7

[users]
count = 6
sample_count_cycle = 12 10 8 4 2

[training]
rounds = 10

[experiment]
algorithms = proposed baseline_b
seeds = 3
"""


def mini_config(**overrides):
    config = loads_config(MINI)
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return config


def test_package_exports_each_modules_all_once():
    # Each module's __all__ is the one list of its public names: the
    # package re-exports their union, and no name means two objects.
    modules = [importlib.import_module(f"fedwireless.{info.name}")
               for info in pkgutil.iter_modules(fedwireless.__path__)]
    listed = [(name, module) for module in modules for name in getattr(module, "__all__", ())]
    public = {name for name, value in vars(fedwireless).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {name for name, _ in listed}
    assert all(getattr(module, name) is getattr(fedwireless, name) for name, module in listed)


class TestRunExperiment:
    def test_single_cell_single_record(self):
        config = mini_config(algorithms=("proposed",), seeds=(3,))
        records = run_experiment(config)
        assert len(records) == 1
        assert records[0].algorithm == "proposed"
        assert records[0].seed == 3
        assert len(records[0].losses) == config.rounds + 1

    def test_deterministic_cell_ordering(self):
        config = mini_config(algorithms=("proposed", "baseline_b"), seeds=(1, 2, 3))
        records = run_experiment(config)
        cells = [(r.algorithm, r.seed) for r in records]
        assert cells == [
            ("proposed", 1), ("proposed", 2), ("proposed", 3),
            ("baseline_b", 1), ("baseline_b", 2), ("baseline_b", 3),
        ]

    def test_topology_shared_across_algorithms(self):
        config = mini_config()
        records = run_experiment(config)
        proposed = next(r for r in records if r.algorithm == "proposed")
        random_b = next(r for r in records if r.algorithm == "baseline_b")
        assert proposed.losses[0] == random_b.losses[0]   # same data, same g_0

    def test_allocations_pass_invariants(self):
        config = mini_config()
        records = run_experiment(config)
        for record in records:
            users, _ = build_topology(config, record.seed)
            decision = decision_from_record(record, config)
            assert verify_allocation(decision, users, config.network, config.fading) == []

    def test_degenerate_topology_is_a_run_not_a_crash(self):
        # Energy budget below the training cost: nobody can be scheduled.
        from dataclasses import replace

        config = mini_config()
        config = replace(config, network=replace(config.network, energy_budget_j=1e-3))
        records = run_experiment(config)
        for record in records:
            assert sum(record.selection) == 0
            assert record.losses == [record.losses[0]] * len(record.losses)

    def test_rerun_bit_identical(self, tmp_path):
        config = mini_config()
        for name in ("a.json", "b.json"):
            write_manifest(run_experiment(config), tmp_path / name, config=config)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_each_power_search_runs_once_per_run(self, monkeypatch):
        # One energy search covers the pooled edge build of every seed, and
        # one delay search covers baseline b's kept pairs of every seed:
        # baseline b takes its gate and power caps from the edge build.
        # Each search's edges then go through one link call.  Only the edge
        # build's cohort evaluates a downlink, one per user: baseline b takes
        # its kept pairs from that cohort.
        from fedwireless import assignment

        searched, linked = [], []
        band, link = assignment._certified_band, assignment._link

        def recorded(lo, hi, columns, measure):
            searched.append(lo.size)
            return band(lo, hi, columns, measure)

        def recorded_link(users, power, params, fexp):
            linked.append(power.size)
            return link(users, power, params, fexp)

        monkeypatch.setattr(assignment, "_certified_band", recorded)
        monkeypatch.setattr(assignment, "_link", recorded_link)
        downlinks = record_downlink_sizes(monkeypatch)
        config = load_config(REFERENCE)
        records = run_experiment(config)
        edges = len(config.seeds) * config.user_count * config.network.rb_count
        kept = sum(sum(r.selection) for r in records if r.algorithm == "baseline_b")
        assert searched == [edges, kept] and kept > 0
        assert linked == searched
        assert downlinks == [len(config.seeds) * config.user_count]


POOLED = """
[network]
rb_count = {rbs}
uplink_interference_w = {ramp}
energy_budget_j = 0.0022

[users]
count = {users}
cell_radius_m = {radius}
sample_count_cycle = 12 10 8 4 2

[training]
rounds = 12

[experiment]
algorithms = proposed baseline_a baseline_b baseline_c
seeds = {seeds}

[fading]
{fading}
"""


def pooled_config(users, rbs, seeds, radius=1000.0, fading="method = quadrature"):
    ramp = " ".join(repr(float(v)) for v in np.logspace(-9, -7, rbs))
    return loads_config(POOLED.format(
        users=users, rbs=rbs, ramp=ramp, radius=radius, seeds=seeds, fading=fading
    ))


def float_bits(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("config", [
    pooled_config(6, 4, "1 2 3"),
    pooled_config(3, 5, "1 2"),
    pooled_config(6, 4, "1 2", fading="method = monte_carlo\ncount = 256\nseed = 7"),
    pooled_config(2, 3, "1 2 4", radius=3000.0),
], ids=["more_users_than_rbs", "more_rbs_than_users", "monte_carlo", "nothing_schedulable"])
def test_pooled_run_equals_per_seed_allocations_and_training(config, monkeypatch):
    # run_experiment pools the power searches of all seeds; each record must
    # equal a one-seed allocation plus the sequential training oracle, bit
    # for bit, and baseline b must leave each seed's generator where a
    # one-seed call leaves it.
    from fedwireless import assignment
    from fedwireless.harness import resolve_learning_rate
    from test_training import sequential_training

    pooled_rngs, single_rngs, random_all = [], [], assignment._random_all

    def capture_into(captured):
        def capture(rngs, *args):
            captured.extend(rngs)
            return random_all(rngs, *args)
        return capture

    with monkeypatch.context() as patch:
        patch.setattr(assignment, "_random_all", capture_into(pooled_rngs))
        records = run_experiment(config)
    monkeypatch.setattr(assignment, "_random_all", capture_into(single_rngs))
    selected = {}
    for record in records:
        users, dataset = build_topology(config, record.seed)
        decision = per_seed_allocation(record.algorithm, users, config, record.seed)
        lr = resolve_learning_rate(config, dataset)
        losses, _, _ = sequential_training(
            dataset, decision, lr, config.rounds,
            np.random.default_rng([record.seed, 3]), config.initial_model,
        )
        assigned = decision.rb_assignment
        assert record.selection == decision.selection.tolist()
        assert record.rb_index == np.where(
            assigned.any(axis=1), assigned.argmax(axis=1), -1).tolist()
        for name in ("power_w", "error_rate", "delay_s", "energy_j", "objective"):
            assert float_bits(getattr(record, name)) == float_bits(getattr(decision, name)), name
        assert record.solver_iterations == decision.solver_iterations
        assert float_bits(record.losses) == float_bits(losses)
        assert float_bits(record.learning_rate) == float_bits(lr)
        selected[record.algorithm, record.seed] = sum(record.selection)
    assert len(pooled_rngs) == len(single_rngs) == len(config.seeds)
    for pooled_rng, single_rng in zip(pooled_rngs, single_rngs):
        assert pooled_rng.bit_generator.state == single_rng.bit_generator.state
    if config.seeds == (1, 2, 4):       # seed 2 has no feasible edge
        assert all(selected[algorithm, 2] == 0 for algorithm in config.algorithms)
        assert selected["proposed", 1] > 0 and selected["proposed", 4] > 0


@pytest.mark.parametrize("config", [
    load_config(REFERENCE),
    pooled_config(120, 60, "5"),
    pooled_config(300, 20, "5", radius=500.0),
], ids=["reference", "binding_120x60", "dense_300x20"])
def test_kernel_calls_stay_under_the_cohort_budget(config, monkeypatch):
    # Pooling the searches must not pool the (edges x nodes) temporaries:
    # every fading expectation run_experiment takes covers at most
    # _COHORT_ELEMENTS edges x nodes, also where one RB column of 300 users
    # x 64 nodes alone is larger.
    from fedwireless import phy

    sizes = record_integrand_sizes(monkeypatch)
    run_experiment(replace(config, rounds=2))
    assert sizes and max(sizes) <= phy._COHORT_ELEMENTS


def decision_from_record(record, config):
    n_rbs = config.network.rb_count
    n_users = len(record.selection)
    rb = np.zeros((n_users, n_rbs), dtype=int)
    for i, n in enumerate(record.rb_index):
        if n >= 0:
            rb[i, n] = 1
    return AllocationDecision(
        selection=np.asarray(record.selection),
        rb_assignment=rb,
        power_w=np.asarray(record.power_w),
        objective=record.objective,
        error_rate=np.asarray(record.error_rate),
        delay_s=np.asarray(record.delay_s),
        energy_j=np.asarray(record.energy_j),
        solver_iterations=record.solver_iterations,
    )


class TestPersistence:
    def test_one_round_two_data_rows(self, tmp_path):
        # Round 0 (the initial loss) and round 1.
        config = mini_config(algorithms=("proposed",), seeds=(3,), rounds=1)
        records = run_experiment(config)
        path = tmp_path / "runs.csv"
        export_csv(records, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[2] for line in lines[1:]] == ["0", "1"]

    def test_csv_round_trip(self, tmp_path):
        config = mini_config()
        records = run_experiment(config)
        path = tmp_path / "runs.csv"
        export_csv(records, path)
        rows = read_csv_rows(path)
        assert len(rows) == sum(len(r.losses) for r in records)
        by_key = {(r.algorithm, r.seed): r for r in records}
        for row in rows:
            record = by_key[(row["algorithm"], row["seed"])]
            assert row["loss"] == record.losses[row["round"]]
            assert row["allocation_digest"] == record.allocation_digest()
            assert list(row) == CSV_HEADER.split(",")

    def test_manifest_lossless(self, tmp_path):
        # The manifest holds every field but the losses, runs.csv the
        # losses; load_manifest joins the two files back into the records.
        records = self._write_both(tmp_path)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert all("losses" not in item for item in payload["records"])
        reloaded = load_manifest(tmp_path / "manifest.json")
        assert [vars(r) for r in reloaded] == [vars(r) for r in records]

    @staticmethod
    def _write_both(tmp_path, **overrides):
        """Write runs.csv and manifest.json of a small run; its records."""
        config = mini_config(**overrides)
        records = run_experiment(config)
        export_csv(records, tmp_path / "runs.csv")
        write_manifest(records, tmp_path / "manifest.json", config=config)
        return records

    @pytest.mark.parametrize("key", ["bound", "wall_clock_s", "losses", "final_loss"])
    def test_manifest_with_a_removed_record_field_is_rejected(self, tmp_path, key):
        # A manifest written before RunRecord lost the field, or before the
        # losses moved to runs.csv alone, does not load; rerunning simulate
        # rewrites it.
        self._write_both(tmp_path, algorithms=("proposed",), seeds=(3,), rounds=1)
        path = tmp_path / "manifest.json"
        payload = json.loads(path.read_text())
        payload["records"][0][key] = 0.0
        path.write_text(json.dumps(payload))
        with pytest.raises(TypeError, match=key):
            load_manifest(path)

    @pytest.mark.parametrize("damage", ["drop_cell", "drop_last_round", "swap_rounds"])
    def test_manifest_with_rows_not_rounds_0_to_t_is_rejected(self, tmp_path, damage):
        self._write_both(tmp_path, seeds=(3, 4), rounds=3)
        csv_path = tmp_path / "runs.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        cell = [n for n, line in enumerate(lines) if line.startswith("baseline_b,4,")]
        if damage == "drop_cell":
            del lines[cell[0]:cell[-1] + 1]
        elif damage == "drop_last_round":
            del lines[cell[-1]]
        else:
            lines[cell[1]], lines[cell[2]] = lines[cell[2]], lines[cell[1]]
        csv_path.write_text("".join(lines))
        with pytest.raises(ValueError, match="baseline_b seed 4 are not rounds 0 to 3 in order"):
            load_manifest(tmp_path / "manifest.json")

    def test_manifest_without_its_runs_csv_names_the_file(self, tmp_path):
        self._write_both(tmp_path, algorithms=("proposed",), seeds=(3,), rounds=1)
        (tmp_path / "runs.csv").unlink()
        with pytest.raises(OSError, match="runs.csv"):
            load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("row, cause", [
        ("proposed,3,0,0.5", "not enough values to unpack"),
        ("proposed,x,0,0.5,abcdef012345", "invalid literal for int"),
        ("proposed,3,0,half,abcdef012345", "could not convert string to float"),
    ])
    def test_bad_csv_row_names_the_file_and_line(self, tmp_path, row, cause):
        path = tmp_path / "runs.csv"
        path.write_text(f"{CSV_HEADER}\nproposed,3,1,0.25,abcdef012345\n{row}\n")
        with pytest.raises(ValueError, match=rf"runs\.csv line 3: {cause}"):
            read_csv_rows(path)

    def test_manifest_records_the_environment(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["simulate", str(REFERENCE), "--outdir", str(out)]) == cli.EXIT_OK
        environment = json.loads((out / "manifest.json").read_text())["environment"]
        numpy_config = np.show_config(mode="dicts")
        assert environment == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {key: numpy_config["Build Dependencies"]["blas"].get(key)
                     for key in ("name", "version", "openblas configuration")},
            "blas_kernel": _openblas_corename() or environment.get("blas_kernel"),
            "simd_baseline": numpy_config["SIMD Extensions"]["baseline"],
            "simd_dispatch": numpy_config["SIMD Extensions"]["found"],
        }
        assert len(load_manifest(out / "manifest.json")) == 8
        assert (out / "runs.csv").read_bytes() == REFERENCE_CSV.read_bytes()

    def test_export_refuses_empty(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv([], tmp_path / "x.csv")

    def test_csv_byte_identical_across_invocations(self, tmp_path):
        config = mini_config()
        export_csv(run_experiment(config), tmp_path / "a.csv")
        export_csv(run_experiment(config), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_reference_run_golden_digest(self, tmp_path):
        # Golden capture of the reference run's CSV. Its bytes depend on the
        # config, the seeds and numpy's elementwise math and reductions, not
        # on the BLAS kernel or thread count (the training loop and the
        # curvature use no BLAS product; see
        # test_reference_csv_independent_of_blas_kernel). A mismatch is a
        # change in the numbers: the message says which value moved, by how
        # many ulps, and whether an allocation moved. Re-capture the digest
        # and tests/data/reference_runs.csv only for a change meant to move
        # them, and only with that report and unmoved allocation digests.
        from fedwireless.config import load_config

        assert _sha256(REFERENCE_CSV) == GOLDEN_REFERENCE_CSV_SHA256
        config = load_config(REFERENCE)
        path = tmp_path / "runs.csv"
        export_csv(run_experiment(config), path)
        digest = _sha256(path)
        assert digest == GOLDEN_REFERENCE_CSV_SHA256, csv_drift_report(REFERENCE_CSV, path)

    def test_tall_run_golden_digest_and_settles(self, tmp_path):
        # The one golden taken on rectangular kept-row solves.  The settle
        # counts are the solver's work, summed over both seeds: strongest
        # rows first, against 286 and 265 when rows went in index order.
        from fedwireless.config import load_config

        records = run_experiment(load_config(TALL))
        path = tmp_path / "runs.csv"
        export_csv(records, path)
        assert _sha256(path) == GOLDEN_TALL_CSV_SHA256
        settles = {}
        for record in records:
            settles[record.algorithm] = settles.get(record.algorithm, 0) + record.solver_iterations
        assert settles == {"proposed": 170, "baseline_a": 0, "baseline_b": 0, "baseline_c": 178}

    def test_reference_bound_golden_digest(self, tmp_path):
        # Golden capture of the reference bound.csv: the bound series and
        # the measured mean excess loss at every step, as repr floats.  The
        # bound is the theorem's recursion in IEEE multiplies and adds, so
        # the bytes hold under numpy's AVX-512 and AVX2 dispatches alike (CI
        # runs this file under both).  A mismatch names the first differing
        # step and each column's largest distance in ulps.
        assert _sha256(REFERENCE_BOUND_CSV) == GOLDEN_REFERENCE_BOUND_SHA256
        assert cli.main(["bound", str(REFERENCE), "--outdir", str(tmp_path)]) == cli.EXIT_OK
        path = tmp_path / "bound.csv"
        assert _sha256(path) == GOLDEN_REFERENCE_BOUND_SHA256, (
            bound_drift_report(REFERENCE_BOUND_CSV, path)
        )

    def test_bound_drift_report_names_step_and_column_ulps(self, tmp_path):
        lines = REFERENCE_BOUND_CSV.read_text().splitlines(keepends=True)
        step, bound, excess = lines[7].rstrip("\n").split(",")
        nudged = repr(float(np.nextafter(np.nextafter(float(bound), -np.inf), -np.inf)))
        lines[7] = ",".join([step, nudged, excess]) + "\n"
        path = tmp_path / "bound.csv"
        path.write_text("".join(lines))
        report = bound_drift_report(REFERENCE_BOUND_CSV, path)
        assert f"first differing step: {step}" in report
        assert "bound: 2 ulps, mean_excess_loss: 0 ulps" in report
        unchanged = bound_drift_report(REFERENCE_BOUND_CSV, REFERENCE_BOUND_CSV)
        assert unchanged.startswith("first differing step: none")

    def test_ulp_distance_counts_across_zero(self):
        pairs = [(1.0, float(np.nextafter(1.0, 2.0))), (-0.0, 0.0), (-5e-324, 5e-324),
                 (-1.0, float(np.nextafter(-1.0, 0.0)))]
        assert [_ulp_distance(a, b) for a, b in pairs] == [1, 0, 2, 1]

    def test_drift_report_names_row_ulps_and_moved_allocations(self, tmp_path):
        lines = REFERENCE_CSV.read_text().splitlines(keepends=True)
        algorithm, seed, step, loss, digest = lines[150].rstrip("\n").split(",")
        nudged = repr(float(np.nextafter(np.nextafter(float(loss), np.inf), np.inf)))
        lines[150] = ",".join([algorithm, seed, step, nudged, "0" * 12]) + "\n"
        path = tmp_path / "runs.csv"
        path.write_text("".join(lines))
        report = csv_drift_report(REFERENCE_CSV, path)
        assert f"first differing row: ({algorithm}, {seed}, {step})" in report
        assert f"{algorithm}/{seed}: 2 ulps" in report
        assert f"allocation_digest moved: {algorithm}/{seed}" in report
        unchanged = csv_drift_report(REFERENCE_CSV, REFERENCE_CSV)
        assert unchanged.endswith("allocation_digest moved: none")

    def test_streamed_export_equals_one_joined_payload(self, tmp_path):
        config = mini_config(seeds=(3, 4), rounds=5)
        records = run_experiment(config)
        # The whole file built as one string, as a list of every row.
        lines = ["algorithm,seed,round,loss,allocation_digest"]
        for record in records:
            for step in range(len(record.losses)):
                lines.append(
                    f"{record.algorithm},{record.seed},{step},"
                    f"{repr(float(record.losses[step]))},{record.allocation_digest()}"
                )
        path = tmp_path / "runs.csv"
        export_csv(records, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestBoundReport:
    def test_builds_no_run_record(self, monkeypatch):
        from fedwireless import harness

        def refuse(*args):
            raise AssertionError("bound_report built a RunRecord")

        monkeypatch.setattr(harness, "_record_from_run", refuse)
        config = mini_config(seeds=(3, 4), rounds=5)
        report = harness.bound_report(config)
        assert "records" not in report
        assert report["mean_excess"].shape == (config.rounds + 1,)

    def test_mean_excess_is_the_gap_of_one_cell_runs(self):
        # The batch trains each seed as run_training does alone, on the
        # seed's packet-loss stream [seed, 3], bit for bit.
        from fedwireless import bounds, training
        from fedwireless.harness import bound_report, resolve_learning_rate

        config = mini_config(seeds=(3, 4, 9), rounds=8)
        report = bound_report(config)
        _, dataset = build_topology(config, config.seeds[0])
        lr = resolve_learning_rate(config, dataset)
        losses = [
            training.run_training(
                dataset, report["decision"], lr, config.rounds,
                np.random.default_rng([seed, 3]), config.initial_model,
            )[0]
            for seed in config.seeds
        ]
        expected = bounds.empirical_gap(losses, training.least_squares_model(dataset), dataset)
        assert float_bits(report["mean_excess"]) == float_bits(expected)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _openblas_dynamic_arch():
    """True when numpy's BLAS is an OpenBLAS built to pick its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# OpenBLAS kernels that round differently (FMA use, blocking), with the CPU
# features each one executes.
BLAS_KERNELS = {"Nehalem": ("SSE42",), "Sandybridge": ("AVX",), "Haswell": ("AVX2", "FMA3")}


# Curvature constants of 450 datasets, one line each, as exact hex floats.
CURVATURE_PROBE = """
import numpy as np
from fedwireless.bounds import curvature
from fedwireless.training import generate_regression_data
for seed in range(90):
    for counts in ([12, 10, 8, 4, 2] * 3, [5] * 40, [3, 7, 11, 50], [200] * 10, range(1, 31)):
        c = curvature(generate_regression_data(np.random.default_rng([seed, 1]), counts))
        print(c.lipschitz_l.hex(), c.strong_convexity_mu.hex())
"""


# Both gradient-norm profiles of 400 models on each of 30 datasets, one line
# per (dataset, profile), as exact hex floats.
GRADIENT_PROFILE_PROBE = """
import numpy as np
from fedwireless.bounds import _gradient_norm_profiles
from fedwireless.training import generate_regression_data
for seed in range(30):
    rng = np.random.default_rng([seed, 2])
    dataset = generate_regression_data(rng, rng.integers(1, 60, int(rng.integers(5, 40))))
    models = 3.0 * rng.standard_normal((400, 2))
    for profile in _gradient_norm_profiles(dataset, models):
        print(" ".join(value.hex() for value in profile))
"""


def _run_with_kernel(kernel, args, cpu_features=None):
    """Run the package's Python with OPENBLAS_CORETYPE set (None: the
    default) and numpy's NPY_ENABLE_CPU_FEATURES set (None: this process's
    setting, so that the child dispatches as the in-process fixtures do)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    src = str(Path(fedwireless.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    chosen = {"OPENBLAS_CORETYPE": kernel, "NPY_ENABLE_CPU_FEATURES": cpu_features}
    env.update((k, v) for k, v in chosen.items() if v is not None)
    return subprocess.run(
        [sys.executable, *args], env=env, check=True, capture_output=True, text=True, timeout=300
    )


def _openblas_corename():
    """Core name of the OpenBLAS library file numpy ships, or None."""
    libraries = sorted(
        Path(np.__file__).resolve().parent.parent.glob("numpy.libs/libscipy_openblas*")
    )
    if not libraries:
        return None
    corename = ctypes.CDLL(str(libraries[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


blas_kernels = pytest.mark.skipif(
    not _openblas_dynamic_arch(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS"
)


def _skip_unless_cpu_runs(kernel):
    if not _cpu_has(*BLAS_KERNELS[kernel]):
        pytest.skip(f"this CPU cannot run the {kernel} kernel")


@pytest.fixture(scope="module")
def in_process_reference_outputs(tmp_path_factory):
    """The reference config's runs.csv and bound.csv, written in this process."""
    from fedwireless.config import load_config

    out = tmp_path_factory.mktemp("reference")
    export_csv(run_experiment(load_config(REFERENCE)), out / "runs.csv")
    assert cli.main(["bound", str(REFERENCE), "--outdir", str(out)]) == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def default_kernel_curvature():
    return _run_with_kernel(None, ["-c", CURVATURE_PROBE]).stdout.splitlines()


# The CSV each subcommand writes; the simulate cases are named by the kernel alone.
REFERENCE_CSVS = {"simulate": "runs.csv", "bound": "bound.csv"}


@blas_kernels
@pytest.mark.parametrize("kernel, command", [
    pytest.param(kernel, command, id=kernel if command == "simulate" else f"{kernel}-{command}")
    for command in REFERENCE_CSVS for kernel in sorted(BLAS_KERNELS)
])
def test_reference_csv_independent_of_blas_kernel(
    kernel, command, in_process_reference_outputs, tmp_path
):
    _skip_unless_cpu_runs(kernel)
    out = tmp_path / kernel
    _run_with_kernel(
        kernel, ["-m", "fedwireless.cli", command, str(REFERENCE), "--outdir", str(out)]
    )
    name = REFERENCE_CSVS[command]
    written, expected = out / name, in_process_reference_outputs / name
    report = (csv_drift_report if command == "simulate" else bound_drift_report)(expected, written)
    assert written.read_bytes() == expected.read_bytes(), report


@blas_kernels
@pytest.mark.parametrize("kernel", sorted(BLAS_KERNELS))
def test_curvature_independent_of_blas_kernel(kernel, default_kernel_curvature):
    # curvature sets the one_over_L learning rate behind every loss; the
    # reference seeds alone do not show a kernel-dependent Gram matrix.
    _skip_unless_cpu_runs(kernel)
    named = _run_with_kernel(kernel, ["-c", CURVATURE_PROBE]).stdout.splitlines()
    assert len(default_kernel_curvature) == len(named) == 450
    differing = sum(a != b for a, b in zip(default_kernel_curvature, named))
    assert differing == 0, f"{differing} of 450 (L, mu) pairs differ under {kernel}"


@pytest.fixture(scope="module")
def default_kernel_gradient_profiles():
    return _run_with_kernel(None, ["-c", GRADIENT_PROFILE_PROBE]).stdout.splitlines()


@blas_kernels
@pytest.mark.parametrize("kernel", sorted(BLAS_KERNELS))
def test_gradient_profiles_independent_of_blas_kernel(kernel, default_kernel_gradient_profiles):
    # The reference bound fit does not move under any kernel even where
    # these profiles would, so the reference bound.csv alone cannot show it.
    _skip_unless_cpu_runs(kernel)
    named = _run_with_kernel(kernel, ["-c", GRADIENT_PROFILE_PROBE]).stdout.splitlines()
    assert len(default_kernel_gradient_profiles) == len(named) == 60
    differing = sum(
        a != b
        for line_a, line_b in zip(default_kernel_gradient_profiles, named)
        for a, b in zip(line_a.split(), line_b.split())
    )
    assert differing == 0, f"{differing} of 24000 profile values differ under {kernel}"


class TestSweep:
    def test_single_value_matches_run_experiment(self):
        config = mini_config()
        rows = sweep(config, "rb_count", [4])
        records = run_experiment(config)
        for algorithm in config.algorithms:
            row = next(r for r in rows if r["algorithm"] == algorithm)
            finals = [r.losses[-1] for r in records if r.algorithm == algorithm]
            assert row["mean_final_loss"] == pytest.approx(np.mean(finals), rel=1e-12)

    def test_axis_and_value_validation(self):
        with pytest.raises(ValueError):
            sweep(mini_config(), "bandwidth", [1])
        with pytest.raises(ValueError):
            sweep(mini_config(), "rb_count", [])
        with pytest.raises(ValueError):
            sweep(mini_config(), "rb_count", [0])
        # 2.5 would run 2 RBs under the label 2.5, and True one user.
        with pytest.raises(ValueError, match="2.5"):
            sweep(mini_config(), "rb_count", [2.5])
        with pytest.raises(ValueError, match="True"):
            sweep(mini_config(), "user_count", [True])

    def test_samples_axis_overrides_cycle(self):
        config = mini_config(algorithms=("proposed",), seeds=(3,), rounds=3)
        rows = sweep(config, "samples_per_user", [5])
        assert rows[0]["value"] == 5

    def test_rb_axis_changes_network(self):
        config = mini_config(algorithms=("proposed",), seeds=(3,), rounds=3)
        rows = sweep(config, "rb_count", [2, 4])
        assert [r["value"] for r in rows] == [2, 4]


# Each output file and the command that writes it.
OUTPUT_COMMANDS = {
    "runs.csv": ["simulate"],
    "manifest.json": ["simulate"],
    "bound.csv": ["bound"],
    "sweep_rb_count.csv": ["sweep", "--axis", "rb_count", "--values", "2"],
}


class TestCli:
    def test_simulate_writes_outputs(self, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI)
        out = tmp_path / "out"
        code = cli.main(["simulate", str(cfg), "--outdir", str(out)])
        assert code == 0
        assert (out / "runs.csv").exists()
        assert (out / "manifest.json").exists()

    def test_simulate_byte_identical(self, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", str(cfg), "--outdir", str(out_a)]) == 0
        assert cli.main(["simulate", str(cfg), "--outdir", str(out_b)]) == 0
        assert (out_a / "runs.csv").read_bytes() == (out_b / "runs.csv").read_bytes()

    def test_outdir_is_not_overridden_by_the_environment(self, tmp_path, monkeypatch):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI)
        monkeypatch.setenv("FEDWIRELESS_OUTDIR", str(tmp_path / "env_out"))
        assert cli.main(["simulate", str(cfg), "--outdir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "runs.csv").exists()
        assert not (tmp_path / "env_out").exists()

    @pytest.mark.parametrize("command", ["assign", "validate"])
    def test_commands_that_write_nothing_reject_outdir(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, str(REFERENCE), "--outdir", str(tmp_path / "out")])
        assert exit_info.value.code == 2    # argparse's usage error
        assert "unrecognized arguments: --outdir" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_assign_prints_table(self, tmp_path, capsys):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI)
        assert cli.main(["assign", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "user" in out and "power_w" in out
        assert "seed 3" in out

    def test_assign_makes_one_power_search(self, monkeypatch, capsys):
        # Every seed's edges go through one pooled edge build, as in
        # run_experiment: one energy search over all of them.
        from fedwireless import assignment

        searched, band = [], assignment._certified_band

        def recorded(lo, hi, columns, measure):
            searched.append(lo.size)
            return band(lo, hi, columns, measure)

        monkeypatch.setattr(assignment, "_certified_band", recorded)
        config = load_config(REFERENCE)
        code = cli.main(["assign", str(REFERENCE)])
        out, err = capsys.readouterr()
        assert (code, err) == (cli.EXIT_OK, "")
        # 2 seeds x 15 users x 12 RBs: 360 edges.
        assert searched == [len(config.seeds) * config.user_count * config.network.rb_count]
        headers = [line.split(":")[0] for line in out.splitlines() if line.startswith("seed ")]
        assert headers == [f"seed {seed}" for seed in config.seeds]

    def test_bound_subcommand(self, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI + "\n[fading]\ncount = 64\n")
        out = tmp_path / "out"
        assert cli.main(["bound", str(cfg), "--outdir", str(out)]) == 0
        text = (out / "bound.csv").read_text()
        assert text.startswith("step,bound,mean_excess_loss")

    def test_sweep_subcommand(self, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI)
        out = tmp_path / "out"
        code = cli.main(
            ["sweep", str(cfg), "--axis", "rb_count", "--values", "2,4", "--outdir", str(out)]
        )
        assert code == 0
        header, *lines = (out / "sweep_rb_count.csv").read_text().splitlines()
        assert header == (
            "axis,value,algorithm,mean_final_loss,std_final_loss,mean_solver_iterations"
        )
        for line, row in zip(lines, sweep(mini_config(), "rb_count", [2, 4]), strict=True):
            axis, value, algorithm, *floats = line.split(",")
            assert (axis, int(value), algorithm, *map(float, floats)) == tuple(row.values())

    @pytest.mark.parametrize("values", ["0", "x", "3,-1", ""])
    def test_sweep_bad_values_exit_code(self, tmp_path, capsys, values):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI)
        code = cli.main(["sweep", str(cfg), "--axis", "rb_count", "--values", values,
                         "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error[config]: --values ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _golden_outdir(path, nudge=None):
        """An output directory holding the reference runs.csv and bound.csv,
        with ``nudge(lines)`` applied to the runs.csv lines."""
        path.mkdir()
        lines = REFERENCE_CSV.read_text().splitlines(keepends=True)
        (path / "runs.csv").write_text("".join(nudge(lines) if nudge else lines))
        (path / "bound.csv").write_bytes(REFERENCE_BOUND_CSV.read_bytes())
        return str(path)

    def test_diff_of_a_run_and_itself_reports_nothing(self, tmp_path, capsys):
        out = self._golden_outdir(tmp_path / "a")
        assert cli.main(["diff", out, out]) == cli.EXIT_OK
        assert capsys.readouterr().out == "runs.csv: identical\nbound.csv: identical\n"

    def test_diff_prints_the_drift_report(self, tmp_path, capsys):
        def nudge(lines):
            algorithm, seed, step, loss, digest = lines[150].rstrip("\n").split(",")
            lines[150] = f"{algorithm},{seed},{step},{float(np.nextafter(float(loss), 1.0))!r},{digest}\n"
            return lines

        a, b = self._golden_outdir(tmp_path / "a"), self._golden_outdir(tmp_path / "b", nudge)
        assert cli.main(["diff", a, b]) == cli.EXIT_VALIDATION
        report = csv_drift_report(Path(a) / "runs.csv", Path(b) / "runs.csv")
        assert capsys.readouterr().out == (
            "runs.csv differs:\n" + "".join(f"  {line}\n" for line in report.splitlines())
            + "bound.csv: identical\n"
        )
        assert ": 1 ulps" in report

    def test_diff_compares_the_files_both_directories_hold(self, tmp_path, capsys):
        a, b = self._golden_outdir(tmp_path / "a"), self._golden_outdir(tmp_path / "b")
        (Path(b) / "bound.csv").unlink()
        assert cli.main(["diff", a, b]) == cli.EXIT_OK
        assert capsys.readouterr().out == "runs.csv: identical\n"
        (Path(a) / "runs.csv").unlink()
        assert cli.main(["diff", a, b]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().out == f"no runs.csv or bound.csv is in both {a} and {b}\n"

    def test_diff_of_a_missing_directory_is_an_io_error(self, tmp_path, capsys):
        a = self._golden_outdir(tmp_path / "a")
        assert cli.main(["diff", a, str(tmp_path / "none")]) == cli.EXIT_IO
        assert capsys.readouterr().err == f"error[io]: no output directory {tmp_path / 'none'}\n"

    def test_diff_writes_nothing_and_rejects_outdir(self, tmp_path, capsys):
        a = self._golden_outdir(tmp_path / "a")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["diff", a, a, "--outdir", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --outdir" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "bound.csv", "runs.csv"]

    def test_validate_passes_on_reference(self, tmp_path):
        assert cli.main(["validate", str(REFERENCE)]) == 0

    def test_validate_passes_with_zero_payload(self, tmp_path, capsys):
        # Nothing to send: the energy is zero at every power, not increasing.
        cfg = tmp_path / "zero_payload.cfg"
        cfg.write_text("[users]\npayload_bits = 0\n")
        assert cli.main(["validate", str(cfg)]) == 0
        assert "PASS  energy is zero at every power without a payload" in capsys.readouterr().out

    def test_validate_passes_with_fewer_than_five_rbs(self, tmp_path, capsys):
        # The matching check certifies the full-size solve, whatever its shape.
        cfg = tmp_path / "three_rbs.cfg"
        cfg.write_text("[network]\nrb_count = 3\nuplink_interference_w = 1e-9 2e-9 3e-9\n")
        assert cli.main(["validate", str(cfg)]) == 0
        assert "PASS  matching optimality (15 users, 3 RBs): dual certificate off by " in (
            capsys.readouterr().out
        )

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[network]\nrb_bandwidth_hz = -1\n")
        assert cli.main(["simulate", str(cfg)]) == cli.EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.main(["simulate", str(tmp_path / "nope.cfg")]) == cli.EXIT_CONFIG

    def test_io_error_exit_code(self, tmp_path, capsys):
        outdir = tmp_path / "a_file"
        outdir.write_text("")
        assert cli.main(["simulate", str(REFERENCE), "--outdir", str(outdir)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error[io]: [Errno 17] File exists") and err.count("\n") == 1

    @pytest.mark.parametrize("name", OUTPUT_COMMANDS)
    def test_write_failure_names_the_file_once(self, name, tmp_path, capsys):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI + "\n[fading]\ncount = 64\n")
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        command = OUTPUT_COMMANDS[name]
        assert cli.main([command[0], str(cfg), "--outdir", str(out), *command[1:]]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error[io]: ") and err.count("\n") == 1
        assert err.count(str(out / name)) == 1

    def test_validation_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.assignment, "_certificate_violation", lambda *args: 5)
        assert cli.main(["validate", str(REFERENCE)]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert "  FAIL  matching optimality (15 users, 12 RBs): dual certificate off by 5 " in out
        assert out.endswith("\n1 validation failure(s)\n") and err == ""

    def test_validate_fails_a_kept_set_missing_a_needed_row(self, monkeypatch, capsys):
        # Swap the kept row with column 0's lowest weight for a dropped row:
        # the reduced solve still certifies its own optimum, and only the
        # exchange check catches the missing row.
        candidate_rows = cli.assignment._candidate_rows

        def missing_one(weights):
            keep = candidate_rows(weights)
            dropped = np.setdiff1d(np.arange(len(weights)), keep)
            best = keep[np.argmin(weights[keep, 0])]
            return np.sort(np.append(keep[keep != best], dropped[0]))

        monkeypatch.setattr(cli.assignment, "_candidate_rows", missing_one)
        assert cli.main(["validate", str(REFERENCE)]) == cli.EXIT_VALIDATION
        out = capsys.readouterr().out
        line = re.search(r"  FAIL  matching optimality \(15 users, 12 RBs\): dual certificate "
                         r"off by (\S+) <= 4 .* on 12 of 15 rows, ", out)
        assert float(line[1]) <= 4 and out.endswith("\n1 validation failure(s)\n")

    def test_bound_dominance_has_no_slack(self, monkeypatch, tmp_path, capsys):
        # The bound must dominate the measured mean excess loss at every
        # step exactly: an excess 5e-10 above it at one step fails the run.
        from fedwireless import harness

        report_of = harness.bound_report

        def nudged(config):
            report = report_of(config)
            report["mean_excess"][3] = report["series"].per_step_bound[3] + 5e-10
            return report

        monkeypatch.setattr(harness, "bound_report", nudged)
        assert cli.main(["bound", str(REFERENCE), "--outdir", str(tmp_path)]) == \
            cli.EXIT_VALIDATION
        assert "bound dominates measurement at every step: False\n" in capsys.readouterr().out

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "diverging.cfg"
        cfg.write_text(_reference_with({
            ("training", "learning_rate"): "1e6", ("training", "rounds"): "30",
            ("experiment", "seeds"): "7",
        }))
        assert cli.main(["simulate", str(cfg), "--outdir", str(tmp_path)]) == cli.EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("error[divergence]: loss became non-finite at step 26 ")
        assert err.count("\n") == 1


def _reference_with(overrides):
    """The reference config text with (section, key) -> text overrides."""
    parser = configparser.ConfigParser()
    parser.read(REFERENCE)
    for (section, key), value in overrides.items():
        parser[section][key] = value
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


_BLOCKED_RB0, _BLOCKED_RB0_TO_4 = (" ".join(
    ["inf"] * k + list(map(repr, load_config(REFERENCE).network.uplink_interference_w[k:]))
) for k in (1, 5))
_NO_BUDGETS = {("network", "delay_budget_s"): "inf", ("network", "energy_budget_j"): "inf"}
EDGE_CASE_VARIANTS = {
    "nothing_schedulable": {("network", "energy_budget_j"): "1e-9"},
    "zero_payload": {("users", "payload_bits"): "0"},
    "one_user": {("users", "count"): "1"},
    "one_rb": {("network", "rb_count"): "1", ("network", "uplink_interference_w"): "1e-9"},
    "monte_carlo": {("fading", "method"): "monte_carlo", ("fading", "count"): "256"},
    "no_budgets": _NO_BUDGETS,
    "float_learning_rate": {("training", "learning_rate"): "0.05"},
    "one_sample_each": {("users", "sample_count_cycle"): "1"},
    "rb0_blocked": {("network", "uplink_interference_w"): _BLOCKED_RB0},
    "rb0_blocked_no_budgets": {("network", "uplink_interference_w"): _BLOCKED_RB0, **_NO_BUDGETS},
    "rb0_to_4_blocked": {("network", "uplink_interference_w"): _BLOCKED_RB0_TO_4},
    "delay_4ms": {("network", "delay_budget_s"): "0.004"},
    "one_round": {("training", "rounds"): "1"},
    "one_seed": {("experiment", "seeds"): "7"},
    "40_users_2_rbs": {("users", "count"): "40", ("network", "rb_count"): "2",
                       ("network", "uplink_interference_w"): "1e-9 1.5e-9"},
    "one_sample_float_lr": {("users", "count"): "1", ("users", "sample_count_cycle"): "1",
                            ("training", "learning_rate"): "0.1", ("experiment", "seeds"): "1"},
    "max_power_10uW": {("network", "max_user_power_w"): "1e-5"},
    "max_power_1nW": {("network", "max_user_power_w"): "1e-9"},
}
EDGE_CASE_COMMANDS = {
    "simulate": ["simulate"],
    "assign": ["assign"],
    "bound": ["bound"],
    "validate": ["validate"],
    "sweep_rb_count": ["sweep", "--axis", "rb_count", "--values", "1,3"],
    "sweep_user_count": ["sweep", "--axis", "user_count", "--values", "1,2"],
}
# The runs that must exit 2, and what their error[config] line must name.
_ONLY_BLOCKED_RBS = "sweep rb_count = 1: uplink_interference_w must have a finite entry"
_ONE_SAMPLE = "(1 pooled sample(s) for 2 model parameters)"
EDGE_CASE_CONFIG_ERRORS = {
    ("rb0_blocked", "sweep_rb_count"): _ONLY_BLOCKED_RBS,
    ("rb0_blocked_no_budgets", "sweep_rb_count"): _ONLY_BLOCKED_RBS,
    ("one_sample_each", "sweep_user_count"): _ONE_SAMPLE,
    ("rb0_to_4_blocked", "sweep_rb_count"): _ONLY_BLOCKED_RBS,
    ("one_sample_float_lr", "bound"): _ONE_SAMPLE,
    ("one_sample_float_lr", "validate"): _ONE_SAMPLE,
}


@pytest.mark.parametrize("command", EDGE_CASE_COMMANDS)
@pytest.mark.parametrize("variant", EDGE_CASE_VARIANTS)
def test_every_command_on_the_edge_case_matrix(variant, command, tmp_path, capsys):
    # Every warning is an error here, so inf - inf or an invalid cast fails
    # the run too; an uncaught exception would be the CLI's traceback.
    cfg = tmp_path / f"{variant}.cfg"
    cfg.write_text(_reference_with(EDGE_CASE_VARIANTS[variant]))
    out = tmp_path / "out"
    argv = [EDGE_CASE_COMMANDS[command][0], str(cfg), *EDGE_CASE_COMMANDS[command][1:]]
    if argv[0] in ("simulate", "bound", "sweep"):
        argv += ["--outdir", str(out)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    cause = EDGE_CASE_CONFIG_ERRORS.get((variant, command))
    if cause is None:
        assert (code, err) == (cli.EXIT_OK, "")
    else:
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error[config]: ") and cause in err and err.count("\n") == 1
    if command == "simulate":
        config = load_config(cfg)
        for record in load_manifest(out / "manifest.json"):
            users = build_topology(config, record.seed)[0]
            decision = decision_from_record(record, config)
            assert verify_allocation(decision, users, config.network, config.fading) == []


@st.composite
def generated_configs(draw, case):
    """A small random config of ``case``: every algorithm, two rounds, one
    or two seeds, per-RB interference with blocked (inf) RBs, and energy and
    delay budgets over two decades.  ``budgets_on_the_edge`` then sets both
    budgets to one edge's delay and energy at the power cap, so that edge
    meets them exactly; ``nothing_schedulable`` sets the energy budget
    below the training energy."""
    tall = case == "more_users_than_rbs"
    rbs = draw(st.integers(1, 6 if tall else 10))
    levels = st.sampled_from([1e-10, 1e-9, 1e-8, 1e-7, 1e-6, math.inf])
    interference = draw(st.lists(levels, min_size=rbs, max_size=rbs)
                        .filter(lambda values: min(values) < math.inf))
    overrides = {
        ("network", "rb_count"): str(rbs),
        ("network", "uplink_interference_w"): " ".join(map(repr, interference)),
        ("network", "energy_budget_j"): repr(10.0 ** draw(st.floats(-3.0, -1.0))),
        ("network", "delay_budget_s"): repr(10.0 ** draw(st.floats(-2.0, 0.0))),
        ("users", "count"): str(draw(st.integers(rbs + 1, 3 * rbs) if tall
                                     else st.integers(1, 16))),
        ("users", "cell_radius_m"): repr(draw(st.floats(100.0, 1500.0))),
        ("users", "sample_count_cycle"): " ".join(
            map(str, draw(st.lists(st.integers(2, 12), min_size=1, max_size=3)))),
        ("training", "rounds"): "2",
        ("experiment", "seeds"): " ".join(
            map(str, draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=2, unique=True)))),
    }
    if case == "zero_payload":
        overrides["users", "payload_bits"] = "0"
    if case == "monte_carlo":
        overrides["fading", "method"] = "monte_carlo"
        overrides["fading", "count"] = str(draw(st.integers(16, 100)))
        overrides["fading", "seed"] = str(draw(st.integers(0, 100)))
    config = loads_config(_reference_with(overrides))
    params, fexp = config.network, config.fading
    if case == "nothing_schedulable":
        training_j = training_energy(config.user_profile(1.0, 1))
        params = replace(params, energy_budget_j=training_j * draw(st.floats(0.01, 0.99)))
    if case == "budgets_on_the_edge":
        users = build_topology(config, config.seeds[0])[0]
        user = users[draw(st.integers(0, len(users) - 1))]
        rb = draw(st.sampled_from([n for n, level in enumerate(interference) if level < math.inf]))
        p_max = params.max_user_power_w
        params = replace(
            params,
            delay_budget_s=uplink_delay(user, rb, p_max, params, fexp)
            + downlink_delay(user, params, fexp),
            energy_budget_j=user_energy(user, rb, p_max, params, fexp),
        )
    return replace(config, network=params)


@pytest.mark.parametrize("case", ["budgets_on_the_edge", "zero_payload", "nothing_schedulable",
                                  "more_users_than_rbs", "monte_carlo"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generated_configs_through_the_whole_pipeline(case, data, tmp_path_factory):
    # Two runs are equal, every allocation passes verify_allocation, the
    # proposed matching's objective is the least of each seed's, and the
    # written runs.csv and manifest.json load back every record.
    config = data.draw(generated_configs(case))
    records = run_experiment(config)
    assert run_experiment(config) == records
    least = {record.seed: record.objective for record in records
             if record.algorithm == "proposed"}
    for record in records:
        users = build_topology(config, record.seed)[0]
        decision = decision_from_record(record, config)
        assert verify_allocation(decision, users, config.network, config.fading) == []
        assert least[record.seed] <= record.objective + 1e-12
        if case == "nothing_schedulable":
            assert not any(record.selection)
    out = tmp_path_factory.mktemp(case)
    export_csv(records, out / "runs.csv")
    write_manifest(records, out / "manifest.json", config=config)
    assert load_manifest(out / "manifest.json") == records


@blas_kernels
def test_manifest_names_the_kernel_openblas_picked():
    # The build configuration names one kernel whatever OPENBLAS_CORETYPE
    # picks; the environment block must name the one that ran.
    _skip_unless_cpu_runs("Haswell")
    probe = "from fedwireless.harness import _environment; print(_environment()['blas_kernel'])"
    assert _run_with_kernel("Haswell", ["-c", probe]).stdout.strip() == "Haswell"


# Every edge of the config argv[1] as "edge seed user rb feasible power_w
# delay-slack energy-slack" (hex floats), then its simulate run into argv[2].
EDGE_BUILD_PROBE = """
import sys
import numpy as np
from fedwireless import assignment, cli
from fedwireless.config import load_config
from fedwireless.harness import build_topology
config = load_config(sys.argv[1])
params = config.network
for seed in config.seeds:
    edges = assignment.build_edge_weights(build_topology(config, seed)[0], params, config.fading)
    for (i, n), ok in np.ndenumerate(edges.feasible):
        print("edge", seed, i, n, int(ok), *(float(v).hex() for v in (
            edges.power_w[i, n], params.delay_budget_s - edges.delay_s[i, n],
            params.energy_budget_j - edges.energy_j[i, n])))
sys.exit(cli.main(["simulate", sys.argv[1], "--outdir", sys.argv[2]]))
"""


def _edges_and_digests(cpu_features, config, out):
    """The probe's edges by (seed, user, rb) and the runs.csv allocation
    digests by (algorithm, seed) of ``config``, with numpy dispatching to
    ``cpu_features`` (None: this process's setting)."""
    run = _run_with_kernel(
        None, ["-c", EDGE_BUILD_PROBE, str(config), str(out)], cpu_features=cpu_features
    )
    edges = {
        tuple(fields[1:4]): (fields[4] == "1", *(float.fromhex(v) for v in fields[5:]))
        for fields in (line.split() for line in run.stdout.splitlines())
        if fields[:1] == ["edge"]
    }
    digests = {
        (row["algorithm"], row["seed"]): row["allocation_digest"]
        for row in read_csv_rows(out / "runs.csv")
    }
    return edges, digests


# 120 users x 60 RBs in a 1000 m cell with a binding energy budget, one
# seed: the shape of the contested-cell benchmark at its seed 1.
_CONTESTED_CELL = {
    ("network", "rb_count"): "60",
    ("network", "uplink_interference_w"): " ".join(map(repr, np.logspace(-9, -7, 60).tolist())),
    ("network", "energy_budget_j"): "0.0022",
    ("users", "count"): "120",
    ("users", "cell_radius_m"): "1000.0",
    ("experiment", "seeds"): "288545019",
}


@x86_v3
@pytest.mark.parametrize("overrides", [{}, _CONTESTED_CELL], ids=["reference", "contested_cell"])
def test_edge_build_independent_of_simd_dispatch(overrides, tmp_path):
    # log1p and expm1 have SIMD loops per target; limiting numpy to AVX2
    # may move a power_w by some ulps, but no gate and no allocation.
    cfg = tmp_path / "config.cfg"
    cfg.write_text(_reference_with(overrides))
    default, default_digests = _edges_and_digests(None, cfg, tmp_path / "default")
    limited, limited_digests = _edges_and_digests("X86_V2 X86_V3", cfg, tmp_path / "limited")
    config = load_config(cfg)
    size = len(config.seeds) * config.user_count * config.network.rb_count
    assert default.keys() == limited.keys() and len(default) == size
    report = [
        f"edge (seed, user, rb) {key}: power_w moved {_ulp_distance(a[1], b[1])} ulps, "
        f"feasible {a[0]} -> {b[0]}, delay slack {a[2]:.6g} -> {b[2]:.6g} s, "
        f"energy slack {a[3]:.6g} -> {b[3]:.6g} J"
        for key, a, b in ((key, default[key], limited[key]) for key in default)
        if a[1] != b[1] or a[0] != b[0]
    ]
    feasible_moved = [key for key in default if default[key][0] != limited[key][0]]
    digests_moved = [
        cell for cell in default_digests if default_digests[cell] != limited_digests.get(cell)
    ]
    assert not feasible_moved and default_digests.keys() == limited_digests.keys() and not (
        digests_moved
    ), "\n".join(report + [f"allocation_digest moved: {digests_moved}"])


@x86_v3
def test_reference_manifest_golden_digest(tmp_path):
    # The records and config of the reference manifest.json. numpy's
    # AVX-512 log1p/expm1 loops move some error_rate and delay_s by an ulp
    # against its AVX2 ones (runs.csv does not move), so the golden is taken
    # with numpy limited to X86_V3; the first line names the host.
    _run_with_kernel(
        None, ["-m", "fedwireless.cli", "simulate", str(REFERENCE), "--outdir", str(tmp_path)],
        cpu_features="X86_V2 X86_V3",
    )
    body = (tmp_path / "manifest.json").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == GOLDEN_REFERENCE_MANIFEST_SHA256


def test_simulate_leaves_numpy_ma_unimported(tmp_path):
    # np.unique, np.setdiff1d and np.isin import numpy.ma, about 1.5 MB of
    # resident memory on every simulate run; none of them belongs on its path.
    script = (
        "import sys\n"
        "from fedwireless import cli\n"
        f"assert cli.main(['simulate', {str(REFERENCE)!r}, '--outdir', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _run_with_kernel(None, ["-c", script]).stdout.endswith("\nFalse\n")
