"""Orchestration tests: runs, persistence, sweeps, and the CLI surface."""

import ctypes
import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fedwireless
from fedwireless import cli
from fedwireless.assignment import AllocationDecision, verify_allocation
from fedwireless.config import load_config, loads_config
from fedwireless.harness import (
    CSV_HEADER,
    RunRecord,
    build_topology,
    export_csv,
    load_manifest,
    read_csv_rows,
    run_experiment,
    sweep,
    write_manifest,
)

from util import per_seed_allocation, record_integrand_sizes

REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"

# The reference run's runs.csv, whose sha256 is GOLDEN_REFERENCE_CSV_SHA256.
REFERENCE_CSV = Path(__file__).resolve().parent / "data" / "reference_runs.csv"

GOLDEN_REFERENCE_CSV_SHA256 = (
    "e3bd62b645ddfc56b84ab98dfb5f52bb8ec3d271088843fd6f28719c582812ab"
)

# sha256 of the bound.csv that `fedwireless bound` writes for the reference config.
GOLDEN_REFERENCE_BOUND_SHA256 = (
    "c131a75cbddb1f1fb30bf22c8de7168bc78a9edb310027992772e73cdfa7529a"
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

    def test_wall_clock_includes_the_shared_edge_build(self, monkeypatch):
        from fedwireless import assignment

        build = assignment._edge_weights

        def slow_build(*args):
            time.sleep(0.05)
            return build(*args)

        monkeypatch.setattr(assignment, "_edge_weights", slow_build)
        algorithms = ("proposed", "baseline_a", "baseline_b", "baseline_c")
        records = run_experiment(mini_config(algorithms=algorithms, seeds=(3,)))
        assert [r.algorithm for r in records] == list(algorithms)
        for record in records:
            if record.algorithm != "baseline_b":
                assert record.wall_clock_s >= 0.05, record.algorithm

    def test_wall_clock_shares_the_pooled_interval_search(self, monkeypatch):
        from fedwireless import assignment

        search = assignment._power_interval

        def slow_search(*args):
            time.sleep(0.3)
            return search(*args)

        monkeypatch.setattr(assignment, "_power_interval", slow_search)
        records = run_experiment(mini_config(algorithms=("baseline_b",), seeds=(3, 4, 5)))
        # One pooled search for the three seeds: each record takes a third.
        assert [r.seed for r in records] == [3, 4, 5]
        for record in records:
            assert 0.1 <= record.wall_clock_s < 0.25, record.seed

    def test_wall_clock_is_one_equal_share_per_algorithm(self, monkeypatch):
        from fedwireless import assignment

        assign = assignment.hungarian_assign

        def slow_assign(edges):
            time.sleep(0.03)
            return assign(edges)

        monkeypatch.setattr(assignment, "hungarian_assign", slow_assign)
        algorithms = ("proposed", "baseline_a", "baseline_b", "baseline_c")
        records = run_experiment(mini_config(algorithms=algorithms, seeds=(3, 4, 5)))
        # One timed allocation pass and one training batch per algorithm,
        # split equally: every record of an algorithm reads the same time.
        for algorithm in algorithms:
            assert len({r.wall_clock_s for r in records if r.algorithm == algorithm}) == 1
        assert records[0].algorithm == "proposed" and records[0].wall_clock_s >= 0.03

    def test_rerun_bit_identical(self):
        config = mini_config()
        a = run_experiment(config)
        b = run_experiment(config)
        for ra, rb in zip(a, b):
            da, db = dict(vars(ra)), dict(vars(rb))
            da.pop("wall_clock_s")
            db.pop("wall_clock_s")
            assert da == db


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

    pooled_rngs, random_all = [], assignment._random_all

    def capture_pooled(rngs, *args):
        pooled_rngs.extend(rngs)
        return random_all(rngs, *args)

    with monkeypatch.context() as patch:
        patch.setattr(assignment, "_random_all", capture_pooled)
        records = run_experiment(config)
    single_rngs, random_one = [], assignment.baseline_random_all

    def capture_single(rng, *args):
        single_rngs.append(rng)
        return random_one(rng, *args)

    monkeypatch.setattr(assignment, "baseline_random_all", capture_single)
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
    def test_one_round_one_data_row(self, tmp_path):
        config = mini_config(algorithms=("proposed",), seeds=(3,), rounds=1)
        records = run_experiment(config)
        path = tmp_path / "runs.csv"
        export_csv(records, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_csv_round_trip(self, tmp_path):
        config = mini_config()
        records = run_experiment(config)
        path = tmp_path / "runs.csv"
        export_csv(records, path)
        rows = read_csv_rows(path)
        assert len(rows) == sum(len(r.losses) - 1 for r in records)
        by_key = {(r.algorithm, r.seed): r for r in records}
        for row in rows:
            record = by_key[(row["algorithm"], row["seed"])]
            assert row["loss"] == record.losses[row["round"]]
            assert row["allocation_digest"] == record.allocation_digest()
            assert row["bound"] is None

    def test_manifest_lossless(self, tmp_path):
        config = mini_config()
        records = run_experiment(config)
        path = tmp_path / "manifest.json"
        write_manifest(records, path, config=config)
        reloaded = load_manifest(path)
        assert [vars(r) for r in reloaded] == [vars(r) for r in records]

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
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

    def test_reference_bound_golden_digest(self, in_process_reference_outputs):
        # Golden capture of the reference bound.csv: the bound series and
        # the measured mean excess loss at every step, as repr floats.
        path = in_process_reference_outputs / "bound.csv"
        assert _sha256(path) == GOLDEN_REFERENCE_BOUND_SHA256

    def test_drift_report_names_row_ulps_and_moved_allocations(self, tmp_path):
        lines = REFERENCE_CSV.read_text().splitlines(keepends=True)
        algorithm, seed, step, loss, bound, digest = lines[150].rstrip("\n").split(",")
        nudged = repr(float(np.nextafter(np.nextafter(float(loss), np.inf), np.inf)))
        lines[150] = ",".join([algorithm, seed, step, nudged, bound, "0" * 12]) + "\n"
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
        lines = ["algorithm,seed,round,loss,bound,allocation_digest"]
        for record in records:
            for step in range(1, len(record.losses)):
                lines.append(
                    f"{record.algorithm},{record.seed},{step},"
                    f"{repr(float(record.losses[step]))},,{record.allocation_digest()}"
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


def _ulp_distance(a, b):
    as_int = [struct.unpack("<q", struct.pack("<d", v))[0] for v in (a, b)]
    return abs(as_int[0] - as_int[1])


def csv_drift_report(expected_path, actual_path):
    """Where a runs.csv departs from the expected one: the first differing
    (algorithm, seed, round), the largest loss distance in ulps per
    (algorithm, seed), and the cells whose allocation_digest moved."""
    expected, actual = read_csv_rows(expected_path), read_csv_rows(actual_path)
    keys = [[(r["algorithm"], r["seed"], r["round"]) for r in rows] for rows in (expected, actual)]
    if keys[0] != keys[1]:
        return f"(algorithm, seed, round) rows differ: {len(expected)} expected, got {len(actual)}"
    first, worst, moved = None, {}, []
    for key, e, a in zip(keys[0], expected, actual):
        cell = f"{key[0]}/{key[1]}"
        ulps = _ulp_distance(e["loss"], a["loss"])
        worst[cell] = max(worst.get(cell, 0), ulps)
        digest_moved = e["allocation_digest"] != a["allocation_digest"]
        if first is None and (ulps > 0 or e["bound"] != a["bound"] or digest_moved):
            first = f"({key[0]}, {key[1]}, {key[2]})"
        if digest_moved and cell not in moved:
            moved.append(cell)
    return "\n".join([
        f"first differing row: {first or 'none (only the bytes differ)'}",
        "largest loss distance per (algorithm, seed): "
        + ", ".join(f"{cell}: {ulps} ulps" for cell, ulps in worst.items()),
        f"allocation_digest moved: {', '.join(moved) or 'none'}",
    ])


def _openblas_dynamic_arch():
    """True when numpy's BLAS is an OpenBLAS built to pick its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _cpu_has(*features):
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return all(__cpu_features__.get(f, False) for f in features)


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
    """Run the package's Python with OPENBLAS_CORETYPE and numpy's
    NPY_ENABLE_CPU_FEATURES set (None: the default)."""
    chosen = {"OPENBLAS_CORETYPE": kernel, "NPY_ENABLE_CPU_FEATURES": cpu_features}
    env = {k: v for k, v in os.environ.items() if k != cli.OUTDIR_ENV and k not in chosen}
    src = str(Path(fedwireless.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
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
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(cli.OUTDIR_ENV, raising=False)
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
    if command == "simulate":
        report = csv_drift_report(expected, written)
    else:
        report = f"{name} written under {kernel} differs from the in-process bytes"
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
            finals = [r.final_loss for r in records if r.algorithm == algorithm]
            assert row["mean_final_loss"] == pytest.approx(np.mean(finals), rel=1e-12)

    def test_axis_and_value_validation(self):
        with pytest.raises(ValueError):
            sweep(mini_config(), "bandwidth", [1])
        with pytest.raises(ValueError):
            sweep(mini_config(), "rb_count", [])
        with pytest.raises(ValueError):
            sweep(mini_config(), "rb_count", [0])

    def test_samples_axis_overrides_cycle(self):
        config = mini_config(algorithms=("proposed",), seeds=(3,), rounds=3)
        rows = sweep(config, "samples_per_user", [5])
        assert rows[0]["value"] == 5

    def test_rb_axis_changes_network(self):
        config = mini_config(algorithms=("proposed",), seeds=(3,), rounds=3)
        rows = sweep(config, "rb_count", [2, 4])
        assert [r["value"] for r in rows] == [2, 4]


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

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI)
        override = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUTDIR_ENV, str(override))
        assert cli.main(["simulate", str(cfg), "--outdir", str(tmp_path / "ignored")]) == 0
        assert (override / "runs.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_assign_prints_table(self, tmp_path, capsys):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI)
        assert cli.main(["assign", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "user" in out and "power_w" in out
        assert "seed 3" in out

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
        assert (out / "sweep_rb_count.csv").exists()

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

    def test_validate_passes_on_reference(self, tmp_path):
        assert cli.main(["validate", str(REFERENCE)]) == 0

    def test_validate_passes_with_zero_payload(self, tmp_path, capsys):
        # Nothing to send: the energy is zero at every power, not increasing.
        cfg = tmp_path / "zero_payload.cfg"
        cfg.write_text("[users]\npayload_bits = 0\n")
        assert cli.main(["validate", str(cfg)]) == 0
        assert "PASS  energy is zero at every power without a payload" in capsys.readouterr().out

    def test_validate_passes_with_fewer_than_five_rbs(self, tmp_path, capsys):
        # The 5 x 5 matching check cycles the 3 RBs' interference.
        cfg = tmp_path / "three_rbs.cfg"
        cfg.write_text("[network]\nrb_count = 3\nuplink_interference_w = 1e-9 2e-9 3e-9\n")
        assert cli.main(["validate", str(cfg)]) == 0
        assert "PASS  matching optimality (5 users, 5 RBs)" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[network]\nrb_bandwidth_hz = -1\n")
        assert cli.main(["simulate", str(cfg)]) == cli.EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.main(["simulate", str(tmp_path / "nope.cfg")]) == cli.EXIT_CONFIG


@blas_kernels
def test_manifest_names_the_kernel_openblas_picked():
    # The build configuration names one kernel whatever OPENBLAS_CORETYPE
    # picks; the environment block must name the one that ran.
    _skip_unless_cpu_runs("Haswell")
    probe = "from fedwireless.harness import _environment; print(_environment()['blas_kernel'])"
    assert _run_with_kernel("Haswell", ["-c", probe]).stdout.strip() == "Haswell"


# Every reference edge as "edge seed user rb feasible power_w delay-slack
# energy-slack" (hex floats), then the reference simulate run into argv[2].
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


def _edges_and_digests(cpu_features, out):
    """The probe's edges by (seed, user, rb) and the runs.csv allocation
    digests by (algorithm, seed), with numpy dispatching to ``cpu_features``."""
    run = _run_with_kernel(
        None, ["-c", EDGE_BUILD_PROBE, str(REFERENCE), str(out)], cpu_features=cpu_features
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


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="x86 dispatch targets"
)
def test_edge_build_independent_of_simd_dispatch(tmp_path):
    # log1p and expm1 have SIMD loops per target; limiting numpy to AVX2
    # may move a power_w by some ulps, but no gate and no allocation.
    if not _cpu_has("X86_V3"):
        pytest.skip("this CPU cannot run numpy's X86_V3 targets")
    default, default_digests = _edges_and_digests(None, tmp_path / "default")
    limited, limited_digests = _edges_and_digests("X86_V2 X86_V3", tmp_path / "limited")
    assert default.keys() == limited.keys() and len(default) == 2 * 15 * 12
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
