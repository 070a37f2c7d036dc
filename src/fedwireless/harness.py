"""Experiment orchestration: topology building, runs, sweeps, persistence.

Every run is fully determined by (config, seed).  Per-seed substreams are
derived from fixed stream ids so placement, data, allocation randomness, and
packet-loss draws never interact; algorithms at the same seed share the same
packet-loss stream (common random numbers) which sharpens comparisons.

The bytes export_csv writes depend on the config, the seeds and numpy's
elementwise math and reductions, not on the BLAS kernel or thread count:
training and the one_over_L curvature use no BLAS matrix product.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import time
from dataclasses import dataclass, replace

import numpy as np

from . import assignment, bounds, training
from .config import ExperimentConfig, serialize_config

__all__ = [
    "RunRecord",
    "place_users",
    "build_users",
    "build_topology",
    "resolve_learning_rate",
    "run_experiment",
    "sweep",
    "export_csv",
    "read_csv_rows",
    "write_manifest",
    "load_manifest",
    "bound_report",
]

# Substream ids: seed -> (placement, data, allocation, packet loss).
_STREAM_PLACEMENT = 0
_STREAM_DATA = 1
_STREAM_ALLOCATION = 2
_STREAM_TRANSMIT = 3

CSV_HEADER = "algorithm,seed,round,loss,bound,allocation_digest"


def place_users(rng, count, radius_m):
    """Distances of users dropped uniformly over a disc of the given radius.

    Density proportional to d (area-uniform); distances lie in (0, radius].
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    u = 1.0 - rng.random(count)          # in (0, 1] so distances stay positive
    return radius_m * np.sqrt(u)


def build_users(config: ExperimentConfig, distances):
    counts = config.sample_counts()
    return [config.user_profile(float(d), counts[i]) for i, d in enumerate(distances)]


def build_topology(config: ExperimentConfig, seed: int):
    """Users and dataset for one seed (identical across algorithms)."""
    placement_rng = np.random.default_rng([seed, _STREAM_PLACEMENT])
    distances = place_users(placement_rng, config.user_count, config.cell_radius_m)
    users = build_users(config, distances)
    data_rng = np.random.default_rng([seed, _STREAM_DATA])
    dataset = training.generate_regression_data(
        data_rng,
        config.sample_counts(),
        slope=config.slope,
        intercept=config.intercept,
        noise_std=config.noise_std,
    )
    return users, dataset


def _allocation_rng(seed):
    return np.random.default_rng([seed, _STREAM_ALLOCATION])


def _allocate(algorithm, seeds, user_lists, edge_sets, config):
    """One algorithm's decisions for every seed: baseline_b as one
    ``assignment._random_all`` call, the others on each seed's edge build."""
    if algorithm == "baseline_b":
        return assignment._random_all(
            [_allocation_rng(seed) for seed in seeds], user_lists, config.network, config.fading
        )
    if algorithm == "proposed":
        return [assignment.hungarian_assign(edges) for edges in edge_sets]
    if algorithm == "baseline_a":
        return [assignment.baseline_optselect_randomrb(_allocation_rng(seed), edges)
                for seed, edges in zip(seeds, edge_sets)]
    if algorithm == "baseline_c":
        return [assignment.baseline_min_sum_per(edges) for edges in edge_sets]
    raise ValueError(f"unknown algorithm {algorithm!r}")


def resolve_learning_rate(config: ExperimentConfig, dataset) -> float:
    if config.learning_rate == "one_over_L":
        return 1.0 / bounds.curvature(dataset).lipschitz_l
    return float(config.learning_rate)


@dataclass
class RunRecord:
    """One (algorithm, seed) cell: allocation summary plus the loss trajectory.

    ``wall_clock_s`` is the cell's equal share of the work behind it.
    ``run_experiment`` allocates each algorithm in one pass over all seeds
    and then trains every (algorithm, seed) cell as one batch (packet-loss
    draws included); a record takes an equal share of its algorithm's
    pass, of the whole batch and, for proposed, baseline_a and baseline_c,
    of the pooled edge build they read.
    """

    algorithm: str
    seed: int
    selection: list
    rb_index: list            # assigned RB per user, -1 if unselected
    power_w: list
    error_rate: list
    delay_s: list
    energy_j: list
    objective: float
    solver_iterations: int
    losses: list              # length rounds+1, entry 0 is the initial loss
    final_loss: float
    learning_rate: float
    wall_clock_s: float

    def allocation_digest(self) -> str:
        parts = [
            ",".join(str(int(a)) for a in self.selection),
            ",".join(str(int(r)) for r in self.rb_index),
            ",".join(repr(float(p)) for p in self.power_w),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def _record_from_run(algorithm, seed, decision, losses, learning_rate, wall_clock_s):
    assigned = np.asarray(decision.rb_assignment)
    rb_index = np.where(assigned.any(axis=1), assigned.argmax(axis=1), -1).tolist()
    losses = losses.tolist()
    return RunRecord(
        algorithm=algorithm,
        seed=int(seed),
        selection=[int(v) for v in decision.selection],
        rb_index=rb_index,
        power_w=[float(v) for v in decision.power_w],
        error_rate=[float(v) for v in decision.error_rate],
        delay_s=[float(v) for v in decision.delay_s],
        energy_j=[float(v) for v in decision.energy_j],
        objective=float(decision.objective),
        solver_iterations=int(decision.solver_iterations),
        losses=losses,
        final_loss=losses[-1],
        learning_rate=float(learning_rate),
        wall_clock_s=float(wall_clock_s),
    )


def _train_batch(config, seeds, decisions, learning_rates, features, targets, sample_counts):
    """Train one cell per (seed, decision, learning rate) as one
    ``training._train_cells`` batch and return its (losses, models).

    Each cell's packet losses come from its seed's transmit stream.
    """
    delivery = np.stack([
        training._delivery_draws(
            decision.error_rate, config.rounds,
            np.random.default_rng([seed, _STREAM_TRANSMIT]),
        )
        for seed, decision in zip(seeds, decisions)
    ])
    losses, models, _ = training._train_cells(
        features, targets, sample_counts, [decision.selection for decision in decisions],
        learning_rates, delivery, config.initial_model,
    )
    return losses, models


def run_experiment(config: ExperimentConfig):
    """Run every (algorithm, seed) cell; deterministic order and content.

    One ``assignment._edge_weights`` call builds every (seed, user, RB)
    edge, which proposed, baseline_a and baseline_c read.  Each algorithm
    then allocates all seeds in one ``_allocate`` pass, and every
    (algorithm, seed) cell trains in one ``training._train_cells`` batch,
    algorithm by algorithm and seed by seed within each (the record
    order), on per-seed data stacked once (every seed has the same sample
    layout) that the algorithms share.  A topology where no user is
    schedulable still produces a record (the global model never moves); it
    is a degenerate run, not an error.
    """
    seeds, params, fexp = config.seeds, config.network, config.fading
    user_lists, datasets = zip(*(build_topology(config, seed) for seed in seeds))
    start = time.perf_counter()
    edge_sets = assignment._edge_weights(user_lists, params, fexp)
    edge_build_s = (time.perf_counter() - start) / len(seeds)
    learning_rates = [resolve_learning_rate(config, dataset) for dataset in datasets]
    features = np.stack([dataset.x for dataset in datasets])
    targets = np.stack([dataset.y for dataset in datasets])

    cells = []
    for algorithm in config.algorithms:
        start = time.perf_counter()
        decisions = _allocate(algorithm, seeds, user_lists, edge_sets, config)
        share = (time.perf_counter() - start) / len(seeds)
        if algorithm != "baseline_b":
            share += edge_build_s
        cells += [(algorithm, seed, decision, share) for seed, decision in zip(seeds, decisions)]
    learning_rates *= len(config.algorithms)
    _, cell_seeds, cell_decisions, _ = zip(*cells)
    # The packet-loss draws and the training are timed together, and each
    # record's wall clock is its allocation share plus an equal share of them.
    start = time.perf_counter()
    losses = _train_batch(
        config, cell_seeds, cell_decisions, learning_rates,
        features, targets, datasets[0].sample_counts,
    )[0]
    share = (time.perf_counter() - start) / len(cells)
    return [
        _record_from_run(algorithm, seed, decision, cell_losses, lr, seconds + share)
        for (algorithm, seed, decision, seconds), cell_losses, lr
        in zip(cells, losses, learning_rates)
    ]


def _with_rb_count(params, rb_count):
    """``params`` with ``rb_count`` RBs, cycling its per-RB interference."""
    interference = params.uplink_interference_w
    return replace(params, rb_count=rb_count, uplink_interference_w=tuple(
        interference[n % len(interference)] for n in range(rb_count)
    ))


def sweep(config: ExperimentConfig, axis: str, values):
    """Re-run the experiment along one axis; per-value per-algorithm stats.

    Axes: user_count, rb_count, samples_per_user.  Returns rows of
    {axis, value, algorithm, mean_final_loss, std_final_loss,
    mean_solver_iterations}.
    """
    if not values:
        raise ValueError("values must be non-empty")
    if any(v <= 0 for v in values):
        raise ValueError("values must be positive")
    rows = []
    for value in values:
        if axis == "user_count":
            derived = replace(config, user_count=int(value))
        elif axis == "rb_count":
            derived = replace(config, network=_with_rb_count(config.network, int(value)))
        elif axis == "samples_per_user":
            derived = replace(config, sample_count_cycle=(int(value),))
        else:
            raise ValueError(
                f"unknown axis {axis!r} (use user_count, rb_count, or samples_per_user)"
            )
        records = run_experiment(derived)
        for algorithm in derived.algorithms:
            finals = [r.final_loss for r in records if r.algorithm == algorithm]
            iters = [r.solver_iterations for r in records if r.algorithm == algorithm]
            rows.append(
                {
                    "axis": axis,
                    "value": value,
                    "algorithm": algorithm,
                    "mean_final_loss": float(np.mean(finals)),
                    "std_final_loss": float(np.std(finals)),
                    "mean_solver_iterations": float(np.mean(iters)),
                }
            )
    return rows


def export_csv(records, path) -> None:
    """Plot-ready long-format CSV: one row per (record, round >= 1).

    The bound column is always empty: the bound series lives in
    ``fedwireless bound``'s bound.csv.  Floats are written with repr so
    re-importing is lossless.  The rows are written one record at a time.
    """
    if not records:
        raise ValueError("records must be non-empty")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(CSV_HEADER + "\n")
            for record in records:
                digest = record.allocation_digest()
                handle.write("".join(
                    f"{record.algorithm},{record.seed},{step},"
                    f"{repr(float(record.losses[step]))},,{digest}\n"
                    for step in range(1, len(record.losses))
                ))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv_rows(path):
    """Read back an exported CSV as a list of typed row dicts.

    A filled bound column is parsed too: the file may come from elsewhere.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected header {CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        algorithm, seed, step, loss, bound, digest = line.split(",")
        rows.append(
            {
                "algorithm": algorithm,
                "seed": int(seed),
                "round": int(step),
                "loss": float(loss),
                "bound": float(bound) if bound else None,
                "allocation_digest": digest,
            }
        )
    return rows


def _blas_kernel():
    """The kernel numpy's OpenBLAS picked at run time, read from the library
    numpy links; None where it does not export its core name."""
    try:
        library = ctypes.CDLL(np._core._multiarray_umath.__file__)
        corename = library.scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _environment() -> dict:
    """What the determinism contract depends on: Python, numpy, numpy's BLAS
    build and run-time kernel, and the SIMD targets numpy compiled in and
    dispatches to here."""
    numpy_config = np.show_config(mode="dicts")
    blas = numpy_config.get("Build Dependencies", {}).get("blas", {})
    simd = numpy_config.get("SIMD Extensions", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_kernel": _blas_kernel(),
        "simd_baseline": simd.get("baseline", []),
        "simd_dispatch": simd.get("found", []),
    }


def write_manifest(records, path, config: ExperimentConfig) -> None:
    """Lossless JSON store of the run records and the config text, with the
    environment that produced them.

    One compact ``json.dumps`` per record, one record a line: unindented
    dumps run the C encoder, where ``indent`` falls back to pure Python.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"environment": ' + json.dumps(_environment()) + ',\n"records": [\n')
        handle.write(",\n".join(json.dumps(vars(record)) for record in records))
        handle.write('\n],\n"config": ' + json.dumps(serialize_config(config)) + "}\n")


def load_manifest(path):
    """The run records of a manifest; its environment block is not read."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return [RunRecord(**item) for item in payload["records"]]


def bound_report(config: ExperimentConfig):
    """Excess-loss bound series versus the measured mean excess loss.

    The topology and dataset come from the first seed; every configured seed
    contributes one training run that differs only in its packet-loss draws,
    matching the analysis where the expectation runs over packet errors.
    The runs train as one ``training._train_cells`` batch, and every
    trajectory model feeds the gradient-bound fit.
    """
    seed0 = config.seeds[0]
    users, dataset = build_topology(config, seed0)
    edges = assignment.build_edge_weights(users, config.network, config.fading)
    decision = assignment.hungarian_assign(edges)
    curv = bounds.curvature(dataset)
    lr = resolve_learning_rate(config, dataset)

    runs = len(config.seeds)
    losses, models = _train_batch(
        config, config.seeds, [decision] * runs,
        [lr] * runs, dataset.x[None], dataset.y[None], dataset.sample_counts,
    )

    g_star = training.least_squares_model(dataset)
    mean_excess = bounds.empirical_gap(losses, g_star, dataset)

    error_sum = assignment.wireless_error_sum(
        decision.selection, decision.error_rate, dataset.sample_counts
    )
    fit = bounds.fit_gradient_bound(
        dataset, models.reshape(-1, models.shape[-1]), error_sum=error_sum, curv=curv
    )
    initial_gap = losses[0, 0] - training.global_loss(dataset, g_star)
    steps = np.arange(config.rounds + 1)
    series = bounds.bound_series(
        steps, curv, fit,
        decision.selection, decision.error_rate, dataset.sample_counts, initial_gap,
    )
    return {
        "steps": steps,
        "series": series,
        "mean_excess": mean_excess,
        "curvature": curv,
        "fit": fit,
        "decision": decision,
    }
