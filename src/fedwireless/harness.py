"""Experiment orchestration: topology building, runs, sweeps, persistence.

Every run is fully determined by (config, seed).  Per-seed substreams are
derived from fixed stream ids so placement, data, allocation randomness, and
packet-loss draws never interact; algorithms at the same seed share the same
packet-loss stream (common random numbers) which sharpens comparisons.

The bytes export_csv writes depend on the config, the seeds and numpy's
elementwise math and reductions, not on the BLAS kernel or thread count:
training and the one_over_L curvature use no BLAS matrix product.  So do
the bytes write_manifest writes after its first line, the environment
block; their error_rate and delay_s also follow numpy's SIMD dispatch of
log1p and expm1, which that block records.  The power searches answer a
certified band edge snapped to a power-of-two grid, not the last bits of a
root estimate, so a power_w (and an allocation) follows that dispatch only
where a band edge lands on the other side of a grid point.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import assignment, bounds, training
from .config import ConfigError, ExperimentConfig, loads_config, serialize_config

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
    "csv_drift_report",
    "bound_drift_report",
    "write_manifest",
    "load_manifest",
    "bound_report",
]

# Substream ids: seed -> (placement, data, allocation, packet loss).
_STREAM_PLACEMENT = 0
_STREAM_DATA = 1
_STREAM_ALLOCATION = 2
_STREAM_TRANSMIT = 3

CSV_HEADER = "algorithm,seed,round,loss,allocation_digest"


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


def _allocate(algorithm, seeds, edge_sets, config):
    """One algorithm's decisions for every seed, each on its seed's edge
    build: baseline_b as one ``assignment._random_all`` call, which keeps
    the pairs that the build's gate passed."""
    if algorithm == "baseline_b":
        return assignment._random_all([_allocation_rng(seed) for seed in seeds], edge_sets,
                                      config.network, config.fading)
    if algorithm == "proposed":
        return [assignment.hungarian_assign(edges) for edges in edge_sets]
    if algorithm == "baseline_a":
        return [assignment.baseline_optselect_randomrb(_allocation_rng(seed), edges)
                for seed, edges in zip(seeds, edge_sets)]
    if algorithm == "baseline_c":
        return [assignment.baseline_min_sum_per(edges) for edges in edge_sets]
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _curvature(dataset):
    """``bounds.curvature`` of a config's dataset: data too few to be full
    rank is a config error."""
    try:
        return bounds.curvature(dataset)
    except ValueError as exc:
        raise ConfigError(f"{exc} ({dataset.total_samples} pooled sample(s) for "
                          f"{dataset.x.shape[1]} model parameters)") from exc


def resolve_learning_rate(config: ExperimentConfig, dataset) -> float:
    if config.learning_rate == "one_over_L":
        return 1.0 / _curvature(dataset).lipschitz_l
    return float(config.learning_rate)


@dataclass
class RunRecord:
    """One (algorithm, seed) cell: allocation summary plus the loss
    trajectory, whose last entry is the final loss.  ``export_csv`` writes
    the losses, and ``write_manifest`` every other field."""

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
    learning_rate: float

    def allocation_digest(self) -> str:
        parts = [
            ",".join(str(int(a)) for a in self.selection),
            ",".join(str(int(r)) for r in self.rb_index),
            ",".join(repr(float(p)) for p in self.power_w),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def _rb_index(rb_assignment):
    """Each user's assigned RB, -1 for a user who holds none."""
    assigned = np.asarray(rb_assignment)
    return np.where(assigned.any(axis=1), assigned.argmax(axis=1), -1).tolist()


def _record_from_run(algorithm, seed, decision, losses, learning_rate):
    return RunRecord(
        algorithm=algorithm,
        seed=int(seed),
        selection=decision.selection.tolist(),
        rb_index=_rb_index(decision.rb_assignment),
        power_w=decision.power_w.tolist(),
        error_rate=decision.error_rate.tolist(),
        delay_s=decision.delay_s.tolist(),
        energy_j=decision.energy_j.tolist(),
        objective=float(decision.objective),
        solver_iterations=int(decision.solver_iterations),
        losses=losses.tolist(),
        learning_rate=float(learning_rate),
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
    edge, which every algorithm reads.  Each algorithm then allocates all
    seeds in one ``_allocate`` pass, and every (algorithm, seed) cell
    trains in one ``training._train_cells`` batch, algorithm by algorithm
    and seed by seed within each (the record order), on per-seed data
    stacked once (every seed has the same sample layout) that the
    algorithms share.  A topology where no user is
    schedulable still produces a record (the global model never moves); it
    is a degenerate run, not an error.
    """
    seeds, params, fexp = config.seeds, config.network, config.fading
    user_lists, datasets = zip(*(build_topology(config, seed) for seed in seeds))
    edge_sets = assignment._edge_weights(user_lists, params, fexp)
    learning_rates = [resolve_learning_rate(config, dataset) for dataset in datasets]
    features = np.stack([dataset.x for dataset in datasets])
    targets = np.stack([dataset.y for dataset in datasets])

    cells = []
    for algorithm in config.algorithms:
        decisions = _allocate(algorithm, seeds, edge_sets, config)
        cells += [(algorithm, seed, decision) for seed, decision in zip(seeds, decisions)]
    learning_rates *= len(config.algorithms)
    _, cell_seeds, cell_decisions = zip(*cells)
    losses = _train_batch(
        config, cell_seeds, cell_decisions, learning_rates,
        features, targets, datasets[0].sample_counts,
    )[0]
    return [
        _record_from_run(algorithm, seed, decision, cell_losses, lr)
        for (algorithm, seed, decision), cell_losses, lr in zip(cells, losses, learning_rates)
    ]


def _with_rb_count(params, rb_count):
    """``params`` with ``rb_count`` RBs, cycling its per-RB interference."""
    interference = params.uplink_interference_w
    return replace(params, rb_count=rb_count, uplink_interference_w=tuple(
        interference[n % len(interference)] for n in range(rb_count)
    ))


def sweep(config: ExperimentConfig, axis: str, values):
    """Re-run the experiment along one axis; per-value per-algorithm stats.

    Axes: user_count, rb_count, samples_per_user, each value a positive
    integer.  Returns rows of {axis, value, algorithm, mean_final_loss,
    std_final_loss, mean_solver_iterations}.
    """
    if not values:
        raise ValueError("values must be non-empty")
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value <= 0:
            raise ValueError(f"values must be positive integers, got {value!r}")
    rows = []
    for value in values:
        if axis == "user_count":
            derived = replace(config, user_count=int(value))
        elif axis == "rb_count":
            try:
                network = _with_rb_count(config.network, int(value))
            except ValueError as exc:
                raise ConfigError(f"sweep rb_count = {value}: {exc}") from exc
            derived = replace(config, network=network)
        elif axis == "samples_per_user":
            derived = replace(config, sample_count_cycle=(int(value),))
        else:
            raise ValueError(
                f"unknown axis {axis!r} (use user_count, rb_count, or samples_per_user)"
            )
        records = run_experiment(derived)
        for algorithm in derived.algorithms:
            finals = [r.losses[-1] for r in records if r.algorithm == algorithm]
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


def _write_text(path, chunks) -> None:
    """Write the text chunks to ``path``, UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)


def export_csv(records, path) -> None:
    """Plot-ready long-format CSV: one row per (record, round), rounds from
    0 (the initial loss), the one file that holds the losses.

    Floats are written with repr so re-importing is lossless.  The rows are
    written one record at a time.
    """
    if not records:
        raise ValueError("records must be non-empty")

    def chunks():
        yield CSV_HEADER + "\n"
        for record in records:
            digest = record.allocation_digest()
            yield "".join(f"{record.algorithm},{record.seed},{step},{loss!r},{digest}\n"
                          for step, loss in enumerate(record.losses))

    _write_text(path, chunks())


def read_csv_rows(path):
    """Read back an exported CSV as a list of typed row dicts.

    A row that does not parse raises a ValueError naming the file and the
    row's 1-based line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(number, line.rstrip("\n")) for number, line in enumerate(handle, 1)
                 if line.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected header {CSV_HEADER!r}")
    rows = []
    for number, line in lines[1:]:
        try:
            algorithm, seed, step, loss, digest = line.split(",")
            rows.append({"algorithm": algorithm, "seed": int(seed), "round": int(step),
                         "loss": float(loss), "allocation_digest": digest})
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from exc
    return rows


def _ulp_distance(a, b):
    """How many float64 steps apart a and b are: 0 when equal, counted
    across zero for values of opposite sign."""
    ordered = [int(np.float64(value).view(np.int64)) for value in (a, b)]
    ordered = [bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF) for bits in ordered]
    return abs(ordered[0] - ordered[1])


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
        if first is None and (ulps > 0 or digest_moved):
            first = f"({key[0]}, {key[1]}, {key[2]})"
        if digest_moved and cell not in moved:
            moved.append(cell)
    return "\n".join([
        f"first differing row: {first or 'none (only the bytes differ)'}",
        "largest loss distance per (algorithm, seed): "
        + ", ".join(f"{cell}: {ulps} ulps" for cell, ulps in worst.items()),
        f"allocation_digest moved: {', '.join(moved) or 'none'}",
    ])


def bound_drift_report(expected_path, actual_path):
    """Where a bound.csv departs from the expected one: the first differing
    step and the largest distance in ulps of each value column."""
    expected, actual = (
        [line.split(",") for line in Path(path).read_text(encoding="utf-8").splitlines()]
        for path in (expected_path, actual_path)
    )
    if expected[0] != actual[0] or len(expected) != len(actual):
        return f"header or steps differ: {len(expected) - 1} steps expected, got {len(actual) - 1}"
    columns = expected[0][1:]
    first, worst = None, dict.fromkeys(columns, 0)
    for e, a in zip(expected[1:], actual[1:]):
        if first is None and e != a:
            first = e[0]
        for column, x, y in zip(columns, e[1:], a[1:]):
            worst[column] = max(worst[column], _ulp_distance(float(x), float(y)))
    return "\n".join([
        f"first differing step: {first or 'none (only the bytes differ)'}",
        "largest distance per column: "
        + ", ".join(f"{column}: {ulps} ulps" for column, ulps in worst.items()),
    ])


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
    """JSON store of every run record field but ``losses`` and of the config
    text, with the environment that produced them; ``export_csv`` writes
    the losses, and ``load_manifest`` joins the two files.

    One compact ``json.dumps`` per record, one record a line: unindented
    dumps run the C encoder, where ``indent`` falls back to pure Python.
    """
    _write_text(path, [
        '{"environment": ' + json.dumps(_environment()) + ',\n"records": [\n',
        ",\n".join(json.dumps({key: value for key, value in vars(record).items()
                               if key != "losses"}) for record in records),
        '\n],\n"config": ' + json.dumps(serialize_config(config)) + "}\n",
    ])


def load_manifest(path):
    """The run records of a manifest, each with its losses from the
    ``runs.csv`` beside it, matched on (algorithm, seed); the environment
    block is not read.

    A record whose rows are missing, or whose rounds are not 0 to the
    config's rounds in order, raises a ValueError naming it.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    steps = list(range(loads_config(payload["config"]).rounds + 1))
    csv_path = Path(path).with_name("runs.csv")
    rows_of = {}
    for row in read_csv_rows(csv_path):
        rows_of.setdefault((row["algorithm"], row["seed"]), []).append(row)
    records = []
    for item in payload["records"]:
        rows = rows_of.get((item["algorithm"], item["seed"]), [])
        if [row["round"] for row in rows] != steps:
            raise ValueError(f"{csv_path}: the {len(rows)} row(s) of {item['algorithm']} seed "
                             f"{item['seed']} are not rounds 0 to {steps[-1]} in order")
        records.append(RunRecord(**item, losses=[row["loss"] for row in rows]))
    return records


def bound_report(config: ExperimentConfig):
    """Excess-loss bound series versus the measured mean excess loss.

    The topology and dataset come from the first seed; every configured seed
    contributes one training run that differs only in its packet-loss draws,
    matching the analysis where the expectation runs over packet errors.
    The runs train as one ``training._train_cells`` batch, and every
    trajectory model feeds the gradient-bound fit.  The bound series starts
    from the measured mean excess at step 0.
    """
    seed0 = config.seeds[0]
    users, dataset = build_topology(config, seed0)
    edges = assignment.build_edge_weights(users, config.network, config.fading)
    decision = assignment.hungarian_assign(edges)
    curv = _curvature(dataset)
    lr = resolve_learning_rate(config, dataset)

    runs = len(config.seeds)
    losses, models = _train_batch(
        config, config.seeds, [decision] * runs,
        [lr] * runs, dataset.x[None], dataset.y[None], dataset.sample_counts,
    )

    g_star = training.least_squares_model(dataset)
    mean_excess = bounds.empirical_gap(losses, g_star, dataset)

    fit = bounds.fit_gradient_bound(
        dataset, models.reshape(-1, models.shape[-1]), error_sum=decision.objective, curv=curv
    )
    steps = np.arange(config.rounds + 1)
    series = bounds.bound_series(
        steps, curv, fit, decision.objective, dataset.total_samples, mean_excess[0]
    )
    return {
        "steps": steps,
        "series": series,
        "mean_excess": mean_excess,
        "curvature": curv,
        "fit": fit,
        "decision": decision,
    }
