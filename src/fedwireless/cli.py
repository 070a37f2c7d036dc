"""Command-line interface.

Subcommands: simulate (full runs to CSV + manifest), assign (print the
allocation table), bound (contraction-bound series vs measurement), sweep
(one axis, aggregated CSV), validate (invariant self-test battery), diff
(where two output directories' runs.csv and bound.csv differ).

simulate, bound and sweep write into ``--outdir`` (default ``out``), and
assign, validate and diff write nothing and take no ``--outdir``.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 validation
failure (for diff: the outputs differ), 5 training divergence.  An I/O
error names the file once.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import assignment, bounds, harness, training
from .config import ConfigError, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_DIVERGED = 5


def _outdir(args) -> Path:
    path = Path(args.outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_simulate(args, config) -> int:
    records = harness.run_experiment(config)
    outdir = _outdir(args)
    csv_path = outdir / "runs.csv"
    harness.export_csv(records, csv_path)
    harness.write_manifest(records, outdir / "manifest.json", config=config)
    print(f"wrote {len(records)} runs to {csv_path}")
    for record in records:
        print(
            f"  {record.algorithm:12s} seed={record.seed:<6d} "
            f"final_loss={record.losses[-1]:.6g} objective={record.objective:.6g}"
        )
    return EXIT_OK


def _cmd_assign(args, config) -> int:
    user_lists = [harness.build_topology(config, seed)[0] for seed in config.seeds]
    edge_sets = assignment._edge_weights(user_lists, config.network, config.fading)
    for seed, users, edges in zip(config.seeds, user_lists, edge_sets):
        decision = assignment.hungarian_assign(edges)
        print(f"seed {seed}: objective={decision.objective:.6g} "
              f"selected={int(np.sum(decision.selection))}/{len(users)}")
        print("  user  samples  sel  rb    power_w      error_rate   delay_s      energy_j")
        for i, (user, rb) in enumerate(zip(users, harness._rb_index(decision.rb_assignment))):
            print(
                f"  {i:4d} {user.sample_count:4d}  {int(decision.selection[i]):2d} "
                f"{rb:4d}  {decision.power_w[i]:<12.6g} {decision.error_rate[i]:<12.6g} "
                f"{decision.delay_s[i]:<12.6g} {decision.energy_j[i]:<12.6g}"
            )
    return EXIT_OK


def _cmd_bound(args, config) -> int:
    report = harness.bound_report(config)
    series = report["series"]
    path = _outdir(args) / "bound.csv"
    harness._write_text(path, ["step,bound,mean_excess_loss\n", *(
        f"{step},{repr(float(series.per_step_bound[step]))},"
        f"{repr(float(report['mean_excess'][step]))}\n"
        for step in report["steps"]
    )])
    curv = report["curvature"]
    fit = report["fit"]
    print(f"L={curv.lipschitz_l:.6g} mu={curv.strong_convexity_mu:.6g} "
          f"grad_bound_intercept={fit.intercept:.6g} grad_bound_slope={fit.slope:.6g}")
    print(f"contraction={series.contraction:.6g} "
          f"asymptotic_gap={series.asymptotic_gap:.6g}")
    dominated = bool(np.all(report["mean_excess"] <= series.per_step_bound))
    print(f"bound dominates measurement at every step: {dominated}")
    print(f"wrote {path}")
    return EXIT_OK if dominated else EXIT_VALIDATION


def _sweep_values(text):
    """The ``--values`` list: comma-separated positive integers, at least one."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or any(v <= 0 for v in values):
        raise ConfigError(f"--values must be comma-separated positive integers, got {text!r}")
    return values


def _cmd_sweep(args, config) -> int:
    values = _sweep_values(args.values)
    rows = harness.sweep(config, args.axis, values)
    path = _outdir(args) / f"sweep_{args.axis}.csv"
    # The header is the row keys; a Python float's str is its repr.
    harness._write_text(path, [",".join(rows[0]) + "\n", *(
        ",".join(map(str, row.values())) + "\n" for row in rows
    )])
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def _cmd_validate(args, config) -> int:
    failures = []

    def check(name, ok):
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    users, dataset = harness.build_topology(config, config.seeds[0])
    params, fexp = config.network, config.fading

    from .phy import packet_error_rate, user_energy
    # Fixed fractions of P_max, so the sweep spans three decades at any cap.
    powers = params.max_user_power_w * np.geomspace(1e-3, 1.0, 32)
    # The first RB that is not blocked: on a blocked one every energy is inf.
    rb = int(np.flatnonzero(np.isfinite(params.uplink_interference_w))[0])
    q = packet_error_rate(users[0], rb, powers, params, fexp)
    e = user_energy(users[0], rb, powers, params, fexp)
    check("error rate non-increasing in power", bool(np.all(np.diff(q) <= 1e-15)))
    if users[0].payload_bits > 0:
        check("energy strictly increasing in power", bool(np.all(np.diff(e) > 0)))
    else:
        check("energy is zero at every power without a payload", bool(np.all(e == 0)))

    # The power searches of two topologies pooled into one search must give
    # each topology the edges and user cohort it gets alone, bit for bit.
    other = harness.build_topology(config, config.seeds[0] + 1)[0]
    pooled = assignment._edge_weights([users, other], params, fexp)
    alone = [assignment.build_edge_weights(one, params, fexp) for one in (users, other)]
    check("a pooled edge build of two topologies equals two single builds bit for bit", all(
        x.tobytes() == y.tobytes() for a, b in zip(pooled, alone)
        for x, y in zip((*vars(a).values(), *a.users), (*vars(b).values(), *b.users))
        if isinstance(x, np.ndarray)
    ))

    weights, keep = alone[0].weights, assignment._candidate_rows(alone[0].weights)
    col_of_row, _, u, v = assignment._hungarian_square(weights[keep])
    violation = assignment._certificate_violation(weights[keep], col_of_row, u, v)
    kept_under = weights[keep, :, None] <= np.delete(weights, keep, axis=0).T
    check(f"matching optimality ({len(users)} users, {params.rb_count} RBs): dual certificate "
          f"off by {violation:.2g} <= 4 units of 2**-53 (U + R) max|cost| on {keep.size} of "
          f"{len(users)} rows, the rest at or above each RB's R-th lowest kept weight",
          violation <= 4 and bool(np.all(kept_under.sum(axis=0) >= params.rb_count)))

    decision = assignment.hungarian_assign(alone[0])
    check("allocation satisfies every gate",
          not assignment.verify_allocation(decision, users, params, fexp))

    lr = harness.resolve_learning_rate(config, dataset)

    ten_rounds = replace(config, rounds=10, initial_model=(0.0,) * dataset.x.shape[1])

    def train(cells):
        """(losses, models) of one 10-round training batch of (learning
        rate, packet-loss seed) cells of the allocation."""
        rates, seeds = zip(*cells)
        return harness._train_batch(
            ten_rounds, seeds, [decision] * len(cells), rates,
            dataset.x[None], dataset.y[None], dataset.sample_counts,
        )

    run_a, run_c = train([(lr, 1)]), train([(0.5 * lr, 2)])
    check("training is seed deterministic",
          run_a[0].tobytes() == train([(lr, 1)])[0].tobytes())

    # A two-cell batch (other learning rate and delivery stream in cell 2)
    # must equal the two cells trained one at a time, bit for bit.
    losses, models = train([(lr, 1), (0.5 * lr, 2)])
    check("a two-cell batch equals two single-cell runs bit for bit", all(
        losses[b].tobytes() == run[0].tobytes() and models[b].tobytes() == run[1].tobytes()
        for b, run in enumerate((run_a, run_c))
    ))

    # Data too few to be full rank has no pooled solution: a config error.
    harness._curvature(dataset)
    g_star = training.least_squares_model(dataset)
    check("pooled solution beats the trajectory",
          bool(np.all(run_a[0] >= training.global_loss(dataset, g_star))))

    if failures:
        print(f"{len(failures)} validation failure(s)")
        return EXIT_VALIDATION
    print("all validation checks passed")
    return EXIT_OK


def _cmd_diff(args) -> int:
    """Compare the runs.csv and bound.csv that both output directories
    hold: per file, identical bytes or the drift report."""
    dirs = [Path(args.a), Path(args.b)]
    for path in dirs:
        if not path.is_dir():
            raise NotADirectoryError(f"no output directory {path}")
    compared = differs = False
    for name, report in (("runs.csv", harness.csv_drift_report),
                         ("bound.csv", harness.bound_drift_report)):
        expected, actual = (path / name for path in dirs)
        if not (expected.is_file() and actual.is_file()):
            continue
        compared = True
        if expected.read_bytes() == actual.read_bytes():
            print(f"{name}: identical")
            continue
        differs = True
        try:
            text = report(expected, actual)
        except ValueError as exc:   # a row that does not parse, named by file and line
            text = str(exc)
        print(f"{name} differs:\n" + "".join(f"  {line}\n" for line in text.splitlines()), end="")
    if not compared:
        print(f"no runs.csv or bound.csv is in both {dirs[0]} and {dirs[1]}")
    return EXIT_OK if compared and not differs else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedwireless",
        description="Simulate and optimize federated learning over a wireless uplink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the experiment config file")
        p.set_defaults(func=lambda args: func(args, load_config(args.config)))
        return p

    simulate = add("simulate", _cmd_simulate,
                   "run all (algorithm, seed) cells, write CSV + manifest")
    add("assign", _cmd_assign, "print the optimized allocation table per seed")
    bound = add("bound", _cmd_bound, "contraction-bound series vs measured mean excess loss")
    sweep_parser = add("sweep", _cmd_sweep, "sweep one axis and aggregate final losses")
    sweep_parser.add_argument(
        "--axis", required=True, choices=["user_count", "rb_count", "samples_per_user"]
    )
    sweep_parser.add_argument(
        "--values", required=True, help="comma-separated positive integers"
    )
    add("validate", _cmd_validate, "run the invariant self-test battery")
    diff = sub.add_parser("diff", help="where two output directories' runs.csv and bound.csv "
                                       "differ: first differing row, largest ulps, moved digests")
    diff.add_argument("a", help="expected output directory")
    diff.add_argument("b", help="actual output directory")
    diff.set_defaults(func=_cmd_diff)
    for p in (simulate, bound, sweep_parser):    # the commands that write files
        p.add_argument("--outdir", default="out", help="output directory (default: out)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except training.TrainingDiverged as exc:
        print(f"error[divergence]: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
