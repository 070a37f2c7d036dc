"""Command-line interface.

Subcommands: simulate (full runs to CSV + manifest), assign (print the
allocation table), bound (contraction-bound series vs measurement), sweep
(one axis, aggregated CSV), validate (invariant self-test battery).

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 validation
failure, 5 training divergence.  The FEDWIRELESS_OUTDIR environment variable
overrides the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import assignment, bounds, harness, training
from .config import ConfigError, load_config

OUTDIR_ENV = "FEDWIRELESS_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_DIVERGED = 5


def _outdir(args) -> Path:
    path = Path(os.environ.get(OUTDIR_ENV, args.outdir))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    records = harness.run_experiment(config)
    outdir = _outdir(args)
    csv_path = outdir / "runs.csv"
    harness.export_csv(records, csv_path)
    harness.write_manifest(records, outdir / "manifest.json", config=config)
    print(f"wrote {len(records)} runs to {csv_path}")
    for record in records:
        print(
            f"  {record.algorithm:12s} seed={record.seed:<6d} "
            f"final_loss={record.final_loss:.6g} objective={record.objective:.6g}"
        )
    return EXIT_OK


def _cmd_assign(args) -> int:
    config = load_config(args.config)
    for seed in config.seeds:
        users, _ = harness.build_topology(config, seed)
        edges = assignment.build_edge_weights(users, config.network, config.fading)
        decision = assignment.hungarian_assign(edges)
        print(f"seed {seed}: objective={decision.objective:.6g} "
              f"selected={int(np.sum(decision.selection))}/{len(users)}")
        print("  user  samples  sel  rb    power_w      error_rate   delay_s      energy_j")
        for i, user in enumerate(users):
            rb_row = decision.rb_assignment[i]
            rb = int(np.argmax(rb_row)) if rb_row.any() else -1
            print(
                f"  {i:4d} {user.sample_count:4d}  {int(decision.selection[i]):2d} "
                f"{rb:4d}  {decision.power_w[i]:<12.6g} {decision.error_rate[i]:<12.6g} "
                f"{decision.delay_s[i]:<12.6g} {decision.energy_j[i]:<12.6g}"
            )
    return EXIT_OK


def _cmd_bound(args) -> int:
    config = load_config(args.config)
    report = harness.bound_report(config)
    series = report["series"]
    outdir = _outdir(args)
    path = outdir / "bound.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("step,bound,mean_excess_loss\n")
        for step in report["steps"]:
            handle.write(
                f"{step},{repr(float(series.per_step_bound[step]))},"
                f"{repr(float(report['mean_excess'][step]))}\n"
            )
    curv = report["curvature"]
    fit = report["fit"]
    print(f"L={curv.lipschitz_l:.6g} mu={curv.strong_convexity_mu:.6g} "
          f"grad_bound_intercept={fit.intercept:.6g} grad_bound_slope={fit.slope:.6g}")
    print(f"contraction={series.contraction:.6g} "
          f"asymptotic_gap={series.asymptotic_gap:.6g}")
    dominated = bool(np.all(report["mean_excess"] <= series.per_step_bound + 1e-9))
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


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    values = _sweep_values(args.values)
    rows = harness.sweep(config, args.axis, values)
    outdir = _outdir(args)
    path = outdir / f"sweep_{args.axis}.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(
            "axis,value,algorithm,mean_final_loss,std_final_loss,mean_solver_iterations\n"
        )
        for row in rows:
            handle.write(
                f"{row['axis']},{row['value']},{row['algorithm']},"
                f"{repr(row['mean_final_loss'])},{repr(row['std_final_loss'])},"
                f"{repr(row['mean_solver_iterations'])}\n"
            )
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    failures = []

    def check(name, ok):
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    rng = np.random.default_rng(0)
    users, dataset = harness.build_topology(config, config.seeds[0])
    params, fexp = config.network, config.fading

    edges = assignment.build_edge_weights(users[:5], harness._with_rb_count(params, 5), fexp)
    hung = assignment.hungarian_assign(edges)
    brute = assignment.brute_force_assign(edges)
    check("matching optimality (5 users, 5 RBs)", hung.objective == brute.objective)

    from .phy import packet_error_rate, user_energy
    powers = np.sort(rng.uniform(1e-5, params.max_user_power_w, 32))
    q = packet_error_rate(users[0], 0, powers, params, fexp)
    e = user_energy(users[0], 0, powers, params, fexp)
    check("error rate non-increasing in power", bool(np.all(np.diff(q) <= 1e-15)))
    if users[0].payload_bits > 0:
        check("energy strictly increasing in power", bool(np.all(np.diff(e) > 0)))
    else:
        check("energy is zero at every power without a payload", bool(np.all(e == 0)))

    # The power searches of two topologies pooled into one bisection must
    # give each topology the edges it gets alone, bit for bit.
    other = harness.build_topology(config, config.seeds[0] + 1)[0]
    pooled = assignment._edge_weights([users, other], params, fexp)
    alone = [assignment.build_edge_weights(one, params, fexp) for one in (users, other)]
    check("a pooled edge build of two topologies equals two single builds bit for bit", all(
        values.tobytes() == vars(b)[name].tobytes()
        for a, b in zip(pooled, alone) for name, values in vars(a).items()
    ))

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

    g_star = training.least_squares_model(dataset)
    check("pooled solution beats the trajectory",
          bool(np.all(run_a[0] >= training.global_loss(dataset, g_star))))

    if failures:
        print(f"{len(failures)} validation failure(s)")
        return EXIT_VALIDATION
    print("all validation checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedwireless",
        description="Simulate and optimize federated learning over a wireless uplink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the experiment config file")
        p.add_argument("--outdir", default="out", help="output directory (default: out)")
        p.set_defaults(func=func)
        return p

    add("simulate", _cmd_simulate, "run all (algorithm, seed) cells, write CSV + manifest")
    add("assign", _cmd_assign, "print the optimized allocation table per seed")
    add("bound", _cmd_bound, "contraction-bound series vs measured mean excess loss")
    sweep_parser = add("sweep", _cmd_sweep, "sweep one axis and aggregate final losses")
    sweep_parser.add_argument(
        "--axis", required=True, choices=["user_count", "rb_count", "samples_per_user"]
    )
    sweep_parser.add_argument(
        "--values", required=True, help="comma-separated positive integers"
    )
    add("validate", _cmd_validate, "run the invariant self-test battery")
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
