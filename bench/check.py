"""Correctness checks of one workload's outputs, run after the timed loop.

Every iteration of a run writes byte-identical outputs (the loop compares
each iteration against the first), so the outputs are checked once:

- every allocation passes ``assignment.verify_allocation``;
- every ``proposed`` matching reaches the optimum that
  ``scipy.optimize.linear_sum_assignment`` finds on the same edge weights;
- every loss is finite;
- for ``bound``, the bound dominates the measured mean excess loss at every
  step and the topology's slope limit is a positive number.

Each check returns a list of problems; an empty list means the outputs hold.
"""

from __future__ import annotations

import hashlib
import math
from types import SimpleNamespace

import numpy as np

from fedwireless import assignment, harness

# Matching optima are sums of up to min(U, R) float weights in different
# orders; they agree to rounding, far below any real difference.
OBJECTIVE_RTOL = 1e-9
# The bound CLI compares with this absolute slack (cli._cmd_bound).
BOUND_SLACK = 1e-9


def matching_problems(captured):
    """Compare each captured ``hungarian_assign`` result with scipy's optimum."""
    from scipy.optimize import linear_sum_assignment

    problems = []
    for number, (edges, decision) in enumerate(captured):
        rows, cols = linear_sum_assignment(edges.weights)
        optimum = float(np.sum(edges.sample_counts)) + float(edges.weights[rows, cols].sum())
        if not math.isclose(decision.objective, optimum, rel_tol=OBJECTIVE_RTOL):
            problems.append(
                f"matching {number}: objective {decision.objective!r} != scipy optimum {optimum!r}"
            )
    return problems


def _decision(record, n_rbs):
    rb_assignment = np.zeros((len(record.selection), n_rbs), dtype=int)
    for user, rb in enumerate(record.rb_index):
        if rb >= 0:
            rb_assignment[user, rb] = 1
    return SimpleNamespace(
        selection=np.asarray(record.selection),
        rb_assignment=rb_assignment,
        power_w=np.asarray(record.power_w, dtype=float),
    )


def simulate_problems(config, outdir, captured):
    """Check ``runs.csv`` and ``manifest.json`` written by ``fedwireless simulate``."""
    problems = []
    records = harness.load_manifest(outdir / "manifest.json")
    expected = len(config.algorithms) * len(config.seeds)
    if len(records) != expected:
        problems.append(f"manifest holds {len(records)} records, expected {expected}")
    users_of = {}
    for record in records:
        if record.seed not in users_of:
            users_of[record.seed] = harness.build_topology(config, record.seed)[0]
        violations = assignment.verify_allocation(
            _decision(record, config.network.rb_count), users_of[record.seed],
            config.network, config.fading,
        )
        problems += [f"{record.algorithm} seed {record.seed}: {v}" for v in violations]
        if not all(math.isfinite(v) for v in record.losses):
            problems.append(f"{record.algorithm} seed {record.seed}: non-finite loss")
    for row in harness.read_csv_rows(outdir / "runs.csv"):
        if not math.isfinite(row["loss"]):
            problems.append(f"runs.csv: non-finite loss at {row['algorithm']} "
                            f"seed {row['seed']} round {row['round']}")
    proposed = sum(1 for r in records if r.algorithm == "proposed")
    if len(captured) != proposed:
        problems.append(f"captured {len(captured)} proposed matchings, expected {proposed}")
    return problems + matching_problems(captured)


def bound_problems(config, outdir, captured, slope_limit):
    """Check ``bound.csv`` written by ``fedwireless bound`` and the slope limit."""
    problems = []
    lines = (outdir / "bound.csv").read_text(encoding="utf-8").splitlines()
    if len(lines) != config.rounds + 2:
        problems.append(f"bound.csv has {len(lines) - 1} rows, expected {config.rounds + 1}")
    for line in lines[1:]:
        step, bound, excess = line.split(",")
        bound, excess = float(bound), float(excess)
        if not (math.isfinite(bound) and math.isfinite(excess)):
            problems.append(f"bound.csv step {step}: non-finite value")
        elif excess > bound + BOUND_SLACK:
            problems.append(f"bound.csv step {step}: excess {excess!r} above bound {bound!r}")
    if not (slope_limit > 0 and math.isfinite(slope_limit)):
        problems.append(f"convergence slope limit {slope_limit!r} is not a positive number")
    if len(captured) != 1:
        problems.append(f"captured {len(captured)} proposed matchings, expected 1")
    users = harness.build_topology(config, config.seeds[0])[0]
    for _, decision in captured:
        problems += assignment.verify_allocation(decision, users, config.network, config.fading)
    return problems + matching_problems(captured)


def output_digests(outdir, command):
    """sha256 of the CSV output and, for ``simulate``, each record's allocation digest.

    Information for comparing outputs across versions, not a check.
    """
    name = "runs.csv" if command == "simulate" else "bound.csv"
    digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()}
    allocations = {}
    if command == "simulate":
        for row in harness.read_csv_rows(outdir / name):
            allocations[f"{row['algorithm']}/{row['seed']}"] = row["allocation_digest"]
    return {"sha256": digests, "allocation_digests": allocations}
