"""Acceptance suite: one test per release criterion, printed pass lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fedwireless import assignment, cli
from fedwireless.assignment import (
    build_edge_weights,
    wireless_error_sum,
    hungarian_assign,
    baseline_min_sum_per,
    baseline_optselect_randomrb,
    optimal_power,
)
from fedwireless.bounds import (
    bound_series,
    curvature,
    empirical_gap,
    fit_gradient_bound,
    convergence_slope_limit,
)
from fedwireless.config import load_config
from fedwireless.harness import build_topology, build_users, place_users
from fedwireless.phy import (
    FadingExpectation,
    NetworkParams,
    UserProfile,
    expected_uplink_rate,
    expected_downlink_rate,
    packet_error_rate,
    user_energy,
)
from fedwireless.training import (
    generate_regression_data,
    global_loss,
    least_squares_model,
    run_training,
)

from util import (
    QUAD,
    REFERENCE,
    allocation_bound,
    brute_force_assign,
    check_gradient_bound,
    manual_decision,
    synthetic_edges,
    table_topology,
)

TABLE_COUNTS = [12, 10, 8, 4, 2] * 3


def report(criterion, detail):
    print(f"\nPASS {criterion}: {detail}")


def test_criterion_01_hungarian_optimality():
    """Matching objective equals exhaustive enumeration on 200 random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n_users = int(rng.integers(1, 7))
        n_rbs = int(rng.integers(1, 7))
        edges = synthetic_edges(rng, n_users, n_rbs)
        fast = hungarian_assign(edges)
        exhaustive = brute_force_assign(edges)
        assert fast.objective == exhaustive.objective
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion 1 (matching optimality)",
           f"200/200 instances exact, {elapsed:.2f}s")


def test_criterion_02_optimal_power():
    """The per-edge power choice beats every energy-feasible grid power."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    params_base = NetworkParams()
    grid = np.linspace(params_base.max_user_power_w / 1e4, params_base.max_user_power_w, 10**4)
    step = grid[1] - grid[0]
    checked = 0
    for _ in range(100):
        distance = float(rng.uniform(20.0, 500.0) )
        interference = float(10.0 ** rng.uniform(-12.0, -6.0))
        params = NetworkParams(uplink_interference_w=(interference,) * 12)
        user = UserProfile(distance_m=distance, sample_count=int(rng.integers(1, 13)))
        rb = int(rng.integers(0, 12))
        power = optimal_power(user, rb, params, QUAD)
        energies = user_energy(user, rb, grid, params, QUAD)
        feasible = grid[energies <= params.energy_budget_j]
        if power == 0:
            assert feasible.size == 0
            continue
        checked += 1
        energy_at_star = user_energy(user, rb, power, params, QUAD)
        assert energy_at_star <= params.energy_budget_j + 1e-9
        assert feasible.size > 0
        assert abs(power - feasible.max()) <= step
        q_star = packet_error_rate(user, rb, power, params, QUAD)
        q_grid = packet_error_rate(user, rb, feasible, params, QUAD)
        assert np.all(q_star <= q_grid + 1e-15)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("criterion 2 (optimal power)",
           f"{checked} feasible pairs dominated the 10^4 grid, {elapsed:.2f}s")


def test_criterion_03_expectation_fidelity():
    """Quadrature vs 10^6-draw Monte Carlo: PER within 1e-3, rates within 0.5%."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_q, worst_rate = 0.0, 0.0
    q_values = []
    for point in range(20):
        if point < 10:   # nominal links
            distance = float(rng.uniform(30.0, 500.0))
            interference = float(10.0 ** rng.uniform(-12.0, -6.2))
            power = float(rng.uniform(1e-4, 0.01))
        else:            # stressed links: far user, strong interference, low power
            distance = float(rng.uniform(300.0, 500.0))
            interference = float(10.0 ** rng.uniform(-6.5, -5.5))
            power = float(rng.uniform(5e-5, 1e-3))
        params = NetworkParams(uplink_interference_w=(interference,) * 12)
        user = UserProfile(distance_m=distance, sample_count=10)
        mc = FadingExpectation(
            method="monte_carlo", node_or_sample_count=10**6, seed=1000 + point
        )
        q_quad = packet_error_rate(user, 0, power, params, QUAD)
        q_mc = packet_error_rate(user, 0, power, params, mc)
        q_values.append(q_mc)
        worst_q = max(worst_q, abs(q_quad - q_mc))
        r_quad = expected_uplink_rate(user, 0, power, params, QUAD)
        r_mc = expected_uplink_rate(user, 0, power, params, mc)
        worst_rate = max(worst_rate, abs(r_quad - r_mc) / r_mc)
        d_quad = expected_downlink_rate(user, params, QUAD)
        d_mc = expected_downlink_rate(user, params, mc)
        worst_rate = max(worst_rate, abs(d_quad - d_mc) / d_mc)
    assert worst_q < 1e-3
    assert worst_rate < 0.005
    assert min(q_values) < 1e-3 and max(q_values) > 0.3   # points span easy and hard links
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("criterion 3 (expectation fidelity)",
           f"max PER err {worst_q:.2e}, max rate rel err {worst_rate:.2e}, {elapsed:.1f}s")


def _reference_topology_and_decision():
    config = load_config(REFERENCE)
    users, dataset = build_topology(config, 7)
    edges = build_edge_weights(users, config.network, config.fading)
    decision = hungarian_assign(edges)
    return config, users, dataset, decision


def test_criterion_04_bound_dominance():
    """Mean excess loss over 100 packet-loss seeds never exceeds the bound."""
    start = time.perf_counter()
    config, users, dataset, decision = _reference_topology_and_decision()
    curv = curvature(dataset)
    lr = 1.0 / curv.lipschitz_l
    rounds = 200
    trajectories = [
        run_training(dataset, decision, lr, rounds, np.random.default_rng([seed, 3]))
        for seed in range(100)
    ]
    g_star = least_squares_model(dataset)
    losses = np.array([losses for losses, _, _ in trajectories])
    mean_excess = empirical_gap(losses, g_star, dataset)
    assert np.all(mean_excess >= -1e-15)

    models = np.vstack([models for _, models, _ in trajectories])
    counts = dataset.sample_counts
    error_sum = wireless_error_sum(decision.selection, decision.error_rate, counts)
    fit = fit_gradient_bound(dataset, models, error_sum=error_sum, curv=curv)
    # The fitted inequality holds at every trajectory point, re-checked
    # against the residual-form oracle rather than the profile the fit read.
    assert check_gradient_bound(dataset, models, fit)
    steps = np.arange(rounds + 1)
    # The series that `fedwireless bound` writes.
    series = bound_series(steps, curv, fit, error_sum, dataset.total_samples, mean_excess[0])
    factor, bound, gap = series.contraction, series.per_step_bound, series.asymptotic_gap
    assert factor < 1.0
    envelope = 1e-9 * (1.0 + np.abs(bound))
    assert np.all(mean_excess <= bound + envelope)

    assert np.isfinite(gap)
    assert mean_excess[-1] <= 2.0 * gap
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        "criterion 4 (bound dominance)",
        f"contraction={factor:.4f}, intercept={fit.intercept:.3f}, slope={fit.slope:.3f}, "
        f"final mean excess {mean_excess[-1]:.3e} <= bound {bound[-1]:.3e}, {elapsed:.1f}s",
    )


def test_criterion_05_error_free_contraction():
    """With no packet errors and full selection, excess loss contracts at 1 - mu/L."""
    dataset = generate_regression_data(np.random.default_rng([7, 1]), TABLE_COUNTS)
    curv = curvature(dataset)
    lr = 1.0 / curv.lipschitz_l
    decision = manual_decision(np.ones(15), np.zeros(15))
    losses = run_training(dataset, decision, lr, 200, np.random.default_rng(0))[0]
    optimal = global_loss(dataset, least_squares_model(dataset))
    excess = losses - optimal
    factor = 1.0 - curv.strong_convexity_mu / curv.lipschitz_l
    ratios = excess[1:] / excess[:-1]
    assert np.all(ratios <= factor + 1e-10)
    report("criterion 5 (error-free rate)",
           f"max per-step ratio {ratios.max():.6f} <= {factor + 1e-10:.6f}")


def test_criterion_06_algorithm_ordering():
    """Mean final loss over 50 seeds: proposed <= a <= b, and proposed <= c."""
    start = time.perf_counter()
    config = load_config(REFERENCE)
    config = replace(config, rounds=150)
    finals = {name: [] for name in ("proposed", "baseline_a", "baseline_b", "baseline_c")}
    for seed in range(50):
        users, dataset = build_topology(config, seed)
        edges = build_edge_weights(users, config.network, config.fading)
        lr = 1.0 / curvature(dataset).lipschitz_l
        alloc_rng = np.random.default_rng([seed, 2])
        decisions = {
            "proposed": hungarian_assign(edges),
            "baseline_a": baseline_optselect_randomrb(alloc_rng, edges),
            "baseline_b": assignment._random_all(
                [alloc_rng], [users], [edges], config.network, config.fading
            )[0],
            "baseline_c": baseline_min_sum_per(edges),
        }
        for name, decision in decisions.items():
            losses = run_training(
                dataset, decision, lr, config.rounds, np.random.default_rng([seed, 3])
            )[0]
            finals[name].append(losses[-1])

    means = {name: float(np.mean(vals)) for name, vals in finals.items()}
    variances = {name: float(np.var(vals, ddof=1)) for name, vals in finals.items()}

    def pooled_se(x, y):
        return float(np.sqrt(variances[x] / 50 + variances[y] / 50))

    assert means["proposed"] <= means["baseline_a"] + pooled_se("proposed", "baseline_a")
    assert means["baseline_a"] <= means["baseline_b"] + pooled_se("baseline_a", "baseline_b")
    assert means["proposed"] <= means["baseline_c"] + pooled_se("proposed", "baseline_c")
    elapsed = time.perf_counter() - start
    report(
        "criterion 6 (algorithm ordering)",
        "mean final loss "
        + " ".join(f"{k}={v:.5f}" for k, v in means.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_07_monotonicity_suite():
    """1000 random points: energy strictly increasing, PER non-increasing in P."""
    rng = np.random.default_rng(707)
    violations = 0
    for _ in range(1000):
        distance = float(rng.uniform(10.0, 500.0))
        interference = float(10.0 ** rng.uniform(-12.0, -6.0))
        params = NetworkParams(uplink_interference_w=(interference,) * 12)
        user = UserProfile(distance_m=distance, sample_count=5)
        rb = int(rng.integers(0, 12))
        p1 = float(rng.uniform(1e-6, 0.0099))
        p2 = float(rng.uniform(p1 * (1 + 1e-6), 0.01))
        e1 = user_energy(user, rb, p1, params, QUAD)
        e2 = user_energy(user, rb, p2, params, QUAD)
        q1 = packet_error_rate(user, rb, p1, params, QUAD)
        q2 = packet_error_rate(user, rb, p2, params, QUAD)
        if not (e1 < e2) or q2 > q1:
            violations += 1
    assert violations == 0
    report("criterion 7 (monotonicity)", "0 violations on 1000 random points")


def test_criterion_08_gradient_slope_guarantee():
    """Whenever the slope test passes, the realized contraction factor is < 1."""
    rng = np.random.default_rng(808)
    violations = 0
    tested = 0
    for _ in range(100):
        n_users = int(rng.integers(2, 7))
        n_rbs = int(rng.integers(2, 7))
        interference = tuple(10.0 ** rng.uniform(-9.0, -6.5, n_rbs))
        params = NetworkParams(rb_count=n_rbs, uplink_interference_w=interference)
        distances = place_users(rng, n_users, 500.0)
        counts = [int(rng.integers(2, 13)) for _ in range(n_users)]
        users = [
            UserProfile(distance_m=float(d), sample_count=k)
            for d, k in zip(distances, counts)
        ]
        threshold = convergence_slope_limit(users, params, QUAD)
        if np.isinf(threshold):
            slope = float(rng.uniform(0.5, 100.0))
        else:
            slope = float(threshold * rng.uniform(0.05, 0.95))
        if not slope < threshold:
            continue
        tested += 1
        dataset = generate_regression_data(rng, counts)
        curv = curvature(dataset)
        edges = build_edge_weights(users, params, QUAD)
        decision = hungarian_assign(edges)
        # The guarantee covers the packet-error part of the contraction factor:
        # evaluate it with the realized per-user error rates of the allocation.
        factor = allocation_bound(
            np.ones(n_users), decision.error_rate, counts, curv, slope=slope
        ).contraction
        if not factor < 1.0:
            violations += 1
    assert tested >= 90
    assert violations == 0
    report("criterion 8 (slope guarantee)", f"{tested} topologies, 0 violations")


def test_criterion_09_simulate_determinism(tmp_path):
    """Two CLI invocations on the reference config write byte-identical CSV."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", str(REFERENCE), "--outdir", str(out_a)]) == 0
    assert cli.main(["simulate", str(REFERENCE), "--outdir", str(out_b)]) == 0
    bytes_a = (out_a / "runs.csv").read_bytes()
    bytes_b = (out_b / "runs.csv").read_bytes()
    assert bytes_a == bytes_b
    report("criterion 9 (determinism)", f"runs.csv identical ({len(bytes_a)} bytes)")


def test_criterion_10_hungarian_scaling():
    """Solver effort grows with the user count and stays within c * U^2 * R.

    Each user-row insertion settles at most R + 1 columns, so
    iterations <= U * (R + 1) <= U^2 * R for every U >= 2; the fitted
    constant must therefore stay at or below 1, and here it is far below.
    Mean effort must also be non-decreasing in the user count.
    """
    rng = np.random.default_rng(1010)
    user_counts = [5, 10, 15, 20, 25]
    rb_counts = [10, 15]
    mean_iters = {}
    max_ratio = 0.0
    for n_rbs in rb_counts:
        for n_users in user_counts:
            iters = []
            for _ in range(30):
                edges = synthetic_edges(rng, n_users, n_rbs, feasible_prob=0.9)
                iters.append(hungarian_assign(edges).solver_iterations)
                assert iters[-1] <= n_users * (n_rbs + 1)
            mean_iters[(n_users, n_rbs)] = float(np.mean(iters))
            max_ratio = max(max_ratio, max(iters) / (n_users**2 * n_rbs))
    for n_rbs in rb_counts:
        series = [mean_iters[(u, n_rbs)] for u in user_counts]
        assert all(a <= b for a, b in zip(series, series[1:])), series
    fitted_c = max_ratio
    assert fitted_c <= 1.0
    for (n_users, n_rbs), mean in mean_iters.items():
        assert mean <= fitted_c * n_users**2 * n_rbs + 1e-9
    report(
        "criterion 10 (solver scaling)",
        "mean iterations "
        + ", ".join(f"U={u}:{mean_iters[(u, 15)]:.0f}" for u in user_counts)
        + f" at R=15; fitted c={fitted_c:.3f}",
    )
