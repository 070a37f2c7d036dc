"""Shared helpers for the test suite."""

from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from fedwireless import assignment, bounds, harness, phy
from fedwireless.assignment import AllocationDecision, EdgeWeightMatrix
from fedwireless.phy import FadingExpectation, NetworkParams, UserProfile

REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"
QUAD = FadingExpectation()


def user_at(distance, samples=12, **kwargs):
    return UserProfile(distance_m=distance, sample_count=samples, **kwargs)


class PointMassFading:
    """A fading rule that pins the fading power to ``value``, whatever the
    mean, collapsing every expectation to its integrand: duck-types
    ``FadingExpectation`` (one node) for closed-form checks."""

    node_or_sample_count = 1

    def __init__(self, value):
        self.value = value

    def expect(self, integrand, scale, *columns):
        _, *columns = np.broadcast_arrays(np.asarray(scale, dtype=float), *columns)
        fading = np.array([self.value])
        return np.asarray(integrand(fading, *(c[..., None] for c in columns)), dtype=float)[..., 0]


def paired_difference(x, y):
    """Mean and standard error of the per-seed differences x - y."""
    diff = np.asarray(x) - np.asarray(y)
    return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(diff.size))


def record_integrand_sizes(monkeypatch):
    """The element count of every integrand call that
    ``FadingExpectation.expect`` makes from now on, as a growing list."""
    sizes, expect = [], FadingExpectation.expect

    def recorded(self, integrand, scale, *columns):
        def measured(*args):
            values = integrand(*args)
            sizes.append(np.size(values))
            return values

        return expect(self, measured, scale, *columns)

    monkeypatch.setattr(FadingExpectation, "expect", recorded)
    return sizes


def record_downlink_sizes(monkeypatch):
    """The element count of every ``phy._downlink_rate`` result from now
    on, as a growing list: one per user of each cohort built."""
    sizes, rate = [], phy._downlink_rate

    def recorded(*args):
        values = rate(*args)
        sizes.append(np.size(values))
        return values

    monkeypatch.setattr(phy, "_downlink_rate", recorded)
    return sizes


def gradient_norm_profiles(dataset, models):
    """Residual-form oracle of ``bounds._gradient_norm_profiles``: every
    model's residuals over every sample, reduced to the largest per-sample
    gradient norm^2 and, through the global gradient's column sums, to the
    global gradient norm^2.  The residuals are summed feature by feature in
    the package's order, so the per-sample maximum has the same bits."""
    models = np.atleast_2d(np.asarray(models, dtype=float))
    x, y = dataset.x, dataset.y
    prediction = x[:, :1] * models[:, 0]
    for j in range(1, x.shape[1]):
        prediction += x[:, j:j + 1] * models[:, j]
    residuals = prediction - y[:, None]                                # (K, T)
    per_sample_max = np.max(residuals ** 2 * np.sum(x * x, axis=1)[:, None], axis=0)
    grad_f = np.array([np.sum(column[:, None] * residuals, axis=0) for column in x.T])
    return per_sample_max, np.sum((grad_f / dataset.total_samples) ** 2, axis=0)


def check_gradient_bound(dataset, models, fit) -> bool:
    """Pointwise re-check of the fitted gradient inequality at every model,
    against the residual-form oracle rather than the profile the fit read."""
    per_sample_max, grad_f_norm2 = gradient_norm_profiles(dataset, models)
    slack = 1e-9 * (1.0 + np.abs(per_sample_max))
    return bool(np.all(per_sample_max <= fit.intercept + fit.slope * grad_f_norm2 + slack))


def allocation_bound(selection, q, counts, curv, intercept=0.0, slope=0.0, steps=(0,),
                     initial_gap=0.0):
    """``bounds.bound_series`` of one allocation under the gradient bound
    (``intercept``, ``slope``)."""
    fit = bounds.GradientBoundFit(intercept, slope)
    error_sum = assignment.wireless_error_sum(selection, q, counts)
    return bounds.bound_series(steps, curv, fit, error_sum, float(np.sum(counts)), initial_gap)


def per_seed_allocation(algorithm, users, config, seed):
    """One seed's allocation on its own, the oracle of the harness's pooled
    pass: a one-topology edge build, and baseline b on the seed's generator."""
    params, fexp = config.network, config.fading
    rng = harness._allocation_rng(seed)
    edges = assignment.build_edge_weights(users, params, fexp)
    if algorithm == "baseline_b":
        return assignment._random_all([rng], [edges], params, fexp)[0]
    if algorithm == "proposed":
        return assignment.hungarian_assign(edges)
    if algorithm == "baseline_a":
        return assignment.baseline_optselect_randomrb(rng, edges)
    assert algorithm == "baseline_c", algorithm
    return assignment.baseline_min_sum_per(edges)


def synthetic_edges(rng, n_users, n_rbs, feasible_prob=0.85, p_max=0.01):
    """A random but internally consistent edge matrix (weights = K*(q-1))."""
    counts = rng.integers(1, 13, n_users).astype(float)
    q = rng.random((n_users, n_rbs))
    # occasionally pin q to 1 so weight-0 feasible edges get exercised
    q[rng.random((n_users, n_rbs)) < 0.05] = 1.0
    feasible = rng.random((n_users, n_rbs)) < feasible_prob
    weights = np.where(feasible, counts[:, None] * (q - 1.0), 0.0)
    return EdgeWeightMatrix(
        weights=weights,
        feasible=feasible,
        power_w=np.where(feasible, p_max, 0.0),
        error_rate=np.where(feasible, q, 1.0),
        delay_s=np.where(feasible, 0.1, np.inf),
        energy_j=np.where(feasible, 1e-3, np.inf),
        sample_counts=counts,
        users=None,
    )


def oracle_min_matching_sum(weights):
    """Exhaustive minimum matching sum via combinations x permutations.

    Independent of the package's own enumeration; exponential, keep sizes <= 5.
    """
    n_users, n_rbs = weights.shape
    best = 0.0
    for k in range(1, min(n_users, n_rbs) + 1):
        for rows in combinations(range(n_users), k):
            for cols in permutations(range(n_rbs), k):
                total = sum(weights[r, c] for r, c in zip(rows, cols))
                best = min(best, total)
    return best


def brute_force_assign(edges: EdgeWeightMatrix) -> AllocationDecision:
    """Exhaustive matching oracle: enumerates every injective partial
    assignment of users to RBs and returns a global minimizer.

    Refuses instances beyond 8x8 (factorial blowup guard).
    """
    n_users, n_rbs = edges.weights.shape
    if n_users > 8 or n_rbs > 8:
        raise ValueError(f"brute_force_assign limited to 8x8 instances, got {n_users}x{n_rbs}")
    weights = edges.weights
    best_total = [np.inf]
    best_pairs = [()]

    def search(i, used_mask, total, pairs):
        if i == n_users:
            if total < best_total[0]:
                best_total[0] = total
                best_pairs[0] = pairs
            return
        for n in range(n_rbs):
            if not used_mask & (1 << n):
                search(i + 1, used_mask | (1 << n), total + weights[i, n], pairs + ((i, n),))
        search(i + 1, used_mask, total, pairs)

    search(0, 0, 0.0, ())
    rows, rbs = np.array(best_pairs[0], dtype=int).reshape(-1, 2).T
    kept = weights[rows, rbs] < 0.0
    return assignment._decide_on_edges(edges, (rows[kept], rbs[kept]), 0)


def manual_decision(selection, error_rates, n_rbs=None):
    """AllocationDecision with prescribed selection and error rates (for the
    training loop, which only reads those two fields)."""
    selection = np.asarray(selection, dtype=int)
    error_rates = np.asarray(error_rates, dtype=float)
    n_users = selection.shape[0]
    if n_rbs is None:
        n_rbs = n_users
    rb = np.zeros((n_users, n_rbs), dtype=int)
    for i in range(n_users):
        if selection[i]:
            rb[i, i % n_rbs] = 1
    return AllocationDecision(
        selection=selection,
        rb_assignment=rb,
        power_w=np.full(n_users, 0.01) * selection,
        objective=0.0,
        error_rate=error_rates * selection,
        delay_s=np.zeros(n_users),
        energy_j=np.zeros(n_users),
    )


def table_topology(seed=7, n_users=15, interference=None, radius=500.0):
    """Users placed like the reference experiment (standard constants)."""
    if interference is None:
        interference = tuple(np.logspace(-9, -7, 12))
    params = NetworkParams(uplink_interference_w=tuple(interference))
    rng = np.random.default_rng([seed, 0])
    u = 1.0 - rng.random(n_users)
    distances = radius * np.sqrt(u)
    cycle = [12, 10, 8, 4, 2]
    users = [
        UserProfile(distance_m=float(d), sample_count=cycle[i % 5])
        for i, d in enumerate(distances)
    ]
    return users, params
