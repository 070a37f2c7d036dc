"""Convergence analysis for the wireless federated training loop.

The theorem: with L and mu the smoothness and strong-convexity constants of
the pooled objective F (``curvature``), K the total sample count and
per-sample gradients bounded as ||grad f_ik(g)||^2 <= zeta1 + zeta2 *
||grad F(g)||^2 (zeta1 = ``intercept``, zeta2 = ``slope``, fitted by
``fit_gradient_bound``), an allocation whose error sum is
s = sum_i K_i (1 - a_i + a_i q_i) (``assignment.wireless_error_sum``) gives
the one-step recursion

    E[F(g_{t+1}) - F(g*)] <= B * E[F(g_t) - F(g*)] + A,
    A = 2 zeta1 s / (L K),    B = 1 - mu/L + 4 mu zeta2 s / (L K).

From gap_0 = F(g_0) - F(g*) it unrolls to B^t * gap_0 + A * (1 - B^t) / (1 - B)
(gap_0 + t * A when B = 1), which tends to A / (mu/L - 4 mu zeta2 s / (L K))
when B < 1.  ``bound_series`` evaluates the recursion itself, in IEEE
multiplies and adds alone.  The smallest valid zeta1 is convex and
piecewise linear in zeta2 and the limit monotone on each piece, so
``fit_gradient_bound`` finds the limit's exact minimum at zeta2 = 0 or at a
breakpoint.  The allocator minimizes s.  ``convergence_slope_limit``
gives the largest zeta2 that keeps B < 1 for every feasible allocation of a topology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assignment, phy, training

__all__ = [
    "CurvatureEstimate",
    "GradientBoundFit",
    "BoundSeries",
    "curvature",
    "fit_gradient_bound",
    "bound_series",
    "worst_case_error_sum",
    "convergence_slope_limit",
    "empirical_gap",
]


@dataclass(frozen=True)
class CurvatureEstimate:
    """Smoothness and strong-convexity constants of the pooled objective."""

    lipschitz_l: float
    strong_convexity_mu: float

    def __post_init__(self):
        if not 0 < self.strong_convexity_mu <= self.lipschitz_l:
            raise ValueError(
                f"need 0 < mu <= L, got mu={self.strong_convexity_mu}, L={self.lipschitz_l}"
            )


def curvature(dataset) -> CurvatureEstimate:
    """Extreme eigenvalues of the pooled Hessian (1/K) sum_ik x x^T.

    For the linear-regression loss the Hessian is constant, so both constants
    are exact.  Rank-deficient data is rejected: strong convexity is a
    standing assumption of the analysis.
    """
    hessian = training._moments(dataset)[0] / dataset.total_samples
    eigenvalues = np.linalg.eigvalsh(hessian)
    lipschitz = float(eigenvalues[-1])
    mu = float(eigenvalues[0])
    if mu <= 1e-12 * max(lipschitz, 1.0):
        raise ValueError(
            "pooled design matrix is rank deficient (mu = 0): strong convexity "
            "does not hold, add non-collinear features or more data"
        )
    return CurvatureEstimate(lipschitz_l=lipschitz, strong_convexity_mu=mu)


@dataclass(frozen=True)
class GradientBoundFit:
    """Affine bound on per-sample gradients over the fitted model set:
    ||grad f_ik(g)||^2 <= intercept + slope * ||grad F(g)||^2."""

    intercept: float
    slope: float

    def __post_init__(self):
        if self.intercept < 0 or self.slope < 0:
            raise ValueError("intercept and slope must be >= 0")


# Models per pass of _gradient_norm_profiles: bounds its (samples x models)
# residuals to a few MB however many trajectory points are fitted.
_PROFILE_CHUNK = 4096


def _gradient_norm_profiles(dataset, models):
    """Per-trajectory-point max per-sample gradient norm^2 and global gradient norm^2.

    The maximum of r_k^2 ||x_k||^2, r_k = x_k.g - y_k, needs every residual;
    the global gradient only the moments (``training._moments``): grad F_a =
    (sum_b G[a, b] g_b - m[a]) / K, summed b = 0 first.  Near g* that cancels,
    and the computed norm^2 is within 3e sum_a M_a (|grad F_a| + e M_a) of the
    exact one, M = |X|^T (|X| |g| + |y|) / K, e = n u / (1 - n u), n = K + dim + 2
    and u = 2^-53.  Every value is a fixed-order elementwise product or sum, so
    no bit depends on the BLAS kernel, on ``_PROFILE_CHUNK`` or on the batch.
    """
    models = np.atleast_2d(np.asarray(models, dtype=float))
    x, y = dataset.x, dataset.y
    gram, moment = training._moments(dataset)
    x_norm2 = np.sum(x * x, axis=1)[:, None]               # (K, 1)
    columns = x.T[:, :, None]                              # (dim, K, 1)
    per_sample_max, grad_f_norm2 = np.empty((2, models.shape[0]))
    for start in range(0, models.shape[0], _PROFILE_CHUNK):
        chunk = slice(start, start + _PROFILE_CHUNK)
        g = models[chunk].T                                # (dim, T)
        # (dim, K, 1) columns against (dim, 1, T) models give every residual at once.
        residuals = training._predict(columns, g[:, None]) - y[:, None]   # (K, T)
        residuals *= residuals
        residuals *= x_norm2
        residuals.max(axis=0, out=per_sample_max[chunk])
        grad_f = [(training._predict(row, g) - m) / dataset.total_samples
                  for row, m in zip(gram, moment)]
        grad_f_norm2[chunk] = training._predict(grad_f, grad_f)
    return per_sample_max, grad_f_norm2


def _theorem(error_sum, total, curv, intercept, slope):
    """The theorem's (B, A, limit) for error sum s = ``error_sum``, K =
    ``total``, zeta1 = ``intercept`` and zeta2 = ``slope``; the limit is inf
    when mu/L - 4 mu zeta2 s / (L K) <= 0."""
    ratio = curv.strong_convexity_mu / curv.lipschitz_l
    scale = curv.lipschitz_l * total
    drift = 4.0 * curv.strong_convexity_mu * slope * error_sum / scale
    per_step = 2.0 * intercept * error_sum / scale
    margin = ratio - drift
    limit = per_step / margin if margin > 0 else float("inf")
    return 1.0 - ratio + drift, per_step, limit


def fit_gradient_bound(dataset, models, error_sum, curv):
    """Fit the (intercept, slope) gradient bound from observed global models.

    A slope's smallest valid intercept, max(0, max over trajectory points of
    max_k ||grad f_k||^2 - slope*||grad F||^2), is an upper envelope of lines
    on whose pieces the asymptotic gap is monotone, so the exact minimiser over
    [0, K / (4 * error_sum)) is slope 0 or a breakpoint, the smallest slope on
    a tie.  error_sum = 0 gives slope = 0 with the definitional intercept.
    """
    models = np.atleast_2d(np.asarray(models, dtype=float))
    if models.shape[0] < 1:
        raise ValueError("need at least one trajectory point")
    per_sample_max, grad_f_norm2 = _gradient_norm_profiles(dataset, models)

    def intercept_for(slope):
        return float(max(0.0, np.max(per_sample_max - slope * grad_f_norm2)))

    if error_sum == 0:
        return GradientBoundFit(intercept=intercept_for(0.0), slope=0.0)
    total = dataset.total_samples
    # Line t is slope -> a_t - slope * b_t, and the appended (0, 0) the clamp.
    a, b = np.append(per_sample_max, 0.0), np.append(grad_f_norm2, 0.0)
    line, candidates = int(np.argmax(a)), [0.0]
    while (flatter := np.flatnonzero(b < b[line])).size:
        crossings = (a[line] - a[flatter]) / (b[line] - b[flatter])
        at = crossings.min()
        if at >= total / (4.0 * error_sum):
            break
        candidates.append(float(at))
        line = min(flatter[crossings == at], key=lambda j: b[j])   # the flattest
    # Candidates rise, and min keeps the first of equal gaps: smallest slope wins.
    intercept, slope = min(
        ((intercept_for(slope), float(slope)) for slope in candidates),
        key=lambda pair: _theorem(error_sum, total, curv, *pair)[2],
    )
    return GradientBoundFit(intercept=intercept, slope=slope)


def _trajectory(steps, factor, per_step, initial_gap):
    """The recursion b(0) = gap_0, b(s + 1) = B * b(s) + A, B = ``factor`` and
    A = ``per_step``, run to the largest of ``steps`` and read at ``steps``."""
    steps = np.asarray(steps)
    if np.any(steps < 0):
        raise ValueError("steps must be non-negative integers")
    bound = [float(initial_gap)]
    for _ in range(int(np.max(steps, initial=0))):
        bound.append(factor * bound[-1] + per_step)
    return np.array(bound)[steps]


@dataclass
class BoundSeries:
    """Per-step excess-loss bound for one allocation."""

    contraction: float
    per_step_bound: np.ndarray
    asymptotic_gap: float


def bound_series(steps, curv, fit, error_sum, total_samples, initial_gap):
    """The theorem for an allocation with error sum s = ``error_sum`` over K =
    ``total_samples`` samples under the gradient bound ``fit``: its
    contraction factor B, the bound at each of the non-negative integer
    ``steps`` and the limit, inf when B >= 1."""
    factor, per_step, gap = _theorem(error_sum, total_samples, curv, fit.intercept, fit.slope)
    return BoundSeries(
        contraction=factor,
        per_step_bound=_trajectory(steps, factor, per_step, initial_gap),
        asymptotic_gap=gap,
    )


def worst_case_error_sum(users, params, fexp) -> float:
    """Largest sample-weighted error-rate sum over feasible allocations.

    The error rate is non-increasing in power, so each edge's worst case is
    attained at its minimum feasible power, the ``assignment._delay_floor``
    of each edge that the edge build's gate passed, taken from the edge
    build's user cohort (one downlink delay each); the worst assignment is
    then a max-weight matching over those per-edge values.
    """
    edges = assignment._edge_weights([users], params, fexp)[0]
    rows, rbs = np.nonzero(edges.feasible)
    pairs = edges.users.take(rows).on(rbs, params)
    p_lo = assignment._delay_floor(pairs, edges.power_w[rows, rbs], params, fexp)
    gains = np.zeros(edges.feasible.shape)
    gains[rows, rbs] = edges.sample_counts[rows] * phy._error_rate(pairs, p_lo, params, fexp)
    # Pairs matched at gain 0 are dropped by the solver; they only added 0.0.
    (rows, rbs), _ = assignment._solve_matching(-gains)
    total = 0.0
    for gain in gains[rows, rbs].tolist():
        total += gain
    return total


def convergence_slope_limit(users, params, fexp) -> float:
    """Largest gradient-bound slope that keeps the contraction factor below 1
    for every feasible allocation of this topology."""
    worst = worst_case_error_sum(users, params, fexp)
    total = float(sum(u.sample_count for u in users))
    if worst == 0.0:
        return float("inf")
    return total / (4.0 * worst)


def empirical_gap(losses, optimal_model, dataset):
    """Per-step mean excess loss F(g_t) - F(g*) over seeded runs.

    ``losses`` holds one recorded loss trajectory per run (step 0 first),
    all of the same length: a (runs, steps) array such as the losses of a
    ``training._train_cells`` batch, or the stacked losses of several
    ``run_training`` runs.
    """
    if len(losses) == 0:
        raise ValueError("need at least one trajectory")
    if len({len(run) for run in losses}) != 1:
        raise ValueError("all trajectories must have the same length")
    optimal_loss = training.global_loss(dataset, optimal_model)
    return np.asarray(losses, dtype=float).mean(axis=0) - optimal_loss
