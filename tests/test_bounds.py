"""Convergence-analysis tests: curvature, gradient-bound fits, bound algebra."""

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedwireless import bounds
from fedwireless.bounds import (
    CurvatureEstimate,
    curvature,
    empirical_gap,
    fit_gradient_bound,
    worst_case_error_sum,
    convergence_slope_limit,
)
from fedwireless.assignment import (
    build_edge_weights,
    feasible_power_interval,
    hungarian_assign,
    wireless_error_sum,
)
from fedwireless.config import load_config
from fedwireless.harness import build_topology, resolve_learning_rate
from fedwireless.phy import NetworkParams, UserProfile, packet_error_rate
from fedwireless.training import (
    Dataset,
    generate_regression_data,
    global_loss,
    least_squares_model,
    run_training,
)

from util import (
    PointMassFading,
    QUAD,
    REFERENCE,
    allocation_bound,
    check_gradient_bound,
    gradient_norm_profiles,
    manual_decision,
    table_topology,
)

TABLE_COUNTS = [12, 10, 8, 4, 2] * 3


def make_dataset(seed=7, counts=TABLE_COUNTS):
    return generate_regression_data(np.random.default_rng([seed, 1]), counts)


def dense_grid_gaps(ds, models, error_sum, curv):
    """The asymptotic gap at each slope of a 20 001-point even grid over
    [0, K / (4 s)), each slope with its own smallest valid intercept."""
    per_sample_max, grad_f_norm2 = bounds._gradient_norm_profiles(ds, models)
    total, mu, lip = ds.total_samples, curv.strong_convexity_mu, curv.lipschitz_l
    slopes = np.linspace(0.0, total / (4.0 * error_sum), 20_001, endpoint=False)
    intercepts = np.maximum(0.0, np.max(per_sample_max - slopes[:, None] * grad_f_norm2, axis=1))
    margins = mu / lip - 4.0 * mu * slopes * error_sum / (lip * total)
    return slopes, 2.0 * intercepts * error_sum / (lip * total) / margins


@st.composite
def lattice_model_sets(draw):
    """A 2-feature dataset on a quarter-unit lattice, so that exact ties are
    common; 1-40 models drawn with repeats from up to 12 lattice points and the
    least-squares model g*; and an error sum s from K/1000 to K."""
    count = draw(st.integers(2, 6))
    lattice = st.integers(-8, 8).map(lambda v: v / 4.0)
    rows = st.lists(lattice, min_size=count, max_size=count)
    x = np.column_stack([draw(rows), draw(rows)])
    assume(np.linalg.matrix_rank(x) == 2)
    ds = Dataset(x, np.array(draw(rows)), [count])
    pool = [least_squares_model(ds)] + [
        np.array(draw(st.tuples(lattice, lattice))) for _ in range(draw(st.integers(1, 12)))
    ]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    error_sum = count * 10.0 ** draw(st.floats(-3.0, 0.0))
    return ds, np.array([pool[i] for i in picks]), error_sum


@st.composite
def profile_cases(draw):
    """A full-rank data set of 1-4 features over 1-5 users with uneven sample
    counts, and 1-50 models drawn with repeats from g*, from g* plus 2^-40 to
    2^-20 times a free point, where the global gradient cancels, and from
    free points."""
    dim = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    total = sum(counts)
    assume(total >= dim)
    value = st.floats(-4.0, 4.0).map(lambda v: v if abs(v) >= 2.0**-10 else 0.0)
    x = np.array(draw(st.lists(value, min_size=total * dim, max_size=total * dim)))
    x = x.reshape(total, dim)
    assume(np.linalg.matrix_rank(x) == dim and np.linalg.cond(x) < 1e6)
    ds = Dataset(x, np.array(draw(st.lists(value, min_size=total, max_size=total))), counts)
    g_star = least_squares_model(ds)
    near = [g_star + 2.0 ** -draw(st.integers(20, 40)) * np.array(
        draw(st.lists(value, min_size=dim, max_size=dim))) for _ in range(draw(st.integers(0, 4)))]
    free = [np.array(draw(st.lists(value, min_size=dim, max_size=dim)))
            for _ in range(draw(st.integers(0, 4)))]
    pool = [g_star] + near + free
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=50))
    return ds, np.array([pool[i] for i in picks])


class TestCurvature:
    def test_identity_hessian(self):
        root2 = math.sqrt(2.0)
        ds = Dataset(np.array([[root2, 0.0], [0.0, root2]]), np.zeros(2), [2])
        curv = curvature(ds)
        assert curv.lipschitz_l == pytest.approx(1.0, rel=1e-12)
        assert curv.strong_convexity_mu == pytest.approx(1.0, rel=1e-12)

    def test_rank_deficiency_rejected(self):
        ds = Dataset(np.array([[1.0, 1.0], [2.0, 2.0]]), np.zeros(2), [2])
        with pytest.raises(ValueError, match="rank deficient"):
            curvature(ds)

    def test_matches_power_iteration(self):
        ds = make_dataset()
        curv = curvature(ds)
        hessian = ds.x.T @ ds.x / ds.total_samples
        v = np.ones(2) / math.sqrt(2.0)
        for _ in range(10_000):
            v = hessian @ v
            v /= np.linalg.norm(v)
        top = float(v @ hessian @ v)
        assert curv.lipschitz_l == pytest.approx(top, abs=1e-8)
        # smallest eigenvalue via the shifted complement
        shifted = top * np.eye(2) - hessian
        v = np.ones(2) / math.sqrt(2.0)
        for _ in range(10_000):
            v = shifted @ v
            v /= np.linalg.norm(v)
        bottom = top - float(v @ shifted @ v)
        assert curv.strong_convexity_mu == pytest.approx(bottom, abs=1e-8)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            CurvatureEstimate(lipschitz_l=1.0, strong_convexity_mu=2.0)


class TestFitZeta:
    def test_chunked_profiles_equal_one_whole_call(self, monkeypatch):
        ds = make_dataset()
        count = 2 * bounds._PROFILE_CHUNK + 123
        models = 3.0 * np.random.default_rng(4).standard_normal((count, 2))
        chunked = bounds._gradient_norm_profiles(ds, models)
        monkeypatch.setattr(bounds, "_PROFILE_CHUNK", count)
        whole = bounds._gradient_norm_profiles(ds, models)
        for a, b in zip(chunked, whole):
            assert a.shape == (count,)
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_each_model_alone_equals_its_row_in_a_batch(self, monkeypatch):
        # Every value is elementwise over the models, so a one-model block,
        # alone or as the last chunk, gives the bits of its row in a batch.
        ds = make_dataset()
        models = 3.0 * np.random.default_rng(6).standard_normal((7, 2))
        batch = bounds._gradient_norm_profiles(ds, models)
        runs = [bounds._gradient_norm_profiles(ds, model) for model in models]
        monkeypatch.setattr(bounds, "_PROFILE_CHUNK", 3)
        runs.append(bounds._gradient_norm_profiles(ds, models))
        alone = [np.concatenate(profile) for profile in zip(*runs[:-1])]
        for profiles in (alone, runs[-1]):
            for a, b in zip(profiles, batch):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @settings(max_examples=120, deadline=None)
    @given(profile_cases())
    def test_profiles_match_the_residual_oracle_and_exact_gradients(self, case):
        ds, models = case
        per_sample_max, grad_f_norm2 = bounds._gradient_norm_profiles(ds, models)
        oracle_max, _ = gradient_norm_profiles(ds, models)
        assert np.array_equal(per_sample_max.view(np.int64), oracle_max.view(np.int64))
        # The docstring's rounding bound against an exact evaluation: with
        # M = |X|^T (|X| |g| + |y|) / K, |computed - exact| is at most
        # 3e sum_a M_a (|grad F_a| + e M_a), e = n u / (1 - n u), n = K + dim + 2.
        x = [[Fraction(v) for v in row] for row in ds.x]
        y = [Fraction(v) for v in ds.y]
        total, dim = ds.total_samples, ds.x.shape[1]
        pairs = [(a, b) for a in range(dim) for b in range(dim)]
        gram = {ab: sum(row[ab[0]] * row[ab[1]] for row in x) for ab in pairs}
        size = {ab: sum(abs(row[ab[0]] * row[ab[1]]) for row in x) for ab in pairs}
        moment = [sum(row[a] * t for row, t in zip(x, y)) for a in range(dim)]
        moment_size = [sum(abs(row[a] * t) for row, t in zip(x, y)) for a in range(dim)]
        n = total + dim + 2
        e = Fraction(n, 2**53 - n)
        for model, computed in zip(models, grad_f_norm2):
            g = [Fraction(v) for v in model]
            grad = [(sum(gram[a, b] * g[b] for b in range(dim)) - moment[a]) / total
                    for a in range(dim)]
            scale = [(sum(size[a, b] * abs(g[b]) for b in range(dim)) + moment_size[a]) / total
                     for a in range(dim)]
            bound = 3 * e * sum(m * (abs(d) + e * m) for m, d in zip(scale, grad))
            assert abs(Fraction(computed) - sum(d * d for d in grad)) <= bound

    def test_all_gradients_zero(self):
        ds = Dataset(np.eye(2), np.zeros(2), [2])
        fit = fit_gradient_bound(ds, np.zeros((3, 2)), error_sum=0.0, curv=curvature(ds))
        assert fit.intercept == 0.0
        assert fit.slope == 0.0

    def test_zero_slope_is_definitional_max(self):
        ds = make_dataset()
        models = np.array([[0.0, 0.0], [-1.0, 0.5], [-2.0, 1.0]])
        fit = fit_gradient_bound(ds, models, error_sum=0.0, curv=curvature(ds))
        x, y = ds.x, ds.y
        expected = 0.0
        for g in models:
            residual = x @ g - y
            expected = max(expected, float(np.max(residual**2 * np.sum(x * x, axis=1))))
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(expected, rel=1e-12)

    def test_pointwise_inequality_re_scan(self):
        ds = make_dataset()
        decision = manual_decision(np.ones(15), np.full(15, 0.2))
        models = run_training(ds, decision, 0.4, 60, np.random.default_rng(5))[1]
        curv = curvature(ds)
        error_sum = wireless_error_sum(np.ones(15), np.full(15, 0.2), ds.sample_counts)
        fit = fit_gradient_bound(ds, models, error_sum=error_sum, curv=curv)
        assert check_gradient_bound(ds, models, fit)
        # independent scan: every sample at every point obeys the inequality
        x, y = ds.x, ds.y
        for g in models:
            residual = x @ g - y
            per_sample = residual**2 * np.sum(x * x, axis=1)
            grad_f = x.T @ residual / ds.total_samples
            bound = fit.intercept + fit.slope * float(grad_f @ grad_f)
            assert np.all(per_sample <= bound + 1e-9 * (1 + per_sample))

    def test_contextual_fit_minimizes_gap(self):
        ds = make_dataset()
        decision = manual_decision(np.ones(15), np.full(15, 0.3))
        models = run_training(ds, decision, 0.4, 40, np.random.default_rng(6))[1]
        curv = curvature(ds)
        error_sum = wireless_error_sum(np.ones(15), np.full(15, 0.3), ds.sample_counts)
        fit = fit_gradient_bound(ds, models, error_sum=error_sum, curv=curv)
        chosen = allocation_bound(
            np.ones(15), np.full(15, 0.3), ds.sample_counts, curv, fit.intercept, fit.slope
        ).asymptotic_gap
        plain = fit_gradient_bound(ds, models, error_sum=0.0, curv=curv)
        alt = allocation_bound(
            np.ones(15), np.full(15, 0.3), ds.sample_counts, curv, plain.intercept, plain.slope
        ).asymptotic_gap
        assert chosen <= alt + 1e-12

    @pytest.mark.parametrize(
        "case", ["reference_trajectory", "interior_minimum", "all_gradients_zero"]
    )
    def test_fit_is_the_exact_minimum_over_all_slopes(self, case):
        # No slope of a dense grid over [0, K / (4 s)), paired with that
        # slope's own intercept, gives a smaller asymptotic_gap than the fit.
        if case == "reference_trajectory":
            config = load_config(REFERENCE)
            users, ds = build_topology(config, config.seeds[0])
            decision = hungarian_assign(build_edge_weights(users, config.network, config.fading))
            models = run_training(
                ds, decision, resolve_learning_rate(config, ds), 60, np.random.default_rng(3)
            )[1]
            selection, q = decision.selection, decision.error_rate
        elif case == "interior_minimum":
            # Three samples: the global gradient is large against the
            # per-sample ones, so a slope inside the range wins.
            ds = Dataset(
                np.array([[1.0, 0.2], [0.3, 1.0], [1.0, 1.0]]), np.array([1.0, -1.0, 0.5]), [2, 1]
            )
            models = least_squares_model(ds) + 0.8 ** np.arange(40)[:, None]
            selection, q = np.ones(2), np.full(2, 0.1)
        else:
            ds = Dataset(np.eye(2), np.zeros(2), [2])
            models = np.zeros((3, 2))
            selection, q = np.ones(1), np.full(1, 0.3)
        counts, curv = ds.sample_counts, curvature(ds)
        error_sum = wireless_error_sum(selection, q, counts)
        fit = fit_gradient_bound(ds, models, error_sum, curv)
        per_sample_max, grad_f_norm2 = bounds._gradient_norm_profiles(ds, models)
        assert fit.intercept == max(0.0, float(np.max(per_sample_max - fit.slope * grad_f_norm2)))
        gap = allocation_bound(selection, q, counts, curv, fit.intercept, fit.slope).asymptotic_gap
        slopes, gaps = dense_grid_gaps(ds, models, error_sum, curv)
        assert gap <= gaps.min() * (1.0 + 1e-12)
        if case == "interior_minimum":
            # The 33-point slope grid that the exact fit replaced reached 0.9904.
            assert gap < 0.8909 and 0.0 < fit.slope < slopes[-1]
        if case == "all_gradients_zero":
            assert np.all(gaps == 0.0) and fit.slope == 0.0

    @settings(max_examples=150, deadline=None)
    @given(lattice_model_sets())
    def test_fit_is_the_exact_minimum_on_random_model_sets(self, case):
        ds, models, error_sum = case
        curv = curvature(ds)
        fit = fit_gradient_bound(ds, models, error_sum, curv)
        assert check_gradient_bound(ds, models, fit)
        gap = bounds._theorem(error_sum, ds.total_samples, curv, fit.intercept, fit.slope)[2]
        slopes, gaps = dense_grid_gaps(ds, models, error_sum, curv)
        # Within 1e-12 of the slope-0 gap: where the envelope meets 0, the
        # computed crossing leaves an intercept of a few ulps of the largest norm.
        assert gap <= gaps.min() + 1e-12 * gaps[0]
        # Ties go to the smallest slope: every smaller grid slope is worse.
        assert np.all(gaps[slopes < fit.slope] > gap)

    def test_envelope_reaching_zero_gives_zero_intercept_and_gap(self):
        # x = I and y = 0: the model (2, 0) gives the line 4 - slope and (1, 1)
        # the line 1 - slope / 2.  The first meets the clamp at slope 4, inside
        # [0, K / (4 s)) = [0, 5), before it would cross the second, at 6.
        ds = Dataset(np.eye(2), np.zeros(2), [2])
        models = np.array([[2.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        curv = curvature(ds)
        fit = fit_gradient_bound(ds, models, 0.1, curv)
        assert (fit.intercept, fit.slope) == (0.0, 4.0)
        assert bounds._theorem(0.1, ds.total_samples, curv, fit.intercept, fit.slope)[2] == 0.0


class TestConvergenceFactor:
    def curv(self):
        return CurvatureEstimate(lipschitz_l=2.0, strong_convexity_mu=0.5)

    def test_error_free_full_selection(self):
        curv = self.curv()
        a = allocation_bound(np.ones(4), np.zeros(4), [3, 4, 5, 6], curv, slope=7.0).contraction
        assert a == pytest.approx(1.0 - 0.25, rel=1e-12)

    def test_nobody_selected(self):
        curv = self.curv()
        a = allocation_bound(np.zeros(4), np.zeros(4), [3, 4, 5, 6], curv, slope=0.3).contraction
        expected = 1 - 0.25 + 4 * 0.5 * 0.3 / 2.0
        assert a == pytest.approx(expected, rel=1e-12)

    def test_hand_mixed_instance(self):
        curv = self.curv()
        a = allocation_bound([1, 1], [0.1, 0.2], [12, 10], curv, slope=1.5).contraction
        s = 12 * 0.1 + 10 * 0.2
        expected = 1 - 0.25 + 4 * 0.5 * 1.5 * s / (2.0 * 22)
        assert a == pytest.approx(expected, rel=1e-12)


class TestTheoremBound:
    def curv(self):
        return CurvatureEstimate(lipschitz_l=2.0, strong_convexity_mu=0.5)

    def test_step_zero_is_initial_gap(self):
        curv = self.curv()
        # slope 0.75 makes B = 0.9.
        bound = allocation_bound([1, 1], [0.3, 0.1], [5, 5], curv, 1.0, 0.75, initial_gap=0.42)
        assert bound.per_step_bound[0] == 0.42

    def test_error_free_reduces_to_plain_contraction(self):
        curv = self.curv()
        steps = (1, 5, 40)
        bound = allocation_bound(np.ones(3), np.zeros(3), [2, 3, 4], curv, 5.0, 9.0, steps, 0.7)
        for t, b in zip(steps, bound.per_step_bound):
            assert b == pytest.approx((1 - 0.25) ** t * 0.7, rel=1e-12)

    def test_unit_factor_grows_linearly(self):
        curv = self.curv()
        # slope K / (4 s) = 0.5 makes B exactly 1.
        bound = allocation_bound([1], [0.5], [10], curv, 1.0, 0.5, (3,), initial_gap=0.1)
        assert bound.contraction == 1.0
        b = bound.per_step_bound[0]
        s = 10 * 0.5
        assert b == pytest.approx(0.1 + 3 * 2 * 1.0 * s / (2.0 * 10), rel=1e-12)

    @pytest.mark.parametrize("factor", [0.5, 0.9, 0.999, 1.0, 1.05])
    def test_trajectory_is_the_closed_form_to_rounding(self, factor):
        # The recursion against B^t gap_0 + A (1 - B^t) / (1 - B), or gap_0 +
        # t A at B = 1, evaluated exactly in fractions of the same floats.
        # The largest relative errors measured over steps 0..500 are 1.8e-16,
        # 8.1e-16, 8.6e-15, 1.5e-14 and 1.8e-15 for these factors; the bound
        # is 500 roundings of 2^-53.
        gap0, per_step = 0.1769809386001474, 3.1e-4
        got = bounds._trajectory(np.arange(501), factor, per_step, gap0)
        b, a, g = Fraction(factor), Fraction(per_step), Fraction(gap0)
        power, worst = Fraction(1), Fraction(0)
        for t, value in enumerate(got):
            exact = g + t * a if b == 1 else power * g + a * (1 - power) / (1 - b)
            worst = max(worst, abs(Fraction(float(value)) - exact) / exact)
            power *= b
        assert worst < Fraction(500, 2**53)

    def test_negative_step_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            bounds._trajectory([3, -1], 0.9, 0.1, 1.0)

    def test_converges_to_asymptotic_gap(self):
        curv = self.curv()
        selection, q, counts = [1, 1], [0.2, 0.4], [12, 10]
        intercept, slope = 3.0, 0.8
        bound = allocation_bound(selection, q, counts, curv, intercept, slope, (10**6,), 5.0)
        assert bound.contraction < 1
        assert abs(bound.per_step_bound[0] - bound.asymptotic_gap) < 1e-12

    def test_vectorized_over_steps(self):
        curv = self.curv()
        steps = np.arange(5)
        # slope 1.5 makes B = 0.9.
        series = allocation_bound([1], [0.1], [10], curv, 1.0, 1.5, steps, 1.0).per_step_bound
        singles = [allocation_bound([1], [0.1], [10], curv, 1.0, 1.5, (int(t),), 1.0)
                   .per_step_bound[0] for t in steps]
        assert np.allclose(series, singles, rtol=0, atol=0)


class TestBoundSeries:
    def test_series_starts_at_initial_gap_and_converges(self):
        from fedwireless.bounds import GradientBoundFit, bound_series

        curv = CurvatureEstimate(lipschitz_l=2.0, strong_convexity_mu=0.5)
        fit = GradientBoundFit(intercept=3.0, slope=0.8)
        steps = np.arange(0, 5001)
        error_sum = wireless_error_sum([1, 1], [0.2, 0.4], [12, 10])
        series = bound_series(steps, curv, fit, error_sum, 22, 0.9)
        assert series.per_step_bound[0] == 0.9
        assert series.contraction < 1.0
        assert abs(series.per_step_bound[-1] - series.asymptotic_gap) < 1e-10


class TestAsymptoticGap:
    def curv(self):
        return CurvatureEstimate(lipschitz_l=2.0, strong_convexity_mu=0.5)

    def test_error_free_gap_zero(self):
        bound = allocation_bound(np.ones(3), np.zeros(3), [1, 2, 3], self.curv(), 4.0, 0.5)
        gap = bound.asymptotic_gap
        assert gap == 0.0

    def test_zero_intercept_gap_zero(self):
        gap = allocation_bound([1, 1], [0.5, 0.5], [5, 5], self.curv(), 0.0, 0.1).asymptotic_gap
        assert gap == 0.0

    def test_divergence_flagged_as_infinite(self):
        # slope large enough to break contraction
        gap = allocation_bound([0, 0], [0.0, 0.0], [5, 5], self.curv(), 1.0, 10.0).asymptotic_gap
        assert gap == math.inf

    def test_monotone_harm_in_error_rates(self):
        curv = self.curv()
        rng = np.random.default_rng(4)
        for _ in range(50):
            counts = rng.integers(1, 15, 5)
            a = rng.integers(0, 2, 5)
            q = rng.random(5) * 0.5
            intercept, slope = float(rng.uniform(0.1, 4)), float(rng.uniform(0.01, 0.3))
            base = allocation_bound(a, q, counts, curv, intercept, slope).asymptotic_gap
            i = int(rng.integers(0, 5))
            bumped = q.copy()
            bumped[i] = min(1.0, bumped[i] + 0.3)
            worse = allocation_bound(a, bumped, counts, curv, intercept, slope).asymptotic_gap
            assert worse >= base - 1e-12

    def test_monotone_harm_in_selection(self):
        curv = self.curv()
        rng = np.random.default_rng(5)
        for _ in range(50):
            counts = rng.integers(1, 15, 5)
            a = np.ones(5, dtype=int)
            q = rng.random(5) * 0.5
            intercept, slope = float(rng.uniform(0.1, 4)), float(rng.uniform(0.01, 0.3))
            base = allocation_bound(a, q, counts, curv, intercept, slope).asymptotic_gap
            i = int(rng.integers(0, 5))
            dropped = a.copy()
            dropped[i] = 0
            worse = allocation_bound(dropped, q, counts, curv, intercept, slope).asymptotic_gap
            assert worse >= base - 1e-12


class TestZeta2Feasible:
    def test_threshold_quarter_when_errors_certain(self):
        # Every edge feasible with q pinned at exactly 1: threshold is K/(4K) = 1/4.
        fexp = PointMassFading(1.0)
        params = NetworkParams(
            rb_count=4,
            uplink_interference_w=(1.0,) * 4,
            delay_budget_s=1e9,
            energy_budget_j=1e9,
        )
        users = [
            UserProfile(distance_m=400.0, sample_count=k, payload_bits=1.0)
            for k in (3, 5, 7)
        ]
        for user in users:
            (p_lo,), _, (feasible,) = feasible_power_interval([user], 0, params, fexp)
            assert feasible
            assert packet_error_rate(user, 0, p_lo, params, fexp) == 1.0
        assert convergence_slope_limit(users, params, fexp) == pytest.approx(0.25, rel=1e-12)
        assert 0.2499 < convergence_slope_limit(users, params, fexp)
        assert not 0.25 < convergence_slope_limit(users, params, fexp)

    def test_threshold_infinite_when_errors_impossible(self):
        # A denormal waterfall threshold underflows every error rate to exactly 0.
        params = NetworkParams(rb_count=2, waterfall_threshold=1e-320)
        users = [UserProfile(distance_m=100.0, sample_count=4)]
        assert convergence_slope_limit(users, params, QUAD) == math.inf
        assert 1e12 < convergence_slope_limit(users, params, QUAD)

    def test_worst_case_matches_exhaustive_enumeration(self):
        users, params_full = table_topology(seed=3, n_users=5)
        from dataclasses import replace

        params = replace(
            params_full, rb_count=4,
            uplink_interference_w=tuple(np.logspace(-8, -7, 4)),
        )
        got = worst_case_error_sum(users, params, QUAD)
        # independent oracle: enumerate all injective assignments directly
        gains = np.zeros((5, 4))
        for i, user in enumerate(users):
            for n in range(4):
                (p_lo,), _, (feasible,) = feasible_power_interval([user], n, params, QUAD)
                if feasible:
                    gains[i, n] = user.sample_count * packet_error_rate(
                        user, n, p_lo, params, QUAD
                    )
        best = 0.0
        for k in range(1, 5):
            for rows in combinations(range(5), k):
                for cols in permutations(range(4), k):
                    best = max(best, sum(gains[r, c] for r, c in zip(rows, cols)))
        assert got == pytest.approx(best, rel=1e-12)


class TestEmpiricalGap:
    def test_single_run_equals_excess_loss(self):
        ds = make_dataset()
        decision = manual_decision(np.ones(15), np.zeros(15))
        losses = run_training(ds, decision, 0.5, 30, np.random.default_rng(2))[0]
        g_star = least_squares_model(ds)
        gap = empirical_gap([losses], g_star, ds)
        optimal = global_loss(ds, g_star)
        expected = losses - optimal
        assert np.allclose(gap, expected, rtol=0, atol=0)

    def test_certain_errors_freeze_the_gap(self):
        ds = make_dataset()
        decision = manual_decision(np.ones(15), np.ones(15))
        losses = np.array([
            run_training(ds, decision, 0.5, 10, np.random.default_rng(seed))[0]
            for seed in range(3)
        ])
        g_star = least_squares_model(ds)
        gap = empirical_gap(losses, g_star, ds)
        initial = losses[0, 0] - global_loss(ds, g_star)
        assert np.allclose(gap, initial, rtol=1e-12)

    def test_requires_equal_lengths(self):
        ds = make_dataset()
        decision = manual_decision(np.ones(15), np.zeros(15))
        a = run_training(ds, decision, 0.5, 5, np.random.default_rng(0))[0]
        b = run_training(ds, decision, 0.5, 6, np.random.default_rng(0))[0]
        with pytest.raises(ValueError):
            empirical_gap([a, b], least_squares_model(ds), ds)
