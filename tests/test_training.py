"""Training-loop tests: data generation, gradients, delivery, aggregation,
and the lock-step kernel against a one-cell, one-round-at-a-time oracle."""

import numpy as np
import pytest

from fedwireless.bounds import curvature
from fedwireless.config import load_config
from fedwireless.harness import build_topology, resolve_learning_rate
from fedwireless.training import (
    Dataset,
    TrainingDiverged,
    _delivery_draws,
    _train_cells,
    generate_regression_data,
    global_loss,
    least_squares_model,
    run_training,
)

from util import REFERENCE, manual_decision, per_seed_allocation

TABLE_COUNTS = [12, 10, 8, 4, 2] * 3


# ---------------------------------------------------------------------------
# Test-side references.  local_loss_and_gradient and local_update are the
# textbook forms (BLAS products).  sequential_training is the oracle: one
# cell, one round at a time, with per-round transmit and aggregate steps;
# the kernel must reproduce its bits.


def local_loss_and_gradient(model, features, targets):
    """Sum-of-squares loss of one user and its exact gradient.

    Loss is sum_k (1/2)(x_k^T w - y_k)^2; the gradient is X^T (Xw - y).
    """
    model = np.asarray(model, dtype=float)
    if features.shape[1] != model.shape[0]:
        raise ValueError(
            f"model dimension {model.shape[0]} != feature dimension {features.shape[1]}"
        )
    residual = features @ model - targets
    loss = 0.5 * float(residual @ residual)
    gradient = features.T @ residual
    return loss, gradient


def local_update(global_model, features, targets, learning_rate):
    """One full-batch gradient step from the broadcast global model."""
    if learning_rate < 0:
        raise ValueError("learning_rate must be >= 0")
    _, gradient = local_loss_and_gradient(global_model, features, targets)
    return np.asarray(global_model, dtype=float) - (learning_rate / len(targets)) * gradient


def transmit(selection, error_rates, rng):
    """Per-user delivery flags: selected users deliver with probability one
    minus their error rate.

    Draws one uniform per user regardless of selection so the random stream
    depends only on the user count.
    """
    selection = np.asarray(selection)
    q = np.asarray(error_rates, dtype=float)
    if np.any(q < 0) or np.any(q > 1):
        raise ValueError("error rates must lie in [0, 1]")
    draws = rng.random(selection.shape[0])
    return (selection == 1) & (draws >= q)


def aggregate(local_models, delivered, sample_counts, previous_global):
    """Data-size-weighted average of the delivered local models.

    The weighted models are summed one user after another, from zero.
    Falls back to the previous global model when nothing was delivered.
    """
    delivered = np.asarray(delivered, dtype=bool)
    if not delivered.any():
        return np.asarray(previous_global, dtype=float).copy()
    weights = np.asarray(sample_counts, dtype=float) * delivered
    total = np.zeros(np.shape(local_models)[1])
    for weight, model in zip(weights, np.asarray(local_models, dtype=float)):
        total += weight * model
    return total / weights.sum()


def _predict(features, model):
    """features @ model as elementwise products summed column by column.

    The sum runs in a fixed order (column 0 first), so the bits do not depend
    on which BLAS kernel numpy dispatches; a matrix-vector product's do.
    """
    prediction = features[:, 0] * model[0]
    for j in range(1, features.shape[1]):
        prediction += features[:, j] * model[j]
    return prediction


def _mean_loss(residual):
    return 0.5 * float((residual * residual).sum()) / residual.shape[0]


def sequential_training(dataset, decision, learning_rate, rounds, rng, initial_model=None):
    """The per-round loop: (losses, models, delivered) of one cell."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n_users = len(dataset.sample_counts)
    dim = dataset.x.shape[1]
    selection = np.asarray(decision.selection)
    error_rates = np.asarray(decision.error_rate, dtype=float)

    # Each user's moments, sample-major: G_i = X_i^T X_i as (U, dim, dim)
    # and m_i = X_i^T y_i as (U, dim), every entry one segment sum of a
    # column product over the user's samples.  User i's gradient at g is
    # then G_i g - m_i, which _predict sums column by column.
    x_pool, y_pool = dataset.x, dataset.y
    counts = dataset.sample_counts
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    gram = np.add.reduceat(x_pool[:, :, None] * x_pool[:, None, :], offsets, axis=0)
    moment = np.add.reduceat(x_pool * y_pool[:, None], offsets, axis=0)

    g = np.zeros(dim) if initial_model is None else np.asarray(initial_model, dtype=float).copy()
    losses, models, delivered_rounds = [_mean_loss(_predict(x_pool, g) - y_pool)], [g.copy()], []
    selected_idx = np.flatnonzero(selection == 1)
    for step in range(1, rounds + 1):
        per_user_grad = _predict(gram, g) - moment
        locals_ = np.tile(g, (n_users, 1))
        if selected_idx.size:
            locals_[selected_idx] -= (
                learning_rate / counts[selected_idx, None]
            ) * per_user_grad[selected_idx]
        delivered = transmit(selection, error_rates, rng)
        g = aggregate(locals_, delivered, counts, g)
        with np.errstate(over="ignore"):   # overflow to inf is the divergence signal
            loss = _mean_loss(_predict(x_pool, g) - y_pool)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"loss became non-finite at step {step} (learning_rate={learning_rate})"
            )
        losses.append(loss)
        models.append(g.copy())
        delivered_rounds.append(delivered)
    return np.array(losses), np.array(models), np.array(delivered_rounds)


# ---------------------------------------------------------------------------
# Probes of the kernel.


def kernel_loss_and_gradient(model, features, targets):
    """Sum-of-squares loss and gradient X^T (Xw - y) of one user as the
    kernel computes them: its step-0 mean loss times the sample count, and
    its delivered unit-rate step model - (1/n) * gradient solved back."""
    n = len(targets)
    losses, models, _ = _train_cells(
        np.asarray(features)[None], np.asarray(targets)[None], [n], [[1]], [1.0],
        np.ones((1, 1, 1), dtype=bool), model,
    )
    return losses[0, 0] * n, (np.asarray(model, dtype=float) - models[0, 1]) * n


def kernel_local_update(global_model, features, targets, learning_rate):
    """The kernel's global model after one delivered round of one user."""
    _, models, _ = _train_cells(
        np.asarray(features)[None], np.asarray(targets)[None], [len(targets)], [[1]],
        [learning_rate],
        np.ones((1, 1, 1), dtype=bool), global_model,
    )
    return models[0, 1]


def kernel_aggregate(points, sample_counts, arrived, previous=(0.0, 0.0)):
    """The kernel's global model after one round whose local models are
    ``points``: user i holds sample_counts[i] copies of the sample
    (points[i], 1), so one unit-rate step from the zero model lands on
    points[i]."""
    points = np.asarray(points, dtype=float)
    features = np.repeat(points, sample_counts, axis=0)
    _, models, _ = _train_cells(
        features[None], np.ones((1, len(features))), sample_counts,
        [np.ones(len(points))], [1.0],
        np.asarray(arrived, dtype=bool)[None, None], previous,
    )
    return models[0, 1]


class TestDataGeneration:
    def test_noiseless_points_on_the_line(self):
        ds = generate_regression_data(np.random.default_rng(0), [5, 3], noise_std=0.0)
        assert np.allclose(ds.x @ np.array([-2.0, 1.0]), ds.y, atol=1e-14)

    def test_cycled_sample_counts_total(self):
        ds = generate_regression_data(np.random.default_rng(0), TABLE_COUNTS)
        assert ds.total_samples == 108
        assert ds.sample_counts.tolist() == TABLE_COUNTS

    def test_target_mean_matches_theory(self):
        # E[y] = -2*0.5 + 1 = 0; std(y) = sqrt(4/12 + 0.16) ~ 0.702
        ds = generate_regression_data(np.random.default_rng(123), [10**6])
        mean = float(np.mean(ds.y))
        assert abs(mean) < 3 * 0.703 / 1e3

    def test_bias_column_appended(self):
        ds = generate_regression_data(np.random.default_rng(1), [4])
        assert np.all(ds.x[:, 1] == 1.0)
        assert np.all((0 <= ds.x[:, 0]) & (ds.x[:, 0] <= 1))

    def test_seed_determinism(self):
        a = generate_regression_data(np.random.default_rng(9), [6, 6])
        b = generate_regression_data(np.random.default_rng(9), [6, 6])
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_draws_each_user_x_then_noise(self):
        # Oracle: user by user from one generator, its x and then its noise.
        counts, slope, intercept, noise_std = [4, 1, 3], -2.0, 1.0, 0.4
        rng = np.random.default_rng(12)
        xs, ys = [], []
        for count in counts:
            x = rng.random(count)
            noise = rng.standard_normal(count)
            xs.append(x)
            ys.append(slope * x + intercept + noise_std * noise)
        ds = generate_regression_data(np.random.default_rng(12), counts)
        assert np.array_equal(bits(ds.x[:, 0]), bits(np.concatenate(xs)))
        assert np.array_equal(bits(ds.y), bits(np.concatenate(ys)))
        assert np.array_equal(ds.x[:, 1], np.ones(8))
        assert ds.sample_counts.tolist() == counts

    def test_dataset_validation(self):
        x, y = np.ones((3, 2)), np.ones(3)
        with pytest.raises(ValueError, match="sum to 4"):
            Dataset(x, y, [2, 2])
        with pytest.raises(ValueError, match="at least one sample"):
            Dataset(x, y, [3, 0])
        with pytest.raises(ValueError, match="3 feature rows but 2 targets"):
            Dataset(x, np.ones(2), [3])
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[np.inf, 1.0]]), np.ones(1), [1])
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.ones((1, 2)), np.array([np.nan]), [1])


class TestLossAndGradient:
    def test_true_model_on_noiseless_data(self):
        ds = generate_regression_data(np.random.default_rng(2), [8], noise_std=0.0)
        loss, grad = kernel_loss_and_gradient(np.array([-2.0, 1.0]), ds.x, ds.y)
        assert loss == pytest.approx(0.0, abs=1e-25)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_zero_everything(self):
        x = np.array([[1.0, 1.0]])
        y = np.array([0.0])
        loss, grad = kernel_loss_and_gradient(np.zeros(2), x, y)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        ds = generate_regression_data(rng, [7])
        x, y = ds.x, ds.y
        w = rng.standard_normal(2)
        _, grad = kernel_loss_and_gradient(w, x, y)
        assert grad == pytest.approx(local_loss_and_gradient(w, x, y)[1], rel=1e-12)
        eps = 1e-6
        for k in range(2):
            delta = np.zeros(2)
            delta[k] = eps
            hi, _ = kernel_loss_and_gradient(w + delta, x, y)
            lo, _ = kernel_loss_and_gradient(w - delta, x, y)
            numeric = (hi - lo) / (2 * eps)
            assert numeric == pytest.approx(grad[k], rel=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_loss_and_gradient(np.zeros(3), np.ones((2, 2)), np.ones(2))


class TestLocalUpdate:
    def test_zero_rate_is_identity(self):
        ds = generate_regression_data(np.random.default_rng(4), [5])
        g = np.array([0.3, -0.7])
        assert np.array_equal(kernel_local_update(g, ds.x, ds.y, 0.0), g)

    def test_fixed_point_at_optimum_noiseless(self):
        ds = generate_regression_data(np.random.default_rng(5), [9], noise_std=0.0)
        g = np.array([-2.0, 1.0])
        w = kernel_local_update(g, ds.x, ds.y, 0.5)
        assert np.allclose(w, g, atol=1e-12)

    def test_hand_computed_step(self):
        x = np.array([[1.0, 1.0], [0.5, 1.0], [0.0, 1.0]])
        y = np.array([0.0, 1.0, 2.0])
        w = kernel_local_update(np.array([1.0, 1.0]), x, y, 0.1)
        # grad = X^T(Xw - y) = [2.25, 1.5]; w - (0.1/3)*grad
        assert w == pytest.approx([0.925, 0.95], rel=1e-12)
        assert w == pytest.approx(local_update(np.array([1.0, 1.0]), x, y, 0.1), rel=1e-12)


def all_flags(n_users, error_rate, selection=None, rounds=20, seed=6):
    """Delivered flags of every round of a run_training run."""
    ds = generate_regression_data(np.random.default_rng(seed), [3] * n_users)
    selection = np.ones(n_users) if selection is None else np.asarray(selection)
    decision = manual_decision(selection, np.broadcast_to(error_rate, n_users))
    return run_training(ds, decision, 0.1, rounds, np.random.default_rng(seed))[2]


class TestTransmit:
    def test_error_free_always_delivers(self):
        assert all_flags(5, 0.0).all()

    def test_certain_failure_never_delivers(self):
        assert not all_flags(5, 1.0).any()

    def test_unselected_never_delivers(self):
        flags = all_flags(3, 0.0, selection=[1, 0, 1])
        assert flags.tolist() == [[True, False, True]] * len(flags)

    def test_binomial_concentration(self):
        rng = np.random.default_rng(7)
        hits = 0
        trials = 10**6
        draws = rng.random(trials)
        hits = np.sum(draws >= 0.3)
        # same Bernoulli construction as the kernel's; empirical rate 0.7 +- 0.0015
        assert abs(hits / trials - 0.7) < 0.0015
        n_users, rounds = 100, 10**4
        _, _, delivered = _train_cells(
            np.ones((1, n_users, 2)), np.zeros((1, n_users)), [1] * n_users, [np.ones(n_users)],
            [0.0], _delivery_draws(np.full(n_users, 0.3), rounds, np.random.default_rng(8))[None],
            np.zeros(2),
        )
        assert delivered.size == 10**6
        assert abs(delivered.mean() - 0.7) < 0.0015

    def test_rejects_bad_error_rates(self):
        ds = generate_regression_data(np.random.default_rng(0), [3, 3])
        decision = manual_decision(np.ones(2), np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            run_training(ds, decision, 0.1, 5, np.random.default_rng(0))


class TestAggregate:
    def test_equal_counts_arithmetic_mean(self):
        out = kernel_aggregate([[1.0, 0.0], [3.0, 2.0]], [5, 5], [True, True])
        assert np.allclose(out, [2.0, 1.0])

    def test_single_delivery_wins(self):
        out = kernel_aggregate([[1.0, 0.0], [3.0, 2.0]], [5, 5], [False, True])
        assert np.array_equal(out, [3.0, 2.0])

    def test_hand_weighted_average(self):
        w1, w2 = np.array([1.0, -1.0]), np.array([0.0, 3.0])
        out = kernel_aggregate([w1, w2], [12, 10], [True, True])
        assert np.allclose(out, (12 * w1 + 10 * w2) / 22, atol=1e-15)

    def test_empty_delivery_keeps_previous(self):
        previous = np.array([0.4, -0.2])
        out = kernel_aggregate(np.zeros((3, 2)), [1, 2, 3], [False] * 3, previous)
        assert np.array_equal(out, previous)

    def test_result_in_convex_hull(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            locals_ = rng.standard_normal((4, 2))
            counts = rng.integers(1, 20, 4)
            delivered = rng.random(4) < 0.7
            if not delivered.any():
                continue
            out = kernel_aggregate(locals_, counts, delivered)
            low = locals_[delivered].min(axis=0) - 1e-12
            high = locals_[delivered].max(axis=0) + 1e-12
            assert np.all(out >= low) and np.all(out <= high)


class TestRunTraining:
    def make_dataset(self, seed=7):
        return generate_regression_data(np.random.default_rng([seed, 1]), TABLE_COUNTS)

    def test_zero_rate_single_round_keeps_model(self):
        ds = self.make_dataset()
        decision = manual_decision(np.ones(15), np.zeros(15))
        _, models, _ = run_training(ds, decision, 0.0, 1, np.random.default_rng(0))
        assert np.array_equal(models[1], models[0])

    def test_error_free_contraction(self):
        ds = self.make_dataset()
        curv = curvature(ds)
        lr = 1.0 / curv.lipschitz_l
        decision = manual_decision(np.ones(15), np.zeros(15))
        losses = run_training(ds, decision, lr, 200, np.random.default_rng(1))[0]
        optimal = global_loss(ds, least_squares_model(ds))
        excess = losses - optimal
        factor = 1.0 - curv.strong_convexity_mu / curv.lipschitz_l
        assert np.all(np.diff(losses) <= 1e-15)
        assert np.all(excess[1:] <= (factor + 1e-10) * excess[:-1])

    def test_all_failed_rounds_keep_initial_model(self):
        ds = self.make_dataset()
        decision = manual_decision(np.ones(15), np.ones(15))
        _, models, delivered = run_training(ds, decision, 0.1, 5, np.random.default_rng(2))
        assert models.shape == (6, 2) and delivered.shape == (5, 15)
        assert np.array_equal(models, np.repeat(models[:1], 6, axis=0))
        assert not delivered.any()

    def test_divergence_aborts_with_diagnostic(self):
        ds = self.make_dataset()
        decision = manual_decision(np.ones(15), np.zeros(15))
        with pytest.raises(TrainingDiverged):
            run_training(ds, decision, 10.0, 400, np.random.default_rng(3))

    def test_unselected_marked_undelivered(self):
        ds = self.make_dataset()
        selection = np.array([1, 0] * 7 + [1])
        decision = manual_decision(selection, np.full(15, 0.2))
        delivered = run_training(ds, decision, 0.1, 10, np.random.default_rng(4))[2]
        assert not delivered[:, selection == 0].any()

    def test_seed_determinism_bit_identical(self):
        ds = self.make_dataset()
        decision = manual_decision(np.ones(15), np.full(15, 0.3))
        a = run_training(ds, decision, 0.2, 50, np.random.default_rng([9, 3]))
        b = run_training(ds, decision, 0.2, 50, np.random.default_rng([9, 3]))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_losses_nonnegative_and_bounded_below_by_optimum(self):
        ds = self.make_dataset()
        decision = manual_decision(np.ones(15), np.full(15, 0.25))
        losses = run_training(ds, decision, 0.3, 80, np.random.default_rng(5))[0]
        optimal = global_loss(ds, least_squares_model(ds))
        assert optimal > 0 and np.all(losses >= optimal)

    def test_golden_trajectory(self):
        # First-run golden capture: reference topology data, fixed delivery seed.
        ds = self.make_dataset(seed=7)
        curv = curvature(ds)
        decision = manual_decision(
            np.array([1] * 12 + [0] * 3), np.full(15, 0.1), n_rbs=12
        )
        losses = run_training(
            ds, decision, 1.0 / curv.lipschitz_l, 100, np.random.default_rng([7, 3])
        )[0]
        assert losses[0] == pytest.approx(GOLDEN_LOSS0, rel=1e-12)
        assert losses[1] == pytest.approx(GOLDEN_LOSS1, rel=1e-12)
        assert losses[-1] == pytest.approx(GOLDEN_LOSS100, rel=1e-12)

    def test_equals_the_one_cell_kernel_slice(self):
        ds = self.make_dataset()
        decision = manual_decision(np.array([1, 0] * 7 + [1]), np.full(15, 0.3))
        initial_model = np.array([0.5, -0.25])
        result = run_training(ds, decision, 0.3, 40, np.random.default_rng(6), initial_model)
        expected = _train_cells(
            ds.x[None], ds.y[None], ds.sample_counts, [decision.selection], [0.3],
            _delivery_draws(decision.error_rate, 40, np.random.default_rng(6))[None],
            initial_model,
        )
        for got, want in zip(result, expected):
            assert got.shape == want.shape[1:]
            assert got.tobytes() == want[0].tobytes()


GOLDEN_LOSS0 = 0.24780992434682542
GOLDEN_LOSS1 = 0.22860461592027972
GOLDEN_LOSS100 = 0.06659499804507868


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def assert_cells_match_oracle(cells, rounds, shared=True, initial_model=(0.25, -0.5),
                              data_sets=None):
    """Train ``cells`` [(dataset, decision, lr, seed)] as one kernel batch and
    one by one through the oracle; losses, models, delivered flags and the
    generators' end states must agree bit for bit.  The kernel gets one
    shared dataset (S = 1), one per cell, or with ``data_sets`` = S the first S
    cells' datasets, which cell b reads as b % S."""
    initial_model = np.array(initial_model)
    rngs = [np.random.default_rng([seed, 3]) for *_, seed in cells]
    datasets = [dataset for dataset, *_ in cells]
    if data_sets is not None:
        datasets = datasets[:data_sets]
    if shared:
        datasets = datasets[:1]
    features = np.stack([dataset.x for dataset in datasets])
    targets = np.stack([dataset.y for dataset in datasets])
    losses, models, delivered = _train_cells(
        features, targets, cells[0][0].sample_counts,
        [decision.selection for _, decision, *_ in cells], [lr for _, _, lr, _ in cells],
        np.stack([
            _delivery_draws(decision.error_rate, rounds, rng)
            for (_, decision, *_), rng in zip(cells, rngs)
        ]),
        initial_model,
    )
    assert losses.shape == (len(cells), rounds + 1)
    for b, ((dataset, decision, lr, seed), rng) in enumerate(zip(cells, rngs)):
        oracle_rng = np.random.default_rng([seed, 3])
        expected = sequential_training(dataset, decision, lr, rounds, oracle_rng, initial_model)
        assert np.array_equal(bits(losses[b]), bits(expected[0])), b
        assert np.array_equal(bits(models[b]), bits(expected[1])), b
        assert np.array_equal(delivered[b], expected[2]), b
        assert rng.bit_generator.state == oracle_rng.bit_generator.state, b
    return delivered


class TestTrainCells:
    def make_dataset(self, seed=7):
        return generate_regression_data(np.random.default_rng([seed, 1]), TABLE_COUNTS)

    def test_reference_cells_bit_identical(self):
        config = load_config(REFERENCE)
        cells = []
        for algorithm in config.algorithms:
            for seed in config.seeds:
                users, dataset = build_topology(config, seed)
                decision = per_seed_allocation(algorithm, users, config, seed)
                cells.append((dataset, decision, resolve_learning_rate(config, dataset), seed))
        assert len(cells) == 8
        assert_cells_match_oracle(cells, config.rounds, shared=False)

    def test_algorithms_share_each_seeds_data(self):
        # run_experiment's batch: the reference cells algorithm by algorithm,
        # on the two seeds' data stacked once and broadcast over the four
        # algorithms, not copied per cell.
        config = load_config(REFERENCE)
        topologies = {seed: build_topology(config, seed) for seed in config.seeds}
        cells = []
        for algorithm in config.algorithms:
            for seed in config.seeds:
                users, dataset = topologies[seed]
                decision = per_seed_allocation(algorithm, users, config, seed)
                cells.append((dataset, decision, resolve_learning_rate(config, dataset), seed))
        assert len(cells) == 8 and len(config.seeds) == 2
        assert_cells_match_oracle(cells, config.rounds, shared=False, data_sets=2)

    def test_mixed_batch_bit_identical(self):
        ds = self.make_dataset()
        rng = np.random.default_rng(11)
        cells = []
        for seed, lr in enumerate([0.05, 0.2, 0.45, 0.7, 0.3]):
            selection = (rng.random(15) < 0.6).astype(int)
            decision = manual_decision(selection, rng.random(15) * 0.5)
            cells.append((ds, decision, lr, seed))
        assert_cells_match_oracle(cells, 60)

    def test_cell_without_selected_users(self):
        ds = self.make_dataset()
        cells = [
            (ds, manual_decision(np.zeros(15), np.full(15, 0.2)), 0.3, 1),
            (ds, manual_decision(np.ones(15), np.full(15, 0.2)), 0.3, 2),
        ]
        delivered = assert_cells_match_oracle(cells, 20)
        assert not delivered[0].any()

    def test_round_with_nothing_delivered(self):
        ds = self.make_dataset()
        decision = manual_decision(np.array([1, 1] + [0] * 13), np.full(15, 0.7))
        delivered = assert_cells_match_oracle([(ds, decision, 0.4, 5)], 30)
        arrived = delivered[0].any(axis=1)
        assert not arrived.all() and arrived.any()

    def test_single_cell_bit_identical(self):
        ds = self.make_dataset()
        decision = manual_decision(np.array([1, 0] * 7 + [1]), np.full(15, 0.25))
        assert_cells_match_oracle([(ds, decision, 0.35, 9)], 100)

    def test_divergence_names_the_first_cell_in_batch_order(self):
        # Cell 1 diverges at step 254, cell 2 earlier, at step 112: trained one
        # after another, cell 1 raises first, so the batch must name it.
        ds = self.make_dataset()
        decision = manual_decision(np.ones(15), np.zeros(15))
        rates = [0.3, 4.0, 20.0]
        with pytest.raises(TrainingDiverged) as sequential:
            for seed, lr in enumerate(rates):
                sequential_training(ds, decision, lr, 400, np.random.default_rng([seed, 3]))
        with pytest.raises(TrainingDiverged) as batched:
            _train_cells(
                ds.x[None], ds.y[None], ds.sample_counts, [decision.selection] * 3, rates,
                np.stack([
                    _delivery_draws(decision.error_rate, 400, np.random.default_rng([seed, 3]))
                    for seed in range(3)
                ]),
                np.zeros(2),
            )
        assert str(batched.value) == str(sequential.value)
        assert str(batched.value) == "loss became non-finite at step 254 (learning_rate=4.0)"

    def test_divergence_on_shared_seed_data_names_the_first_cell_in_record_order(self):
        # Two algorithms x two seeds, algorithm-major, on the seeds' data
        # broadcast over the algorithms: cell (0, 1) diverges later than
        # cell (1, 0), but comes first in record order.
        datasets = [self.make_dataset(seed) for seed in (7, 8)]
        decision = manual_decision(np.ones(15), np.zeros(15))
        rates = [0.3, 4.0, 20.0, 0.3]
        with pytest.raises(TrainingDiverged) as sequential:
            for cell, lr in enumerate(rates):
                sequential_training(datasets[cell % 2], decision, lr, 400,
                                    np.random.default_rng([cell % 2, 3]))
        with pytest.raises(TrainingDiverged) as batched:
            _train_cells(
                np.stack([ds.x for ds in datasets]), np.stack([ds.y for ds in datasets]),
                datasets[0].sample_counts, [decision.selection] * 4, rates,
                np.stack([
                    _delivery_draws(decision.error_rate, 400, np.random.default_rng([cell % 2, 3]))
                    for cell in range(4)
                ]),
                np.zeros(2),
            )
        assert str(batched.value) == str(sequential.value)
        assert "learning_rate=4.0" in str(batched.value)


# 18 users, 12 of them with more than 8 samples: the user sum of a cell
# has more than 8 terms, which numpy would sum pairwise, not in user order,
# if it reduced a (U, 1) array; each user's moments sum over more than 8
# samples too.
WIDE_COUNTS = [12, 10, 9, 4, 2, 11] * 3


def with_columns(dataset, build):
    """The dataset with its (x, 1) features replaced by build(x)."""
    return Dataset(build(dataset.x[:, 0]), dataset.y, dataset.sample_counts)


class TestFeatureMajorLayout:
    def make_dataset(self, seed=4):
        return generate_regression_data(np.random.default_rng([seed, 1]), WIDE_COUNTS)

    def cells(self, dataset, count, seed=21):
        rng = np.random.default_rng(seed)
        n_users = len(dataset.sample_counts)
        return [
            (dataset, manual_decision((rng.random(n_users) < 0.8).astype(int),
                                      rng.random(n_users) * 0.4), lr, b)
            for b, lr in zip(range(count), [0.3, 0.55])
        ]

    @pytest.mark.parametrize("count", [1, 2])
    def test_many_users(self, count):
        delivered = assert_cells_match_oracle(self.cells(self.make_dataset(), count), 80)
        assert delivered.sum(axis=-1).max() > 8

    @pytest.mark.parametrize("count", [1, 2])
    def test_one_feature(self, count):
        ds = with_columns(self.make_dataset(), lambda x: x[:, None])
        assert_cells_match_oracle(self.cells(ds, count), 60, initial_model=[0.5])

    @pytest.mark.parametrize("count", [1, 2])
    def test_three_features(self, count):
        ds = with_columns(self.make_dataset(),
                          lambda x: np.column_stack([x, x * x, np.ones_like(x)]))
        assert_cells_match_oracle(self.cells(ds, count), 60, initial_model=[0.25, -0.5, 1.0])

    def test_zero_feature_keeps_a_positive_zero(self):
        # An all-zero column never moves its coordinate: from -0.0 the
        # oracle's user sum, started from zero, gives +0.0.
        ds = with_columns(self.make_dataset(),
                          lambda x: np.column_stack([x, np.zeros_like(x), np.ones_like(x)]))
        cells = self.cells(ds, 1)
        assert_cells_match_oracle(cells, 20, initial_model=[0.25, -0.0, -0.5])
        _, models, _ = _train_cells(
            ds.x[None], ds.y[None], ds.sample_counts, [cells[0][1].selection], [0.3],
            np.ones((1, 20, len(ds.sample_counts)), dtype=bool), [0.25, -0.0, -0.5],
        )
        assert np.signbit(models[0, 0, 1]) and not np.signbit(models[0, 1:, 1]).any()
