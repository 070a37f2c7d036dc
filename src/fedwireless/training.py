"""Federated training loop for the linear-regression task.

Each round: broadcast the global model, selected users take one full-batch
gradient step on their own data, uplink packets are lost independently with
each user's packet error rate, and the surviving local models are averaged
with data-size weights.  A round in which nothing arrives leaves the global
model unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "RoundOutcome",
    "TrainingDiverged",
    "generate_regression_data",
    "local_loss_and_gradient",
    "local_update",
    "transmit",
    "aggregate",
    "run_training",
    "global_loss",
    "least_squares_model",
]


class TrainingDiverged(RuntimeError):
    """Raised when the recorded loss stops being finite."""


@dataclass
class Dataset:
    """Per-user feature matrices (with a trailing all-ones bias column) and targets."""

    features: list          # user i -> (samples_i, dim) array
    targets: list           # user i -> (samples_i,) array

    def __post_init__(self):
        if len(self.features) != len(self.targets):
            raise ValueError("features and targets must have one entry per user")
        for i, (x, y) in enumerate(zip(self.features, self.targets)):
            if len(x) != len(y):
                raise ValueError(f"user {i}: {len(x)} feature rows but {len(y)} targets")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise ValueError(f"user {i}: non-finite data")

    @property
    def user_count(self):
        return len(self.features)

    @property
    def sample_counts(self):
        return np.array([len(y) for y in self.targets])

    @property
    def total_samples(self):
        return int(sum(len(y) for y in self.targets))

    def pooled(self):
        """All samples stacked: (X, y) over every user."""
        return np.vstack(self.features), np.concatenate(self.targets)


def generate_regression_data(rng, sample_counts, slope=-2.0, intercept=1.0, noise_std=0.4):
    """Draw each user's samples from y = slope*x + intercept + noise_std*n,
    with x uniform on [0, 1] and n standard normal.

    Features carry an appended constant-1 bias column, so a model vector is
    (slope, intercept).
    """
    features, targets = [], []
    for count in sample_counts:
        x = rng.random(int(count))
        noise = rng.standard_normal(int(count))
        y = slope * x + intercept + noise_std * noise
        features.append(np.column_stack([x, np.ones_like(x)]))
        targets.append(y)
    return Dataset(features, targets)


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

    Falls back to the previous global model when nothing was delivered.
    """
    delivered = np.asarray(delivered, dtype=bool)
    if not delivered.any():
        return np.asarray(previous_global, dtype=float).copy()
    weights = np.asarray(sample_counts, dtype=float) * delivered
    stacked = np.asarray(local_models, dtype=float)
    return (weights[:, None] * stacked).sum(axis=0) / weights.sum()


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


def global_loss(dataset, model):
    """Mean loss over the pooled data: (1/K) sum_i sum_k f(w, x_ik, y_ik)."""
    x, y = dataset.pooled()
    return _mean_loss(_predict(x, np.asarray(model, dtype=float)) - y)


def _gram(x):
    """x.T @ x with each entry one fixed-order sum of a column product, so
    the bits do not depend on the BLAS kernel, as a matrix product's do."""
    dim = x.shape[1]
    gram = np.empty((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            gram[a, b] = gram[b, a] = np.sum(x[:, a] * x[:, b])
    return gram


def least_squares_model(dataset):
    """Closed-form minimizer of the pooled loss via the normal equations,
    built from fixed-order sums like the curvature constants."""
    x, y = dataset.pooled()
    moment = np.array([np.sum(x[:, a] * y) for a in range(x.shape[1])])
    return np.linalg.solve(_gram(x), moment)


@dataclass
class RoundOutcome:
    """State after one training round (step 0 is the initial model)."""

    step: int
    delivered: np.ndarray    # (U,) bool; always False for unselected users
    global_model: np.ndarray
    loss: float


def run_training(dataset, decision, learning_rate, rounds, rng, initial_model=None):
    """Run the full loop for a fixed allocation; returns one outcome per step.

    The trajectory (including step 0) is fully determined by the dataset,
    the allocation, the learning rate, and the generator state.  Its bits
    do not depend on the BLAS kernel or thread count: predictions, gradients,
    the aggregation and the loss are fixed-order elementwise products and
    sums.  Aborts with TrainingDiverged if the loss stops being finite.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n_users = dataset.user_count
    dim = dataset.features[0].shape[1]
    selection = np.asarray(decision.selection)
    error_rates = np.asarray(decision.error_rate, dtype=float)

    # Pooled views let each round run as one prediction plus a segment
    # reduction.  The residual behind round t's loss is the one round t+1's
    # gradient needs, so each round predicts once.
    x_pool, y_pool = dataset.pooled()
    counts = dataset.sample_counts
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])

    g = np.zeros(dim) if initial_model is None else np.asarray(initial_model, dtype=float).copy()
    residual = _predict(x_pool, g) - y_pool
    outcomes = [
        RoundOutcome(
            step=0,
            delivered=np.zeros(n_users, dtype=bool),
            global_model=g.copy(),
            loss=_mean_loss(residual),
        )
    ]
    selected_idx = np.flatnonzero(selection == 1)
    for step in range(1, rounds + 1):
        per_user_grad = np.add.reduceat(x_pool * residual[:, None], offsets, axis=0)
        locals_ = np.tile(g, (n_users, 1))
        if selected_idx.size:
            locals_[selected_idx] -= (
                learning_rate / counts[selected_idx, None]
            ) * per_user_grad[selected_idx]
        delivered = transmit(selection, error_rates, rng)
        g = aggregate(locals_, delivered, counts, g)
        with np.errstate(over="ignore"):   # overflow to inf is the divergence signal
            residual = _predict(x_pool, g) - y_pool
            loss = _mean_loss(residual)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"loss became non-finite at step {step} (learning_rate={learning_rate})"
            )
        outcomes.append(
            RoundOutcome(step=step, delivered=delivered, global_model=g.copy(), loss=loss)
        )
    return outcomes
