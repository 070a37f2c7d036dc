"""Federated training loop for the linear-regression task.

Each round: broadcast the global model, selected users take one full-batch
gradient step on their own data, uplink packets are lost independently with
each user's packet error rate, and the surviving local models are averaged
with data-size weights.  A round in which nothing arrives leaves the global
model unchanged.

Every training run goes through one kernel, ``_train_cells``, which advances
a batch of cells (runs that share the sample layout and model dimension) in
lock step.  User i's local step is affine in the global model g, g - (lr /
K_i)(G_i g - m_i), so each call builds the moments G_i = X_i^T X_i and
m_i = X_i^T y_i once, as (dim, dim, U, 1, S) and (dim, U, 1, S), and a round
costs O(U dim^2) per cell.  The features are taken once as contiguous
(dim, S, K) columns, one data set per seed, and the global models are
(dim, B), so every per-round array is (dim, U, B), (A, S, K) over
A = B / S algorithms, or (U, B), never a (..., dim) tail of length 2.  The
loss stays residual, one prediction per round: in moment form its terms
cancel, reading -5.6e-17 from terms of 0.18 at the true model of noiseless
data (``noise_std = 0``), where the residual form reads 0.

A cell's bits do not depend on the batch it runs in, on the BLAS kernel or
on the thread count, because every value is a fixed-order elementwise
product or sum and no matrix product (``@``, ``dot``, ``einsum``) is used.
Each moment entry is an ``np.add.reduceat`` over the user's samples; G_i g
and a prediction are summed feature by feature; the loss is summed over
each cell's contiguous sample axis.  The aggregation sums the (dim, U, B)
weighted local models over users in user order with ``np.add.accumulate``:
``sum(axis=1)`` would do so only while B > 1, because at B = 1 the user
axis is contiguous and numpy sums it pairwise, which moves the last bits
of a cell trained alone.

A cell's delivery flags are ``rng.random((rounds, U)) >= q``: the same PCG64
stream as one ``rng.random(U)`` per round, kept as a bool array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "TrainingDiverged",
    "generate_regression_data",
    "run_training",
    "global_loss",
    "least_squares_model",
]


class TrainingDiverged(RuntimeError):
    """Raised when the recorded loss stops being finite."""


@dataclass
class Dataset:
    """Every user's samples pooled in user order: ``x`` (K, dim) features
    with a trailing all-ones bias column, ``y`` (K,) targets, and
    ``sample_counts`` (U,), which splits the K samples into users."""

    x: np.ndarray
    y: np.ndarray
    sample_counts: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.sample_counts = np.asarray(self.sample_counts, dtype=int)
        if len(self.x) != len(self.y):
            raise ValueError(f"{len(self.x)} feature rows but {len(self.y)} targets")
        if np.any(self.sample_counts < 1):
            raise ValueError("every user needs at least one sample")
        if self.sample_counts.sum() != len(self.y):
            raise ValueError(
                f"sample_counts sum to {self.sample_counts.sum()}, not the {len(self.y)} samples"
            )
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("non-finite data")

    @property
    def total_samples(self):
        return len(self.y)


def generate_regression_data(rng, sample_counts, slope=-2.0, intercept=1.0, noise_std=0.4):
    """Draw each user's samples from y = slope*x + intercept + noise_std*n,
    with x uniform on [0, 1] and n standard normal: user by user, its x and
    then its noise.

    Features carry an appended constant-1 bias column, so a model vector is
    (slope, intercept).
    """
    draws = [(rng.random(int(count)), rng.standard_normal(int(count)))
             for count in sample_counts]
    x, noise = (np.concatenate(parts) for parts in zip(*draws))
    y = slope * x + intercept + noise_std * noise
    return Dataset(np.column_stack([x, np.ones_like(x)]), y, sample_counts)


def _predict(columns, model):
    """Predictions from feature-major ``columns``, summed column by column.

    ``columns[j]`` is feature j (a (K,) column, any array of them, or row j
    of the moments G, for G g) and is multiplied by ``model[j]`` with
    broadcasting, so one call predicts a batch of models.  The sum runs in a
    fixed order (column 0 first), so the bits do not depend on which BLAS
    kernel numpy dispatches; a matrix-vector product's do.
    """
    prediction = columns[0] * model[0]
    for j in range(1, len(columns)):
        prediction += columns[j] * model[j]
    return prediction


def _mean_loss(residual):
    """(1/2K) sum of squared residuals over the last (sample) axis."""
    return 0.5 * (residual * residual).sum(axis=-1) / residual.shape[-1]


def global_loss(dataset, model):
    """Mean loss over the pooled data: (1/K) sum_i sum_k f(w, x_ik, y_ik)."""
    return float(_mean_loss(_predict(dataset.x.T, np.asarray(model, dtype=float)) - dataset.y))


def _moments(dataset):
    """G = x.T @ x and m = x.T @ y, each entry one fixed-order sum of a column
    product, so the bits do not depend on the BLAS kernel, as a matrix product's do."""
    x, dim = dataset.x, dataset.x.shape[1]
    gram = np.empty((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            gram[a, b] = gram[b, a] = np.sum(x[:, a] * x[:, b])
    return gram, np.array([np.sum(x[:, a] * dataset.y) for a in range(dim)])


def least_squares_model(dataset):
    """Closed-form minimizer of the pooled loss: the normal equations G g = m."""
    return np.linalg.solve(*_moments(dataset))


def _delivery_draws(error_rates, rounds, rng):
    """(rounds, U) flags draw >= error rate, before selection: one uniform
    per user and round regardless of selection, so the random stream
    depends only on the user count and the number of rounds."""
    q = np.asarray(error_rates, dtype=float)
    if np.any(q < 0) or np.any(q > 1):
        raise ValueError("error rates must lie in [0, 1]")
    return rng.random((rounds, q.shape[0])) >= q


def _train_cells(features, targets, sample_counts, selections, learning_rates,
                 delivery, initial_model):
    """Train B cells in lock step.

    ``features`` is (S, K, dim) and ``targets`` (S, K), with B a multiple
    of S: cell b trains on data set b % S, so the B = A * S cells of A
    algorithms over S seeds, algorithm by algorithm, read each seed's data
    broadcast as (A, S, K), never copied; cells that share one data set
    pass S = 1.  ``sample_counts`` (U,) splits the K samples into users in
    order.  ``selections`` is (B, U), ``learning_rates`` (B,), ``delivery``
    (B, T, U) delivery flags before selection (see ``_delivery_draws``), and
    ``initial_model`` (dim,) the step-0 global model of every cell.

    Each round forms every cell's gradients G_i g - m_i as one (dim, U, B)
    array from the moments (see the module docstring), takes the local steps
    with one ``np.where``, sums them in user order, and predicts once for
    the residual-form loss.

    Returns losses (B, T+1), global models (B, T+1, dim) and delivered
    (B, T, U).  If any loss after step 0 is non-finite, raises
    TrainingDiverged for the first such cell in batch order, at its first
    non-finite step, as training the cells one after another would.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    counts = np.asarray(sample_counts)
    selected = np.asarray(selections) == 1                           # (B, U)
    delivered = np.asarray(delivery, dtype=bool) & selected[:, None, :]
    n_cells, rounds, n_users = delivered.shape
    dim = x.shape[-1]
    g = np.array(initial_model, dtype=float)
    if g.shape != (dim,):
        raise ValueError(f"model dimension {g.shape[0]} != feature dimension {dim}")
    columns = np.ascontiguousarray(np.moveaxis(x, -1, 0))            # (dim, S, K)
    g = np.repeat(g[:, None], n_cells, axis=1)                       # (dim, B)
    grid = (dim, n_cells // len(y), len(y))                          # models as (dim, A, S)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    # Each user's moments, G_i (dim, dim, U, 1, S) and m_i (dim, U, 1, S).
    gram, moment = (np.add.reduceat(products, offsets, axis=-1).swapaxes(-1, -2)[..., None, :]
                    for products in (columns[:, None] * columns, columns * y))
    chosen = selected.T                                              # (U, B)
    step_size = np.asarray(learning_rates, dtype=float) / counts[:, None]      # (U, B)
    weights = counts.astype(float)[:, None]

    def loss(g):    # (B,) losses of the (dim, B) models, from (A, S, K) residuals
        return _mean_loss(_predict(columns, g.reshape(grid)[..., None]) - y).reshape(n_cells)

    losses = np.empty((n_cells, rounds + 1))
    models = np.empty((n_cells, rounds + 1, dim))
    models[:, 0], losses[:, 0] = g.T, loss(g)
    # Overflow to inf is the divergence signal; a diverged cell runs on
    # (as nan) until the batch ends.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(rounds):
            arrived = delivered[:, t].T                                  # (U, B)
            w = weights * arrived
            any_arrived = arrived.any(axis=0)
            # Whole sample counts: their sum is exact in any order.
            total_weight = np.where(any_arrived, w.sum(axis=0), 1.0)
            grads = (_predict(gram, g.reshape(grid)) - moment).reshape(dim, n_users, n_cells)
            local = np.where(chosen, g[:, None] - step_size * grads, g[:, None])   # (dim, U, B)
            # A sum in user order; + 0.0 turns a -0.0 total into the +0.0
            # that a sum started from zero gives.
            total = np.add.accumulate(w * local, axis=1)[:, -1] + 0.0
            g = np.where(any_arrived, total / total_weight, g)
            models[:, t + 1], losses[:, t + 1] = g.T, loss(g)

    diverged = ~np.isfinite(losses[:, 1:])
    if diverged.any():
        cell = int(np.argmax(diverged.any(axis=1)))
        step = int(np.argmax(diverged[cell])) + 1
        raise TrainingDiverged(
            f"loss became non-finite at step {step} "
            f"(learning_rate={learning_rates[cell]})"
        )
    return losses, models, delivered


def run_training(dataset, decision, learning_rate, rounds, rng, initial_model=None):
    """Run the full loop for a fixed allocation: the one-cell form of
    ``_train_cells``.

    Returns losses (T+1,), global models (T+1, dim) and delivered (T, U);
    step 0 is the initial model.  The trajectory is fully determined by the
    dataset, the allocation, the learning rate, and the generator state.
    Aborts with TrainingDiverged if the loss stops being finite.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if initial_model is None:
        initial_model = np.zeros(dataset.x.shape[1])
    delivery = _delivery_draws(decision.error_rate, rounds, rng)
    losses, models, delivered = _train_cells(
        dataset.x[None], dataset.y[None], dataset.sample_counts, [decision.selection],
        [learning_rate], delivery[None], initial_model,
    )
    return losses[0], models[0], delivered[0]
