"""Link-level model of a single-cell OFDMA uplink/downlink.

All quantities are deterministic functions of (user, resource block, transmit
power): expected Shannon rate under Rayleigh fading, transmission delay,
packet error rate under the waterfall approximation, and per-round energy.
Everything is computed in linear SI units (W, Hz, s, J, bits).

Array contract: one private kernel (``_Users``, ``_uplink_rate``,
``_downlink_rate``, ``_delay``, ``_energy``, ``_error_rate``) works on
broadcast arrays of edges, so each edge's values depend on that edge alone, in
one call or in any batch.  An edge is a (user, RB) pair: ``_Users`` holds
per-user constants (gain d**-alpha, fading scale, payload and training energy
from float math, and the downlink delay from one fading expectation per user
built) and, once ``on`` has placed it, the uplink noise of each edge's RB.  A
cohort is therefore any edge set: every (user, RB) edge of many topologies, or
a list of chosen pairs.  Only ``FadingExpectation.expect`` makes (edges x
fading nodes) temporaries, and it makes them in slices of at most
``_COHORT_ELEMENTS`` elements (one edge at least), so callers pass cohorts of
any size: unsliced, the edges of one 120 x 60 or 300 x 20 topology raised peak
RSS by about 10 MB.  The public scalar functions are one-element calls of the
same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "NOISE_DENSITY_W_PER_HZ",
    "NetworkParams",
    "UserProfile",
    "FadingExpectation",
    "expected_uplink_rate",
    "expected_downlink_rate",
    "uplink_delay",
    "downlink_delay",
    "packet_error_rate",
    "training_energy",
    "user_energy",
]

_LN2 = math.log(2.0)

#: -174 dBm/Hz converted once to W/Hz; all arithmetic downstream is linear.
NOISE_DENSITY_W_PER_HZ = 10.0 ** -20.4

# Edges x fading nodes per integrand call of ``FadingExpectation.expect``: it
# bounds the (edges x nodes) temporaries, and so peak memory, while small
# cohorts still make one call.  At 16384 a float temporary is 128 KiB,
# glibc's default mmap threshold; past it an uplink-rate call took about
# twice as long per edge (2-core Xeon, numpy 2.4).
_COHORT_ELEMENTS = 16384


def _require_positive(name: str, value) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")


@dataclass(frozen=True)
class NetworkParams:
    """Cell-wide constants: bandwidths, powers, noise, interference, budgets.

    ``uplink_interference_w`` holds one background interference level per
    resource block (other-cell users are static, not optimized here); one
    value applies to every RB, so the default ``(0.0,)`` is
    interference-free.  An ``inf`` entry blocks its RB, but at least one
    entry must be finite, and so must ``downlink_interference_w``.
    """

    rb_count: int = 12
    rb_bandwidth_hz: float = 1e6
    downlink_bandwidth_hz: float = 20e6
    noise_density_w_per_hz: float = NOISE_DENSITY_W_PER_HZ
    bs_power_w: float = 1.0
    max_user_power_w: float = 0.01
    waterfall_threshold: float = 0.023
    uplink_interference_w: tuple[float, ...] = (0.0,)
    downlink_interference_w: float = 0.0
    delay_budget_s: float = 0.5
    energy_budget_j: float = 0.003
    pathloss_exponent: float = 2.0

    def __post_init__(self):
        if int(self.rb_count) != self.rb_count or self.rb_count < 1:
            raise ValueError(f"rb_count must be an integer >= 1, got {self.rb_count!r}")
        for name in (
            "rb_bandwidth_hz",
            "downlink_bandwidth_hz",
            "noise_density_w_per_hz",
            "bs_power_w",
            "max_user_power_w",
            "waterfall_threshold",
            "pathloss_exponent",
        ):
            _require_positive(name, getattr(self, name))
        # A budget of +inf means no budget.
        for name in ("delay_budget_s", "energy_budget_j"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive, got {getattr(self, name)!r}")
        interference = tuple(float(v) for v in self.uplink_interference_w)
        if len(interference) == 1:
            interference *= self.rb_count
        if len(interference) != self.rb_count:
            raise ValueError(
                f"uplink_interference_w must have 1 or rb_count={self.rb_count} entries, "
                f"got {len(interference)}"
            )
        # Negated ``>= 0`` tests, so that NaN fails them too.  An infinite
        # entry blocks its RB; with every RB blocked nothing could transmit.
        if not all(v >= 0 for v in interference):
            raise ValueError("uplink_interference_w entries must be >= 0")
        if all(v == math.inf for v in interference):
            raise ValueError("uplink_interference_w must have a finite entry, got only inf")
        if not 0 <= self.downlink_interference_w < math.inf:
            raise ValueError(
                f"downlink_interference_w must be >= 0 and finite, "
                f"got {self.downlink_interference_w!r}"
            )
        object.__setattr__(self, "uplink_interference_w", interference)


@dataclass(frozen=True)
class UserProfile:
    """Static description of one user: geometry, data size, device constants."""

    distance_m: float
    sample_count: int
    fading_scale: float = 1.0
    payload_bits: float = 5e4
    cpu_cycles_per_bit: float = 40.0
    cpu_freq_hz: float = 1e9
    energy_coeff: float = 1e-27

    def __post_init__(self):
        _require_positive("distance_m", self.distance_m)
        if int(self.sample_count) != self.sample_count or self.sample_count < 1:
            raise ValueError(f"sample_count must be an integer >= 1, got {self.sample_count!r}")
        _require_positive("fading_scale", self.fading_scale)
        # payload_bits == 0 is allowed as the degenerate "nothing to send" case.
        if not 0 <= self.payload_bits < math.inf:
            raise ValueError(f"payload_bits must be >= 0 and finite, got {self.payload_bits!r}")
        for name in ("cpu_cycles_per_bit", "cpu_freq_hz", "energy_coeff"):
            _require_positive(name, getattr(self, name))


@dataclass(frozen=True)
class FadingExpectation:
    """How to evaluate expectations over the exponential fading power.

    ``quadrature`` is the deterministic production path (fixed nodes, no
    seed dependence); ``monte_carlo`` draws ``node_or_sample_count`` fading
    realizations from a generator seeded with ``seed``, so repeated
    evaluations are bit-identical.  Both are one weighted sum over their
    nodes: the quadrature's fixed weights, or 1/n for each of n draws.  The
    rule is built on first use and cached by value, not on the instance:
    ``load_config`` makes a new, equal instance on every call, which then
    reuses the build (a 64-node quadrature took 1.4 ms on a 2-core Xeon,
    numpy 2.4); ``==``, ``hash`` and ``replace`` see only the three fields.
    """

    method: str = "quadrature"
    node_or_sample_count: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("quadrature", "monte_carlo"):
            raise ValueError(f"method must be 'quadrature' or 'monte_carlo', got {self.method!r}")
        if self.node_or_sample_count < 16:
            raise ValueError(
                f"node_or_sample_count must be >= 16, got {self.node_or_sample_count!r}"
            )
        # Only Monte Carlo seeds a generator, which refuses a negative seed.
        if self.method == "monte_carlo" and not self.seed >= 0:
            raise ValueError(f"seed must be >= 0 with method 'monte_carlo', got {self.seed!r}")

    @lru_cache(maxsize=8)
    def _rule(self):
        """Read-only (nodes, weights) for unit-mean exponential fading.

        Quadrature maps Gauss-Legendre nodes through the exponential inverse
        CDF (o = -log(1-u)), which keeps the rule accurate for integrands
        with an essential singularity at o = 0 such as the waterfall error
        expression; Monte Carlo weights each of its n draws 1/n."""
        count = self.node_or_sample_count
        if self.method == "quadrature":
            t, w = np.polynomial.legendre.leggauss(count)
            nodes, weights = -np.log1p(-0.5 * (t + 1.0)), 0.5 * w
        else:
            nodes = np.random.default_rng(self.seed).standard_exponential(count)
            weights = np.full(count, 1.0 / count)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return nodes, weights

    def expect(self, integrand, scale, *columns):
        """E[integrand(o, *columns)] per edge for fading power o with mean
        ``scale``.

        ``scale`` and the per-edge ``columns`` broadcast together to the
        edges' shape, which the result takes.  The integrand gets the fading
        values as an (edges, nodes) array and each column as (edges, 1), and
        returns an (edges, nodes) array.  It is called on slices of at most
        ``_COHORT_ELEMENTS // nodes`` edges (one edge at least), so the
        (edges x nodes) temporaries stay bounded for a cohort of any size;
        each edge's row is reduced on its own, so any slicing gives the same
        bits.  The nodes, unit-mean fading values, are scaled per edge.
        """
        scale, *columns = np.broadcast_arrays(np.asarray(scale, dtype=float), *columns)
        nodes, weights = self._rule()
        shape = scale.shape
        scale, columns = scale.reshape(-1, 1), [column.reshape(-1, 1) for column in columns]
        result = np.empty(scale.size)
        width = max(1, _COHORT_ELEMENTS // nodes.size)
        for start in range(0, scale.size, width):
            edges = slice(start, start + width)
            values = np.asarray(
                integrand(scale[edges] * nodes, *(column[edges] for column in columns)),
                dtype=float,
            ).reshape(-1, nodes.size)
            # sum (not dot) reduces each edge's row in the same order
            # whatever the batch, so scalar and cohort calls are bit-identical
            result[edges] = np.sum(values * weights, axis=-1)
        return result.reshape(shape)


def _as_result(value):
    """Collapse 0-d arrays to plain floats, pass arrays through."""
    arr = np.asarray(value)
    return float(arr) if arr.ndim == 0 else arr


class _Users(NamedTuple):
    """Constants of the kernel, one entry per edge (or 0-d for one user)."""

    gain: np.ndarray            # d ** -alpha
    fading_scale: np.ndarray
    payload_bits: np.ndarray
    training_j: np.ndarray
    downlink_s: np.ndarray      # downlink delay: one fading expectation per user built
    noise_w: np.ndarray | None = None   # uplink interference + noise of the edge's RB

    @classmethod
    def of(cls, users, params: NetworkParams, fexp) -> "_Users":
        alpha = params.pathloss_exponent
        rows = [(u.distance_m ** -alpha, u.fading_scale, u.payload_bits, training_energy(u))
                for u in users]
        gain, fading_scale, payload_bits, training_j = np.array(rows, dtype=float).reshape(-1, 4).T
        down = _delay(payload_bits, _downlink_rate(gain, fading_scale, params, fexp))
        return cls(gain, fading_scale, payload_bits, training_j, down)

    def on(self, rb_index, params: NetworkParams) -> "_Users":
        """These users on one RB, or edge i on ``rb_index[i]``."""
        rb = np.asarray(rb_index)
        if np.any((rb < 0) | (rb >= params.rb_count)):
            raise ValueError(f"rb_index must be in [0, {params.rb_count}), got {rb_index}")
        noise_w = np.asarray(params.uplink_interference_w)[rb] + (
            params.rb_bandwidth_hz * params.noise_density_w_per_hz
        )
        return self._replace(noise_w=np.broadcast_to(noise_w, self.gain.shape))

    def take(self, index) -> "_Users":
        return _Users(*(None if column is None else column[index] for column in self))


def _one(user: UserProfile, params: NetworkParams, fexp) -> _Users:
    return _Users.of([user], params, fexp).take(0)


def _expected_rate(bandwidth_hz, snr_scale, fading_scale, fexp):
    """bandwidth * E[log2(1 + snr_scale * o)] per edge."""
    # log1p keeps precision in the low-SNR regime probed by bisection.
    return bandwidth_hz * fexp.expect(
        lambda o, snr: np.log1p(snr * o) / _LN2, fading_scale, snr_scale
    )


def _uplink_rate(users: _Users, power_w, params, fexp):
    snr_scale = power_w * users.gain / users.noise_w
    return _expected_rate(params.rb_bandwidth_hz, snr_scale, users.fading_scale, fexp)


def _downlink_rate(gain, fading_scale, params, fexp):
    noise_w = params.downlink_interference_w + (
        params.downlink_bandwidth_hz * params.noise_density_w_per_hz
    )
    snr_scale = params.bs_power_w * gain / noise_w
    return _expected_rate(params.downlink_bandwidth_hz, snr_scale, fading_scale, fexp)


def _delay(payload_bits, rate):
    """Seconds to send the payload at ``rate``: 0 for no payload, inf at rate 0."""
    safe = np.where(rate > 0, rate, 1.0)
    return np.where(payload_bits == 0, 0.0, np.where(rate > 0, payload_bits / safe, np.inf))


def _energy(users: _Users, power_w, delay):
    """Training plus transmit energy; zero power with a payload costs inf."""
    with np.errstate(invalid="ignore"):
        transmit = np.where((power_w > 0) | (users.payload_bits == 0), power_w * delay, np.inf)
    return users.training_j + transmit


def _error_rate(users: _Users, power_w, params, fexp):
    """Waterfall packet error rate per edge, clamped to [0, 1]."""
    power = np.asarray(power_w, dtype=float)
    threshold_w = params.waterfall_threshold * users.noise_w / users.gain
    with np.errstate(divide="ignore"):
        exponents = np.where(power > 0, threshold_w / np.where(power > 0, power, 1.0), np.inf)
    # -expm1(-x) = 1 - exp(-x), accurate for the tiny-error regime.
    values = fexp.expect(lambda o, x: -np.expm1(-x / o), users.fading_scale, exponents)
    return np.clip(values, 0.0, 1.0)


def expected_uplink_rate(user, rb_index, power_w, params, fexp):
    """Expected uplink rate in bits/s on one RB at the given transmit power.

    Accepts a scalar or an array of powers (vectorized over the leading axis).
    """
    power = np.asarray(power_w, dtype=float)
    if np.any(power < 0) or np.any(power > params.max_user_power_w * (1 + 1e-12)):
        raise ValueError(
            f"power_w must lie in [0, {params.max_user_power_w}], got {power_w!r}"
        )
    edge = _one(user, params, fexp).on(rb_index, params)
    return _as_result(_uplink_rate(edge, power, params, fexp))


def expected_downlink_rate(user, params, fexp):
    """Expected downlink broadcast rate in bits/s for one user."""
    users = _one(user, params, fexp)
    return _as_result(_downlink_rate(users.gain, users.fading_scale, params, fexp))


def uplink_delay(user, rb_index, power_w, params, fexp):
    """Uplink transmission delay in seconds; infinite when the rate is zero."""
    rate = expected_uplink_rate(user, rb_index, power_w, params, fexp)
    return _as_result(_delay(user.payload_bits, rate))


def downlink_delay(user, params, fexp):
    """Downlink broadcast delay in seconds for one user."""
    return _as_result(_one(user, params, fexp).downlink_s)


def packet_error_rate(user, rb_index, power_w, params, fexp):
    """Expected packet error rate on one RB, clamped to [0, 1].

    Follows the waterfall approximation: conditional on the fading draw,
    the error probability is one minus the exponential of minus the
    threshold-scaled inverse SNR.  Zero transmit power returns exactly 1
    (certain failure).  Non-increasing in power.
    """
    power = np.asarray(power_w, dtype=float)
    if np.any(power < 0):
        raise ValueError(f"power_w must be >= 0, got {power_w!r}")
    edge = _one(user, params, fexp).on(rb_index, params)
    return _as_result(_error_rate(edge, power, params, fexp))


def training_energy(user: UserProfile) -> float:
    """Energy spent on local training alone: coeff * cycles * freq^2 * bits."""
    return (
        user.energy_coeff
        * user.cpu_cycles_per_bit
        * user.cpu_freq_hz ** 2
        * user.payload_bits
    )


def user_energy(user, rb_index, power_w, params, fexp):
    """Per-round energy: training plus transmit power times uplink delay.

    Strictly increasing in power on (0, P_max].  Zero transmit power with a
    nonzero payload is treated as infeasible (infinite transmit energy);
    a zero payload costs nothing at any power in [0, P_max], whose bounds
    are checked as for any payload.
    """
    delay = uplink_delay(user, rb_index, power_w, params, fexp)
    return _as_result(_energy(_one(user, params, fexp), np.asarray(power_w, dtype=float), delay))
