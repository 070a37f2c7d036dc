"""Link-level model tests: closed forms, Monte Carlo oracles, monotonicity."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fedwireless import phy
from fedwireless.phy import (
    NOISE_DENSITY_W_PER_HZ,
    FadingExpectation,
    NetworkParams,
    UserProfile,
    expected_downlink_rate,
    expected_uplink_rate,
    downlink_delay,
    packet_error_rate,
    training_energy,
    uplink_delay,
    user_energy,
)

from util import PointMassFading, QUAD, user_at

PARAMS = NetworkParams()
MC_1M = FadingExpectation(method="monte_carlo", node_or_sample_count=10**6, seed=20240915)


def closed_form_rate(bandwidth, power, gain, noise_w):
    """Shannon rate for a deterministic channel (no fading average)."""
    return bandwidth * math.log2(1.0 + power * gain / noise_w)


def exact_per(ratio):
    """E[1 - exp(-ratio/o)] for unit-mean exponential o, via the Bessel identity."""
    r = 2.0 * math.sqrt(ratio)
    return 1.0 - r * special.kv(1, r)


def exact_log_rate(bandwidth, snr_scale):
    """B * E[log2(1 + snr_scale * o)] for unit-mean exponential o."""
    z = 1.0 / snr_scale
    return bandwidth * math.exp(z) * special.exp1(z) / math.log(2.0)


def point_mass_rate(distance, params, power=0.01):
    """Uplink rate on RB 0 with the fading pinned to 1, so the channel gain
    is the path loss alone."""
    fexp = PointMassFading(1.0)
    return expected_uplink_rate(user_at(distance), 0, power, params, fexp)


def rate_for_gain(gain, params, power=0.01):
    noise_w = params.rb_bandwidth_hz * params.noise_density_w_per_hz
    return closed_form_rate(params.rb_bandwidth_hz, power, gain, noise_w)


class TestChannelGain:
    def test_identity_case(self):
        assert point_mass_rate(1.0, PARAMS) == pytest.approx(rate_for_gain(1.0, PARAMS), rel=1e-12)

    def test_power_law(self):
        assert point_mass_rate(10.0, PARAMS) == pytest.approx(
            rate_for_gain(0.01, PARAMS), rel=1e-12
        )

    def test_pathloss_exponent_comes_from_params(self):
        steep = NetworkParams(pathloss_exponent=3.0)
        assert point_mass_rate(10.0, steep) == pytest.approx(rate_for_gain(1e-3, steep), rel=1e-12)

    def test_monte_carlo_mean_at_cell_edge(self):
        # At low SNR the rate is linear in the mean gain E[o] * d^-alpha = 4e-6.
        power = 1e-12
        mc = FadingExpectation(method="monte_carlo", node_or_sample_count=10**6, seed=77)
        rate = expected_uplink_rate(user_at(500.0), 0, power, PARAMS, mc)
        noise_w = PARAMS.rb_bandwidth_hz * PARAMS.noise_density_w_per_hz
        mean_gain = rate * math.log(2.0) * noise_w / (PARAMS.rb_bandwidth_hz * power)
        assert mean_gain == pytest.approx(4e-6, rel=0.01)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            UserProfile(distance_m=0.0, sample_count=1)
        with pytest.raises(ValueError):
            UserProfile(distance_m=-5.0, sample_count=1)


class TestUplinkRate:
    def test_zero_power_zero_rate(self):
        assert expected_uplink_rate(user_at(100.0), 0, 0.0, PARAMS, QUAD) == 0.0

    def test_point_mass_fading_matches_closed_form(self):
        fexp = PointMassFading(0.7)
        noise_w = PARAMS.rb_bandwidth_hz * PARAMS.noise_density_w_per_hz
        expected = closed_form_rate(PARAMS.rb_bandwidth_hz, 0.01, 0.7 * 100.0**-2, noise_w)
        got = expected_uplink_rate(user_at(100.0), 0, 0.01, PARAMS, fexp)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_golden_monte_carlo_point(self):
        # Frozen 10^6-draw oracle at d=100 m, P=0.01 W, interference-free RB.
        golden = 27070521.789623905
        mc = expected_uplink_rate(user_at(100.0), 0, 0.01, PARAMS, MC_1M)
        assert mc == pytest.approx(golden, rel=1e-12)
        quad = expected_uplink_rate(user_at(100.0), 0, 0.01, PARAMS, QUAD)
        assert quad == pytest.approx(mc, rel=0.005)

    def test_quadrature_matches_analytic_average(self):
        noise_w = PARAMS.rb_bandwidth_hz * PARAMS.noise_density_w_per_hz
        for d, p in [(50.0, 0.01), (250.0, 0.004), (500.0, 0.01)]:
            snr_scale = p * d**-2 / noise_w
            expected = exact_log_rate(PARAMS.rb_bandwidth_hz, snr_scale)
            got = expected_uplink_rate(user_at(d), 0, p, PARAMS, QUAD)
            assert got == pytest.approx(expected, rel=1e-3)

    def test_rejects_power_outside_box(self):
        with pytest.raises(ValueError):
            expected_uplink_rate(user_at(100.0), 0, -1e-3, PARAMS, QUAD)
        with pytest.raises(ValueError):
            expected_uplink_rate(user_at(100.0), 0, 0.02, PARAMS, QUAD)

    def test_rejects_bad_rb_index(self):
        with pytest.raises(ValueError):
            expected_uplink_rate(user_at(100.0), 12, 0.01, PARAMS, QUAD)

    def test_vectorized_over_power(self):
        powers = np.array([0.0, 0.001, 0.01])
        rates = expected_uplink_rate(user_at(100.0), 0, powers, PARAMS, QUAD)
        singles = [expected_uplink_rate(user_at(100.0), 0, float(p), PARAMS, QUAD) for p in powers]
        assert np.allclose(rates, singles, rtol=0, atol=0)


class TestDownlinkRate:
    def test_point_mass_matches_closed_form(self):
        fexp = PointMassFading(1.3)
        noise_w = PARAMS.downlink_bandwidth_hz * PARAMS.noise_density_w_per_hz
        expected = closed_form_rate(
            PARAMS.downlink_bandwidth_hz, PARAMS.bs_power_w, 1.3 * 200.0**-2, noise_w
        )
        got = expected_downlink_rate(user_at(200.0), PARAMS, fexp)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_golden_monte_carlo_point(self):
        golden = 547848997.3270288   # frozen 10^6-draw oracle at d=200 m
        mc = expected_downlink_rate(user_at(200.0), PARAMS, MC_1M)
        assert mc == pytest.approx(golden, rel=1e-12)
        quad = expected_downlink_rate(user_at(200.0), PARAMS, QUAD)
        assert quad == pytest.approx(mc, rel=0.005)


class TestDelays:
    def test_unit_ratio(self):
        user = user_at(100.0, payload_bits=1e6)
        fexp = PointMassFading(1.0)
        rate = expected_uplink_rate(user, 0, 0.01, PARAMS, fexp)
        delay = uplink_delay(user, 0, 0.01, PARAMS, fexp)
        assert delay == pytest.approx(1e6 / rate, rel=1e-12)

    def test_payload_over_golden_rate(self):
        golden_rate = 27070521.789623905
        delay = uplink_delay(user_at(100.0), 0, 0.01, PARAMS, MC_1M)
        assert delay == pytest.approx(5e4 / golden_rate, rel=1e-12)

    def test_zero_power_infinite_delay(self):
        assert uplink_delay(user_at(100.0), 0, 0.0, PARAMS, QUAD) == math.inf

    def test_zero_payload_zero_delay(self):
        user = user_at(100.0, payload_bits=0.0)
        assert uplink_delay(user, 0, 0.0, PARAMS, QUAD) == 0.0
        assert downlink_delay(user, PARAMS, QUAD) == 0.0

    def test_downlink_positive(self):
        assert 0 < downlink_delay(user_at(400.0), PARAMS, QUAD) < 1.0


class TestPacketErrorRate:
    def test_vanishing_threshold(self):
        params = NetworkParams(waterfall_threshold=1e-300)
        q = packet_error_rate(user_at(100.0), 0, 0.01, params, QUAD)
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_zero_power_certain_failure(self):
        assert packet_error_rate(user_at(100.0), 0, 0.0, PARAMS, QUAD) == 1.0
        assert packet_error_rate(user_at(100.0), 0, 0.0, PARAMS, MC_1M) == 1.0

    def test_golden_monte_carlo_interference_free(self):
        golden = 1.4483310058068799e-09   # frozen 10^6-draw oracle
        mc = packet_error_rate(user_at(100.0), 0, 0.01, PARAMS, MC_1M)
        assert mc == pytest.approx(golden, rel=1e-9)
        quad = packet_error_rate(user_at(100.0), 0, 0.01, PARAMS, QUAD)
        assert abs(quad - mc) < 1e-3

    def test_golden_monte_carlo_with_interference(self):
        params = NetworkParams(uplink_interference_w=(1e-7,) * 12)
        golden = 0.05002203099852335      # frozen 10^6-draw oracle
        mc = packet_error_rate(user_at(100.0), 3, 0.002, params, MC_1M)
        assert mc == pytest.approx(golden, rel=1e-12)
        quad = packet_error_rate(user_at(100.0), 3, 0.002, params, QUAD)
        assert abs(quad - mc) < 1e-3

    def test_quadrature_matches_bessel_identity(self):
        params = NetworkParams(uplink_interference_w=(3e-8,) * 12)
        noise_w = 3e-8 + params.rb_bandwidth_hz * params.noise_density_w_per_hz
        for d, p in [(100.0, 0.01), (350.0, 0.003), (500.0, 0.001)]:
            ratio = params.waterfall_threshold * noise_w / (p * d**-2)
            got = packet_error_rate(user_at(d), 0, p, params, QUAD)
            assert got == pytest.approx(exact_per(ratio), abs=5e-4)

    def test_point_mass_reduction(self):
        fexp = PointMassFading(0.5)
        params = NetworkParams(uplink_interference_w=(1e-7,) * 12)
        noise_w = 1e-7 + params.rb_bandwidth_hz * params.noise_density_w_per_hz
        expected = 1.0 - math.exp(-params.waterfall_threshold * noise_w / (0.002 * 0.5 * 100.0**-2))
        got = packet_error_rate(user_at(100.0), 0, 0.002, params, fexp)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_range_and_monotonicity(self):
        params = NetworkParams(uplink_interference_w=(5e-8,) * 12)
        powers = np.linspace(1e-5, 0.01, 64)
        q = packet_error_rate(user_at(450.0), 0, powers, params, QUAD)
        assert np.all(q >= 0) and np.all(q <= 1)
        assert np.all(np.diff(q) <= 1e-15)


class TestEnergy:
    def test_zero_payload_costs_nothing(self):
        user = user_at(100.0, payload_bits=0.0)
        for p in (0.0, 0.005, 0.01):
            assert user_energy(user, 0, p, PARAMS, QUAD) == 0.0

    def test_zero_payload_checks_the_power_range(self):
        # The power range is the rate's to check, whatever the payload.
        for payload in (0.0, 5e4):
            user = user_at(100.0, payload_bits=payload)
            for p in (-1e-3, 2 * PARAMS.max_user_power_w):
                with pytest.raises(ValueError, match="power_w"):
                    user_energy(user, 0, p, PARAMS, QUAD)

    def test_training_term_exact(self):
        # coeff * cycles * freq^2 * bits = 1e-27 * 40 * (1e9)^2 * 5e4 = 2e-3 J
        assert training_energy(user_at(100.0)) == pytest.approx(2e-3, rel=1e-12)

    def test_strictly_increasing_in_power(self):
        rng = np.random.default_rng(11)
        params = NetworkParams(uplink_interference_w=tuple(np.logspace(-9, -7, 12)))
        for _ in range(50):
            d = float(rng.uniform(20.0, 500.0))
            rb = int(rng.integers(0, 12))
            p1 = float(rng.uniform(1e-5, 0.009))
            p2 = float(rng.uniform(p1 * 1.01, 0.01))
            e1 = user_energy(user_at(d), rb, p1, params, QUAD)
            e2 = user_energy(user_at(d), rb, p2, params, QUAD)
            assert e1 < e2

    def test_zero_power_infeasible_for_transmission(self):
        assert user_energy(user_at(100.0), 0, 0.0, PARAMS, QUAD) == math.inf


FADING_METHODS = {
    "quadrature": QUAD,
    "point mass": PointMassFading(0.6),
    "monte carlo": FadingExpectation(method="monte_carlo", node_or_sample_count=256, seed=9),
}


class TestMonotoneInPower:
    @settings(max_examples=80, deadline=None)
    @given(
        distance=st.floats(1.0, 1500.0),
        fading_scale=st.floats(0.2, 3.0),
        payload=st.sampled_from([0.0, 1e3, 5e4, 4e5]),
        interference=st.lists(st.floats(0.0, 1e-6), min_size=12, max_size=12),
        rb=st.integers(0, 11),
        method=st.sampled_from(sorted(FADING_METHODS)),
        # Powers P_max * 10**(-k/10): neighbours at least a factor 1.26 apart.
        steps=st.lists(st.integers(0, 80), min_size=2, max_size=8, unique=True),
    )
    def test_per_energy_and_rate_monotone(
        self, distance, fading_scale, payload, interference, rb, method, steps
    ):
        params = NetworkParams(uplink_interference_w=tuple(interference))
        user = user_at(distance, fading_scale=fading_scale, payload_bits=payload)
        fexp = FADING_METHODS[method]
        powers = params.max_user_power_w * 10.0 ** (-np.sort(steps)[::-1] / 10.0)
        rate = expected_uplink_rate(user, rb, powers, params, fexp)
        error = packet_error_rate(user, rb, powers, params, fexp)
        energy = user_energy(user, rb, powers, params, fexp)
        assert np.all(np.diff(rate) > 0), rate
        assert np.all(np.diff(error) <= 0), error
        assert np.all(np.diff(energy) >= 0), energy


class TestUserCohort:
    @pytest.mark.parametrize("fexp", [
        QUAD, FadingExpectation(method="monte_carlo", node_or_sample_count=200, seed=5)
    ], ids=["quadrature", "monte_carlo"])
    def test_downlink_column_is_the_public_rate_delay(self, fexp):
        # The cohort's downlink column is what every edge build, delay
        # floor and verify_allocation reads, so it is checked here against
        # the public rate, which reaches _downlink_rate without the column.
        users = [user_at(d) for d in (30.0, 200.0, 500.0, 1000.0)]
        users.append(user_at(300.0, payload_bits=0.0))
        cohort = phy._Users.of(users, PARAMS, fexp)
        for user, got in zip(users, cohort.downlink_s):
            want = phy._delay(user.payload_bits, expected_downlink_rate(user, PARAMS, fexp))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert cohort.downlink_s[-1] == 0.0
        # Taking repeated rows of one cohort gives the bytes of a cohort
        # built from the repeated users: the slope limit's delay floor
        # takes its feasible edges from one cohort of the topology's users.
        rows, rbs = [4, 0, 2, 0, 4, 1], [0, 3, 3, 11, 5, 0]
        taken = cohort.take(rows).on(rbs, PARAMS)
        built = phy._Users.of([users[i] for i in rows], PARAMS, fexp).on(rbs, PARAMS)
        for name, got, want in zip(phy._Users._fields, taken, built):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestFadingExpectation:
    def test_validation(self):
        with pytest.raises(ValueError):
            FadingExpectation(method="exact")
        with pytest.raises(ValueError):
            FadingExpectation(node_or_sample_count=8)

    def test_quadrature_is_seed_independent(self):
        a = FadingExpectation(seed=1)
        b = FadingExpectation(seed=99)
        va = expected_uplink_rate(user_at(100.0), 0, 0.01, PARAMS, a)
        vb = expected_uplink_rate(user_at(100.0), 0, 0.01, PARAMS, b)
        assert va == vb

    def test_monte_carlo_bit_identical_across_calls(self):
        fexp = FadingExpectation(method="monte_carlo", node_or_sample_count=10**4, seed=5)
        first = packet_error_rate(user_at(300.0), 0, 0.002, PARAMS, fexp)
        second = packet_error_rate(user_at(300.0), 0, 0.002, PARAMS, fexp)
        assert first == second

    def test_monte_carlo_draws_once_per_instance(self, monkeypatch):
        # The rule is drawn on first use and cached by value, so an equal
        # instance reuses the draw; it is not a field, so equality, hashing
        # and replace see only the three fields.
        FadingExpectation._rule.cache_clear()
        generators, default_rng = [], np.random.default_rng

        def counted(*args):
            generators.append(args)
            return default_rng(*args)

        monkeypatch.setattr(np.random, "default_rng", counted)
        fexp = FadingExpectation(method="monte_carlo", node_or_sample_count=100, seed=3)
        scale = np.array([0.5, 2.0])
        first, second = fexp.expect(np.log1p, scale), fexp.expect(np.log1p, scale)
        equal = dataclasses.replace(fexp).expect(np.log1p, scale)
        assert generators == [(3,)]
        assert first.tobytes() == second.tobytes() == equal.tobytes()
        built = FadingExpectation()
        built.expect(np.log1p, scale)
        for used, fresh in ((fexp, dataclasses.replace(fexp)), (built, FadingExpectation())):
            assert used == fresh and hash(used) == hash(fresh)
        other = dataclasses.replace(fexp, seed=4)
        assert not np.array_equal(other.expect(np.log1p, scale), first)
        assert generators == [(3,), (4,)]

    def test_quadrature_bit_identical_across_calls(self):
        first = expected_uplink_rate(user_at(123.0), 2, 0.007, PARAMS, QUAD)
        second = expected_uplink_rate(user_at(123.0), 2, 0.007, PARAMS, QUAD)
        assert first == second

    @pytest.mark.parametrize("count", [100, 256])
    def test_monte_carlo_is_a_weighted_sum(self, count):
        fexp = FadingExpectation(method="monte_carlo", node_or_sample_count=count, seed=3)
        nodes = np.random.default_rng(3).standard_exponential(count)
        scale = np.array([0.5, 1.0, 3.0, 7e-3])
        values = np.log1p(scale[:, None] * nodes)
        got = fexp.expect(np.log1p, scale)
        assert np.array_equal(got, np.sum(values * (1.0 / count), axis=-1))
        if count == 256:
            # Weighting by a power of two is exact, so the sum is the mean's bits.
            assert np.array_equal(got, values.mean(axis=-1))

    def test_weights_integrate_the_density(self):
        # E[1] = 1 and E[o] = scale must be reproduced by the fixed rule.
        one = QUAD.expect(lambda o: np.ones_like(o), scale=2.5)
        mean = QUAD.expect(lambda o: o, scale=2.5)
        assert one == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(2.5, rel=1e-3)

    def test_quadrature_agrees_with_monte_carlo_grid(self):
        params = NetworkParams(uplink_interference_w=tuple(np.logspace(-9, -7, 12)))
        for d, rb, p in [(80.0, 0, 0.01), (300.0, 6, 0.005), (480.0, 11, 0.002)]:
            q_quad = packet_error_rate(user_at(d), rb, p, params, QUAD)
            q_mc = packet_error_rate(user_at(d), rb, p, params, MC_1M)
            assert abs(q_quad - q_mc) < 1e-3
            r_quad = expected_uplink_rate(user_at(d), rb, p, params, QUAD)
            r_mc = expected_uplink_rate(user_at(d), rb, p, params, MC_1M)
            assert r_quad == pytest.approx(r_mc, rel=0.005)


class TestNetworkParams:
    def test_noise_density_default_matches_dbm(self):
        assert NOISE_DENSITY_W_PER_HZ == pytest.approx(10 ** ((-174 - 30) / 10), rel=1e-12)

    def test_interference_defaults_to_zero_per_rb(self):
        params = NetworkParams(rb_count=5)
        assert params.uplink_interference_w == (0.0,) * 5

    def test_one_interference_value_applies_to_every_rb(self):
        params = NetworkParams(rb_count=3, uplink_interference_w=(1e-9,))
        assert params.uplink_interference_w == (1e-9,) * 3

    def test_interference_length_must_match(self):
        with pytest.raises(ValueError):
            NetworkParams(rb_count=4, uplink_interference_w=(0.0, 0.0))

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(rb_bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            NetworkParams(rb_count=0)
        with pytest.raises(ValueError):
            NetworkParams(uplink_interference_w=(-1.0,) * 12)
