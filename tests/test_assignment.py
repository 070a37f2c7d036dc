"""Allocation tests: optimal power, edge gating, matching, baselines."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fedwireless import assignment, bounds, phy
from fedwireless.assignment import (
    AllocationDecision,
    EdgeWeightMatrix,
    baseline_min_sum_per,
    baseline_optselect_randomrb,
    build_edge_weights,
    feasible_power_interval,
    hungarian_assign,
    optimal_power,
    verify_allocation,
    wireless_error_sum,
)
from fedwireless.phy import (
    FadingExpectation,
    NetworkParams,
    expected_uplink_rate,
    packet_error_rate,
    training_energy,
    uplink_delay,
    downlink_delay,
    user_energy,
)

from util import (
    PointMassFading,
    QUAD,
    REFERENCE,
    brute_force_assign,
    oracle_min_matching_sum,
    record_integrand_sizes,
    synthetic_edges,
    table_topology,
    user_at,
)


class TestOptimalPower:
    def test_loose_budget_gives_max_power(self):
        params = NetworkParams(energy_budget_j=1e6)
        power = optimal_power(user_at(300.0), 0, params, QUAD)
        assert isinstance(power, float) and power == params.max_user_power_w

    def test_training_energy_consuming_whole_budget(self):
        user = user_at(100.0)
        params = NetworkParams(energy_budget_j=training_energy(user))
        assert optimal_power(user, 0, params, QUAD) == 0.0

    def test_matches_grid_search(self):
        # 10^4-point grid oracle: P* within one grid step of the best grid power.
        rng = np.random.default_rng(3)
        params = NetworkParams(uplink_interference_w=tuple(np.logspace(-8, -6.5, 12)))
        grid = np.linspace(params.max_user_power_w / 1e4, params.max_user_power_w, 10**4)
        step = grid[1] - grid[0]
        for _ in range(10):
            user = user_at(float(rng.uniform(50, 500)))
            rb = int(rng.integers(0, 12))
            power = optimal_power(user, rb, params, QUAD)
            energies = user_energy(user, rb, grid, params, QUAD)
            feasible = grid[energies <= params.energy_budget_j]
            if power == 0:
                assert feasible.size == 0
                continue
            assert feasible.size > 0
            assert abs(power - feasible.max()) <= step

    def test_energy_at_returned_power_within_budget(self):
        params = NetworkParams(uplink_interference_w=(8e-8,) * 12)
        for d in (100.0, 300.0, 500.0):
            power = optimal_power(user_at(d), 0, params, QUAD)
            if power > 0:
                e = user_energy(user_at(d), 0, power, params, QUAD)
                assert e <= params.energy_budget_j + 1e-9


class TestFeasiblePowerInterval:
    def test_interval_respects_both_gates(self):
        params = NetworkParams(uplink_interference_w=(5e-8,) * 12)
        user = user_at(400.0)
        (lo,), (hi,), (feasible,) = feasible_power_interval([user], 0, params, QUAD)
        assert feasible
        assert 0 < lo <= hi <= params.max_user_power_w
        down = downlink_delay(user, params, QUAD)
        assert uplink_delay(user, 0, lo, params, QUAD) + down <= params.delay_budget_s * (1 + 1e-9)
        assert user_energy(user, 0, hi, params, QUAD) <= params.energy_budget_j + 1e-9

    def test_returns_none_when_energy_infeasible(self):
        user = user_at(100.0)
        params = NetworkParams(energy_budget_j=training_energy(user) * 0.5)
        lo, hi, feasible = feasible_power_interval([user], 0, params, QUAD)
        assert not feasible[0] and lo[0] == 0.0 and hi[0] == 0.0

    def test_returns_none_when_delay_unreachable(self):
        params = NetworkParams(delay_budget_s=1e-6)
        lo, hi, feasible = feasible_power_interval([user_at(500.0)], 0, params, QUAD)
        assert not feasible[0] and lo[0] == 0.0 and hi[0] == 0.0

    @pytest.mark.parametrize("payload_bits, spent", [(5e4, 0.0), (0.0, 0.0), (5e4, 1.0)],
                             ids=["finite_target", "zero_payload", "no_delay_slack"])
    def test_zero_cap_floor_is_zero(self, payload_bits, spent):
        # feasible_power_interval hands the delay search a cap of 0 where
        # the gate failed: the [0, 0] band answers +0.0 whatever the target
        # rate (finite, 0 for no payload, inf when the downlink spends the
        # whole delay budget).
        params = NetworkParams()
        pairs = phy._Users.of([user_at(300.0, payload_bits=payload_bits)], params).on(0, params)
        down = np.array([spent * params.delay_budget_s])
        (p_lo,) = assignment._delay_floor(pairs, np.zeros(1), down, params, QUAD)
        assert p_lo == 0.0 and not np.signbit(p_lo)

    def test_batch_matches_scalar_reference(self, monkeypatch):
        # On the binding topology (user 3 sends nothing) and on budgets that
        # leave edges out of either search's range: an energy budget equal
        # to the training energy and one below it, and a delay budget
        # between the users' downlink delays (95-113 us), so that some
        # edges have no delay slack.
        users, binding = binding_budget_topology()
        trained = training_energy(users[0])
        decided = check_bands(monkeypatch)
        for params in (binding, replace(binding, energy_budget_j=trained),
                       replace(binding, energy_budget_j=0.5 * trained),
                       replace(binding, delay_budget_s=1.05e-4)):
            for n in range(params.rb_count):
                p_lo, p_hi, feasible = feasible_power_interval(users, n, params, QUAD)
                for i, user in enumerate(users):
                    slack = params.delay_budget_s - downlink_delay(user, params, QUAD)
                    want_hi = reference_optimal_power(user, n, params, QUAD)
                    want_lo = reference_min_power(
                        user, n, user.payload_bits / slack, want_hi, params, QUAD
                    ) if want_hi > 0 and slack > 0 else 0.0
                    assert feasible[i] == (want_lo > 0) and near(p_lo[i], want_lo)
                    assert near(p_hi[i], want_hi if want_lo > 0 else 0.0)
        assert all(decided)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_pair_list_matches_column_calls(self, data):
        # Any (user, RB) pair list gives each pair the bits of its RB column.
        users, params = binding_budget_topology()
        users = users + [user_at(100.0), user_at(200.0, payload_bits=0.0)]
        params = NetworkParams(
            rb_count=params.rb_count,
            uplink_interference_w=params.uplink_interference_w,
            energy_budget_j=params.energy_budget_j,
            delay_budget_s=data.draw(st.sampled_from([params.delay_budget_s, 0.05])),
        )
        k = data.draw(st.integers(1, params.rb_count))
        rows = data.draw(st.permutations(range(len(users))))[:k]
        rbs = np.array(data.draw(st.permutations(range(params.rb_count)))[:k])
        chosen = [users[i] for i in rows]
        got = feasible_power_interval(chosen, rbs, params, QUAD)
        columns = {n: feasible_power_interval(chosen, n, params, QUAD) for n in set(rbs.tolist())}
        for j, n in enumerate(rbs.tolist()):
            for batched, column in zip(got, columns[n]):
                bits = [np.float64(values[j]).view(np.int64) for values in (batched, column)]
                assert bits[0] == bits[1]


def scalar_bisect(lo, hi, below_root):
    """The plain search for one edge: halve [lo, hi] until the mid rounds
    onto an endpoint (at most 200 rounds), lo moving up where the predicate
    holds.  The oracle the certified band is measured against."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below_root(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def lockstep_bisect(lo, hi, below_root):
    """``scalar_bisect`` over many edges in lock step, with
    ``below_root(x)`` over all edges; edges whose root lies outside
    [lo, hi] collapse onto the probe that decides them.  Returns the final
    (lo, hi) and the predicate at the initial lo and hi."""
    holds_lo, holds_hi = below_root(lo), below_root(hi)
    lo = np.where(holds_hi, hi, lo)
    hi = np.where(holds_lo, hi, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        moving = (mid != lo) & (mid != hi)
        if not moving.any():
            break
        up = below_root(mid)
        lo = np.where(moving & up, mid, lo)
        hi = np.where(moving & ~up, mid, hi)
    return lo, hi, holds_lo, holds_hi


def certified_points(lo, hi, columns, measure, search=assignment._certified_band):
    """``search`` over (lo, hi, columns, measure), and the raw band that its
    measured points certify: (got, a, b, margin), with a the largest point
    whose computed excess is below -2 eps and b the smallest above 2 eps
    (-inf and inf where none is), and margin the larger |excess| / eps of
    the two (inf where either is missing)."""
    a, b = np.full(lo.size, -np.inf), np.full(lo.size, np.inf)
    margin_a, margin_b = np.full(lo.size, np.inf), np.full(lo.size, np.inf)

    def recorded(x, *columns):
        *columns, ids = columns
        holds, value, eps = measure(x, *columns)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            margin = np.abs(value) / eps
        # Each call measures an edge at most once.
        below = (value < -2.0 * eps) & (x > a[ids])
        above = (value > 2.0 * eps) & (x < b[ids])
        a[ids[below]], margin_a[ids[below]] = x[below], margin[below]
        b[ids[above]], margin_b[ids[above]] = x[above], margin[above]
        return holds, value, eps

    got = search(lo, hi, (*columns, np.arange(lo.size)), recorded)
    return got, a, b, np.maximum(margin_a, margin_b)


def snapped(a, b):
    """(a, b) moved outward to multiples of the largest power of two that
    is at most b - a, where that is positive and below a."""
    if not 0 < b - a < a:
        return a, b
    grid = 2.0 ** (math.frexp(b - a)[1] - 1)
    assert grid <= b - a < 2 * grid
    return math.floor(a / grid) * grid, math.ceil(b / grid) * grid


def assert_answers_are_snapped_bands(lo, hi, got, a, b):
    """Each edge answers its snapped band clipped to [lo, hi], or the
    probe that decides it where its root lies outside (lo, hi)."""
    for edge in zip(lo.tolist(), hi.tolist(), *(v.tolist() for v in (*got, a, b))):
        e_lo, e_hi, got_a, got_b, holds_lo, holds_hi, raw_a, raw_b = edge
        snap_a, snap_b = snapped(raw_a, raw_b)
        assert snap_a <= raw_a and raw_b <= snap_b
        want_a = e_hi if holds_hi else max(snap_a, e_lo)
        want_b = min(snap_b, e_hi) if holds_lo else e_lo
        assert (got_a, got_b) == (want_a, want_b), edge


def record_searches(monkeypatch, oracle=False):
    """Every ``assignment._certified_band`` call from now on, as a growing
    list of (moving, a, b, margin, gaps): the edges whose predicate holds at
    lo and fails at hi, and the raw band and its margin of
    ``certified_points``.  Each call must answer its snapped bands.  With
    ``oracle``, its probes must equal those of the lock-step oracle for the
    predicate of ``measure``, and on each moving edge its answers must
    contain the oracle's final bracket; gaps holds the answers' distances
    from that bracket over the moving edges, relative, as (a's, b's), and
    is None without ``oracle``."""
    searches = []

    def recorded(lo, hi, columns, measure):
        got, a, b, margin = certified_points(lo, hi, columns, measure)
        assert_answers_are_snapped_bands(lo, hi, got, a, b)
        answer_a, answer_b, holds_lo, holds_hi = got
        moving = holds_lo & ~holds_hi
        if oracle:
            o_lo, o_hi, o_holds_lo, o_holds_hi = lockstep_bisect(
                lo, hi, lambda x: measure(x, *columns)[0]
            )
            assert np.array_equal(holds_lo, o_holds_lo) and np.array_equal(holds_hi, o_holds_hi)
            a_m, b_m, lo_m, hi_m = answer_a[moving], answer_b[moving], o_lo[moving], o_hi[moving]
            assert np.all((a_m <= lo_m) & (hi_m <= b_m))
            searches.append((moving, a, b, margin,
                             ((lo_m - a_m) / lo_m, (b_m - hi_m) / hi_m)))
        else:
            searches.append((moving, a, b, margin, None))
        return got

    monkeypatch.setattr(assignment, "_certified_band", recorded)
    return searches


def check_bands(monkeypatch):
    """Check every ``assignment._certified_band`` call from now on: no NaN
    reaches its points, its measured values or its answers, and each edge
    that its probes decide (the predicate holds at hi or fails at lo) costs
    at most 2 evaluations.  Returns a growing list with the number of such
    edges per call."""
    certify, decided = assignment._certified_band, []

    def checked(lo, hi, columns, measure):
        evaluations = np.zeros(lo.size, dtype=int)

        def counted(x, *columns):
            *columns, edge = columns
            np.add.at(evaluations, edge, 1)
            values = measure(x, *columns)
            assert not any(np.isnan(v).any() for v in (x, *values))
            return values

        got = certify(lo, hi, (*columns, np.arange(lo.size)), counted)
        assert not any(np.isnan(v).any() for v in got[:2])
        holds_lo, holds_hi = got[2:]
        out_of_range = holds_hi | ~holds_lo
        assert np.all(evaluations[out_of_range] <= 2)
        decided.append(np.count_nonzero(out_of_range))
        return got

    monkeypatch.setattr(assignment, "_certified_band", checked)
    return decided


def contested_topology(seed):
    """120 users x 60 RBs in a 1000 m cell with a binding 0.0022 J energy
    budget: the shape of the contested-cell benchmark."""
    users, _ = table_topology(seed=seed, n_users=120, radius=1000.0)
    params = NetworkParams(
        rb_count=60, uplink_interference_w=tuple(np.logspace(-9, -7, 60)), energy_budget_j=0.0022
    )
    return users, params


def reference_topology():
    """Every user of configs/reference.cfg's seeds, on its network."""
    from fedwireless import harness
    from fedwireless.config import load_config

    config = load_config(REFERENCE)
    users = [u for seed in config.seeds for u in harness.build_topology(config, seed)[0]]
    return users, config.network


MONTE_CARLO = FadingExpectation(method="monte_carlo", node_or_sample_count=256, seed=7)


SHAPES = ("linear", "convex", "concave", "steep", "flat")


def synthetic_excess(x, root, shape, scale):
    """An increasing excess g(x - root) of each edge's ``SHAPES[shape]``.
    Every g keeps the sign of its argument (or gives 0 or NaN), and the
    computed x - root has the exact sign, so a computed excess below 0
    proves x < root and one above 0 proves x > root: the band is sound for
    any eps >= 0.  ``steep`` overflows to +-inf off a narrow window around
    the root; ``flat`` is so small that a floor on eps hides it."""
    d = x - root
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = d / scale
        return np.select(
            [shape == 0, shape == 1, shape == 2, shape == 3],
            [d, np.expm1(z), -np.expm1(-z), np.sinh(z)],
            1e-300 * d,
        )


@st.composite
def synthetic_excess_edges(draw):
    """(lo, hi, root, shape, scale, rel, floor) columns of 1-12 edges with
    0 < lo < hi, the bracket from adjacent floats to 15 decades wide, the
    root inside the bracket (uniform or log-uniform), on either end or
    outside it, and eps = rel * |excess| + floor from 0 to far above the
    excess."""
    edges = []
    for _ in range(draw(st.integers(1, 12))):
        lo = 10.0 ** draw(st.floats(-12.0, 3.0))
        hi = draw(st.sampled_from(
            [float(np.nextafter(lo, np.inf)), lo * (1 + 1e-9), 2 * lo, 1e6 * lo, 1e15 * lo]
        ))
        t = draw(st.floats(0.0, 1.0))
        root = draw(st.sampled_from([lo * (hi / lo) ** t, lo + t * (hi - lo), lo, hi,
                                     0.5 * lo, 2 * hi]))
        shape = draw(st.integers(0, len(SHAPES) - 1))
        steep = SHAPES[shape] == "steep"
        decades = draw(st.floats(-300.0, -3.0) if steep else st.floats(-8.0, 4.0))
        rel = draw(st.sampled_from([0.0, 2.0 ** -52, 1e-8, 0.1, 0.5, 10.0]))
        floor = draw(st.sampled_from([0.0, 1e-300, 1e-12, 1.0, 1e300]))
        edges.append((lo, hi, root, shape, (hi - lo) * 10.0 ** decades, rel, floor))
    return tuple(np.array(column) for column in zip(*edges))


def band_on_synthetic_excesses(edges):
    """Run ``_certified_band`` on synthetic excesses and check its contract
    for the predicate x < root: the probes read that predicate, the raw
    band holds the root (a < root < b), every edge answers its snapped
    band, whose answers on an edge bracketed by the probes contain the
    lock-step oracle's final bracket, and each edge searched alone gets
    the same bits.  Returns how many bracketed edges met each safeguard of
    the root estimate: a chord whose slope is not finite, a secant point at
    the geometric mean of its sign bracket, and the pass cap, past which
    every other point is that mean; and how many formed a two-sided band
    wider than its lower edge, which answers its raw edges."""
    lo, hi, root, shape, scale, rel, floor = edges
    calls = []

    def measure(x, root, shape, scale, rel, floor, ids):
        value = synthetic_excess(x, root, shape, scale)
        with np.errstate(invalid="ignore"):
            eps = np.where(rel > 0, rel * np.abs(value), 0.0) + floor
        calls.append((x, ids, value))
        return x < root, value, eps

    columns = (root, shape, scale, rel, floor, np.arange(lo.size))
    got, a, b, _ = certified_points(lo, hi, columns, measure)
    answer_a, answer_b, holds_lo, holds_hi = got
    assert np.array_equal(holds_lo, lo < root) and np.array_equal(holds_hi, hi < root)
    assert np.all((a < root) & (root < b))
    assert_answers_are_snapped_bands(lo, hi, got, a, b)
    moving = holds_lo & ~holds_hi
    o_lo, o_hi, _, _ = lockstep_bisect(lo, hi, lambda x: x < root)
    assert np.all((answer_a[moving] <= o_lo[moving]) & (o_hi[moving] <= answer_b[moving]))
    # The calls: the hi probe, the lo probe, the secant passes and the two
    # band checks, in that order.
    points = [[] for _ in lo]
    for x, ids, value in calls[:-2]:
        for i, x_i, value_i in zip(ids, x, value):
            points[i].append((x_i, value_i))
    for i in range(lo.size):
        alone = assignment._certified_band(
            lo[i:i + 1], hi[i:i + 1], tuple(column[i:i + 1] for column in columns), measure
        )
        assert all(g[i:i + 1].tobytes() == s.tobytes() for g, s in zip(got, alone))
    wide = moving & (-np.inf < a) & (b - a >= a) & (b < np.inf)
    seen = {"chord slope not finite": 0, "geometric fallback": 0, "pass cap": 0,
            "band wider than a": np.count_nonzero(wide)}
    for (x_hi, value_hi), (x_lo, value_lo), *secant in (points[i] for i in np.flatnonzero(moving)):
        with np.errstate(invalid="ignore", over="ignore"):
            slope = (value_hi - value_lo) / (x_hi - x_lo)
        seen["chord slope not finite"] += not np.isfinite(slope)
        seen["pass cap"] += len(secant) > assignment._SECANT_PASSES
        below, above, fell_back = x_lo, x_hi, False
        for x_i, value_i in secant:
            fell_back |= x_i == np.sqrt(below * above)
            if value_i < 0:
                below = x_i
            elif value_i > 0:
                above = x_i
        seen["geometric fallback"] += fell_back
    return seen


class TestCertifiedBand:
    @pytest.mark.parametrize("topology, fexp", [
        (reference_topology, QUAD),
        (lambda: contested_topology(1), QUAD),
        (lambda: contested_topology(2), QUAD),
        (lambda: binding_budget_topology(), QUAD),
        (lambda: binding_budget_topology(), MONTE_CARLO),
    ], ids=["reference", "contested_1", "contested_2", "binding_quadrature",
            "binding_monte_carlo"])
    def test_both_searches_match_lockstep_oracle(self, topology, fexp, monkeypatch):
        # The slope limit's energy search over every (user, RB) edge and
        # its delay search over the gated ones must answer their snapped
        # bands, which contain the oracle's final bracket; every edge that
        # the probes bracket must form a two-sided band, and each search's
        # answer (a for the energy search, b for the delay search) must lie
        # within 1e-9 of the oracle's, relative.
        users, params = topology()
        searches = record_searches(monkeypatch, oracle=True)
        bounds.worst_case_error_sum(users, params, fexp)
        assert len(searches) == 2
        assert all(np.all(np.isfinite(a[moving]) & np.isfinite(b[moving]))
                   for moving, a, b, *_ in searches)
        (energy_gap, _), (_, delay_gap) = (gaps for *_, gaps in searches)
        assert np.all(energy_gap <= 1e-9) and np.all(delay_gap <= 1e-9)
        assert searches[0][0].any()

    @settings(max_examples=300, deadline=None)
    @given(synthetic_excess_edges())
    def test_band_on_synthetic_excesses_matches_lockstep_oracle(self, edges):
        # The band on linear, convex, concave, steep and flat excesses holds
        # the root and contains the oracle's bracket.
        # ``--hypothesis-show-statistics`` reports how often each safeguard
        # of the root estimate was met.
        for kind, count in band_on_synthetic_excesses(edges).items():
            if count:
                event(kind)

    @pytest.mark.parametrize("kind, edge", [
        ("chord slope not finite", (1e-12, 1e3, 1e-3, "convex", 1e-2, 0.0)),
        ("geometric fallback", (1e-12, 1e3, 1e-3, "concave", 1e-3, 0.0)),
        ("pass cap", (1.0, 2.0, 1.5, "steep", 1e-6, 0.0)),
        # x - 1 with eps 0.1 forms the band (0.2, 1.8), whose grid, 1,
        # would floor a to 0 and so answer lo.
        ("band wider than a", (1e-3, 10.0, 1.0, "linear", 1.0, 0.1)),
    ])
    def test_band_on_synthetic_excesses_meets_each_safeguard(self, kind, edge):
        lo, hi, root, shape, scale, floor = edge
        edges = tuple(np.array([v]) for v in (lo, hi, root, SHAPES.index(shape), scale, 0.0, floor))
        assert band_on_synthetic_excesses(edges)[kind] == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(20.0, 1500.0), st.floats(0.5, 2.0), st.floats(1e3, 1e5),
        st.floats(1e-9, 1e-7), st.floats(1e-6, 1.0), st.integers(-2, 2), st.floats(1.001, 10.0),
    )
    @example(900.0, 1.0, 5e4, 1e-9, 0.25, 0, 2.0)
    @example(20.0, 2.0, 1000.0, 1e-9, 0.7, -1, 2.0)
    def test_roots_on_the_budget_match_lockstep_oracle(
        self, distance, fading_scale, payload, interference, fraction, shift, delay_factor
    ):
        # The energy budget is the energy at a drawn power exactly, or a few
        # floats off it; the delay budget puts the delay root inside the
        # bracket.  Both searches of ``feasible_power_interval`` (energy on
        # every edge of the users' build, delay on the gated edges it asks
        # for) must answer their snapped bands, contain the oracle's
        # bracket and lie within 1e-9 of it, relative, unless the excess's
        # own rounding spans more: then the measured excess at both ends of
        # the raw band must be within 32 eps of 0, a band as narrow as the
        # rounding allows.  The energy search meets that
        # where training dominates a tiny transmit energy (fraction 1e-6);
        # the second example's delay root lies 13 decades above the
        # bracket's lo, past the pass cap.
        user = user_at(distance, fading_scale=fading_scale, payload_bits=payload)
        ramp = tuple(interference * np.arange(1, 5))
        base = NetworkParams(rb_count=4, uplink_interference_w=ramp)
        power = fraction * base.max_user_power_w
        budget = user_energy(user, 0, power, base, QUAD)
        for _ in range(abs(shift)):
            budget = float(np.nextafter(budget, np.inf if shift > 0 else 0.0))
        delay = downlink_delay(user, base, QUAD) + delay_factor * uplink_delay(
            user, 0, power, base, QUAD
        )
        params = NetworkParams(rb_count=4, uplink_interference_w=ramp,
                               energy_budget_j=budget, delay_budget_s=delay)
        with pytest.MonkeyPatch.context() as patch:
            searches = record_searches(patch, oracle=True)
            feasible_power_interval([user] * 4, np.arange(4), params, QUAD)
        assert len(searches) == 2
        for (moving, _, _, margin, gaps), gap in zip(searches, (0, 1)):
            assert np.all((gaps[gap] <= 1e-9) | (margin[moving] <= 32.0))

    def test_certificate_halves_the_edge_build_evaluations(self, monkeypatch):
        # Count what the edge build's search evaluates: every moving edge
        # forms a two-sided band, and the fading-expectation edge
        # evaluations (probes, secant passes, band checks) stay under 8 per
        # moving edge beyond the probes; they read 6.8 here (28 670 in
        # all).  A bisection takes about 54 per moving edge.
        users, params = contested_topology(1)
        edges = assignment._every_edge(phy._Users.of(users, params), params)
        searches = record_searches(monkeypatch)
        sizes = record_integrand_sizes(monkeypatch)
        assignment._optimal_powers(edges, params, QUAD)
        (moving, a, b, *_), = searches
        assert np.count_nonzero(moving) > 1000
        assert np.all(np.isfinite(a[moving]) & np.isfinite(b[moving]))
        evaluations = sum(sizes) // QUAD.node_or_sample_count
        assert evaluations <= 2 * moving.size + 8 * np.count_nonzero(moving)

    @pytest.mark.parametrize("budgets, schedulable", [
        ("energy_budget_j = 0.0022\n", True),
        ("energy_budget_j = inf\n", True),
        ("energy_budget_j = inf\ndelay_budget_s = inf\n", True),
        # Training alone spends the budget: not even the least power fits.
        ("energy_budget_j = 0.002\n", False),
        ("energy_budget_j = 0.001\n", False),
        # Between the users' downlink delays (about 1e-4 s in this cell):
        # some edges have no delay slack left for the uplink.
        ("delay_budget_s = 1.05e-4\n", False),
    ], ids=["finite_budgets", "energy_budget_inf", "both_budgets_inf",
            "energy_budget_at_training", "energy_budget_below_training",
            "delay_budget_between_downlinks"])
    def test_blocked_rb_is_never_selected_nor_feeds_nan(self, budgets, schedulable, monkeypatch):
        # One RB at infinite interference is legal and blocks that RB: its
        # edges are infeasible even where no budget binds (an infinite
        # energy fits no budget), no algorithm selects it, no NaN reaches
        # the certificate, and each edge whose probes decide it costs at
        # most 2 evaluations.
        from fedwireless import harness
        from fedwireless.config import loads_config

        config = loads_config(
            "[network]\nrb_count = 4\n" + budgets +
            "uplink_interference_w = 1e-9 inf 1e-8 1e-7\n"
            "[users]\ncount = 8\ncell_radius_m = 1000.0\n"
            "[training]\nrounds = 2\n[experiment]\nseeds = 1 2 3\n"
        )
        decided = check_bands(monkeypatch)
        records = harness.run_experiment(config)
        assert {r.algorithm for r in records} == set(config.algorithms)
        assert all(1 not in r.rb_index for r in records)
        assert any(decided)
        assert any(r.rb_index.count(-1) < len(r.rb_index) for r in records) == schedulable
        users, _ = harness.build_topology(config, 1)
        edges = build_edge_weights(users, config.network, QUAD)
        assert not edges.feasible[:, 1].any()
        assert edges.feasible[:, [0, 2, 3]].any() == schedulable


def near(got, want):
    """Whether a searched power lies within 1e-9 of the scalar bisection's,
    relative (0 only where that is 0)."""
    return abs(got - want) <= 1e-9 * want


def reference_optimal_power(user, n, params, fexp):
    """Scalar energy-budget search through the public phy calls; 0 if none."""
    budget, p_max = params.energy_budget_j, params.max_user_power_w

    def fits(p):
        return user_energy(user, n, p, params, fexp) <= budget

    if training_energy(user) >= budget:
        return 0.0
    if fits(p_max):
        return p_max
    lo = p_max * 1e-12
    return scalar_bisect(lo, p_max, fits)[0] if fits(lo) else 0.0


def reference_min_power(user, n, target_rate, p_hi, params, fexp):
    """Scalar search for the least power in (0, p_hi] reaching target_rate; 0 if none."""
    def short(p):
        return expected_uplink_rate(user, n, p, params, fexp) < target_rate

    if short(p_hi):
        return 0.0
    lo = p_hi * 1e-15
    return scalar_bisect(lo, p_hi, short)[1] if short(lo) else lo


EDGE_FIELDS = ("weights", "feasible", "power_w", "error_rate", "delay_s", "energy_j")


def one_user_edge(user, params, fexp):
    """Edge (0, RB 0) of an edge build over a one-user topology."""
    edges = build_edge_weights([user], params, fexp)
    return {name: getattr(edges, name)[0, 0] for name in EDGE_FIELDS}


def binding_budget_topology():
    """12 users x 8 RBs in a 1000 m cell with a binding energy budget, so
    many edges bisect; more users than RBs, and user 3 sends nothing."""
    rng = np.random.default_rng([11, 0])
    distances = 1000.0 * np.sqrt(1.0 - rng.random(12))
    users = [
        user_at(float(d), samples=(12, 10, 8, 4, 2)[i % 5],
                payload_bits=0.0 if i == 3 else 5e4, fading_scale=0.6 + 0.2 * (i % 4))
        for i, d in enumerate(distances)
    ]
    params = NetworkParams(
        rb_count=8, uplink_interference_w=tuple(np.logspace(-9, -7, 8)), energy_budget_j=0.0022
    )
    return users, params


def assert_build_matches_scalar_calls(fexp):
    """Every array of the column-batched build equals, bit for bit, the
    public scalar calls at the recorded power, which is ``optimal_power``'s
    and lies within 1e-9 of the scalar bisection's."""
    users, params = binding_budget_topology()
    edges = build_edge_weights(users, params, fexp)
    p_max = params.max_user_power_w
    assert np.any(edges.feasible & (edges.power_w < p_max))     # bisected edges
    assert np.any(~edges.feasible) and edges.feasible[3].all()
    for i, user in enumerate(users):
        down = downlink_delay(user, params, fexp)
        for n in range(params.rb_count):
            p = optimal_power(user, n, params, fexp)
            assert near(p, reference_optimal_power(user, n, params, fexp))
            if not edges.feasible[i, n]:
                assert (edges.weights[i, n], edges.power_w[i, n], edges.error_rate[i, n],
                        edges.delay_s[i, n], edges.energy_j[i, n]) == (0.0, 0.0, 1.0, np.inf, np.inf)
                assert p == 0 or (
                    uplink_delay(user, n, p, params, fexp) + down > params.delay_budget_s
                    or user_energy(user, n, p, params, fexp) > params.energy_budget_j
                )
                continue
            assert p == edges.power_w[i, n]
            q = packet_error_rate(user, n, p, params, fexp)
            want = {
                "weights": user.sample_count * (q - 1.0),
                "error_rate": q,
                "delay_s": uplink_delay(user, n, p, params, fexp) + down,
                "energy_j": user_energy(user, n, p, params, fexp),
            }
            for name, value in want.items():
                got = getattr(edges, name)[i, n]
                assert np.float64(got).view(np.int64) == np.float64(value).view(np.int64), name


def column_by_column_build(users, params, fexp):
    """The edge build as one cohort per RB column: the reference for the
    flat (user, RB) edge build."""
    cohort = phy._Users.of(users, params)
    down = phy._downlink_delay(cohort, params, fexp)
    counts = np.array([u.sample_count for u in users], dtype=float)
    shape = (len(users), params.rb_count)
    feasible = np.zeros(shape, dtype=bool)
    weights, power, error, delay, energy = (np.empty(shape) for _ in range(5))
    for n in range(params.rb_count):
        column = cohort.on(n, params)
        p = assignment._optimal_powers(column, params, fexp)
        q, total_delay, e = assignment._link(column, p, down, params, fexp)
        ok = (p > 0) & (total_delay <= params.delay_budget_s) & (e <= params.energy_budget_j)
        feasible[:, n] = ok
        weights[:, n] = np.where(ok, counts * (q - 1.0), 0.0)
        power[:, n] = np.where(ok, p, 0.0)
        error[:, n] = np.where(ok, q, 1.0)
        delay[:, n] = np.where(ok, total_delay, np.inf)
        energy[:, n] = np.where(ok, e, np.inf)
    return dict(zip(EDGE_FIELDS, (weights, feasible, power, error, delay, energy)))


@pytest.mark.parametrize("fexp", [
    QUAD, FadingExpectation(method="monte_carlo", node_or_sample_count=256, seed=7)
], ids=["quadrature", "monte_carlo"])
@pytest.mark.parametrize("width", [29, 96], ids=["uneven", "one_block"])
def test_column_blocks_match_column_by_column_build(fexp, width, monkeypatch):
    # The flat (user, RB) edge build and worst-case sum must give the bits
    # of a column-by-column build whatever edge slices the fading
    # expectation takes: 29 edges per call straddle users and RB columns of
    # the 12 x 8 topology, and 96 take all of its edges in one call.
    users, params = binding_budget_topology()
    want = column_by_column_build(users, params, fexp)
    with pytest.MonkeyPatch.context() as patch:       # one edge per call
        patch.setattr(phy, "_COHORT_ELEMENTS", 1)
        want_worst = bounds.worst_case_error_sum(users, params, fexp)
    nodes = fexp.node_or_sample_count
    # Not a multiple of users x nodes: the last edge of a slice falls anywhere.
    budget = width * nodes + nodes // 2
    monkeypatch.setattr(phy, "_COHORT_ELEMENTS", budget)
    sizes = record_integrand_sizes(monkeypatch)
    edges = build_edge_weights(users, params, fexp)
    for name in EDGE_FIELDS:
        got = getattr(edges, name)
        assert got.dtype == want[name].dtype and got.tobytes() == want[name].tobytes(), name
    worst = bounds.worst_case_error_sum(users, params, fexp)
    assert np.float64(worst).tobytes() == np.float64(want_worst).tobytes()
    assert max(sizes) == width * nodes <= budget


class TestEdgeWeight:
    def test_error_certain_link_is_worthless(self):
        # Feasible edge with q that floors to exactly 1: weight ties with infeasible.
        fexp = PointMassFading(1.0)
        params = NetworkParams(
            uplink_interference_w=(1.0,) * 12,
            delay_budget_s=1e9,
            energy_budget_j=1e9,
        )
        user = user_at(500.0, samples=10, payload_bits=1.0)
        assert packet_error_rate(user, 0, 0.01, params, fexp) == 1.0
        edge = one_user_edge(user, params, fexp)
        assert edge["feasible"]
        assert edge["weights"] == 0.0

    def test_perfect_link_contributes_minus_k(self):
        # q is negligible on a near-noiseless point-mass channel, so the
        # weight rounds to exactly minus the sample count.
        fexp = PointMassFading(1.0)
        params = NetworkParams()
        user = user_at(1e-3, samples=12)
        assert packet_error_rate(user, 0, 0.01, params, fexp) < 1e-18
        assert one_user_edge(user, params, fexp)["weights"] == -12.0

    def test_infeasible_edge_disabled(self):
        user = user_at(100.0)
        params = NetworkParams(energy_budget_j=training_energy(user))
        edge = one_user_edge(user, params, QUAD)
        assert not edge["feasible"]
        assert edge["weights"] == 0.0

    def test_weight_tracks_per_oracle(self):
        mc = FadingExpectation(method="monte_carlo", node_or_sample_count=10**6, seed=20240915)
        params = NetworkParams()
        user = user_at(100.0, samples=12)
        got = one_user_edge(user, params, QUAD)["weights"]
        power = optimal_power(user, 0, params, QUAD)
        q_mc = packet_error_rate(user, 0, power, params, mc)
        assert got == pytest.approx(12.0 * (q_mc - 1.0), abs=12e-3)

    def test_build_matches_scalar_op(self):
        assert_build_matches_scalar_calls(QUAD)

    def test_build_matches_scalar_op_monte_carlo(self):
        assert_build_matches_scalar_calls(
            FadingExpectation(method="monte_carlo", node_or_sample_count=256, seed=7)
        )

    def test_edge_exactly_on_energy_budget(self):
        user = user_at(900.0)
        p_max = NetworkParams().max_user_power_w
        budget = user_energy(user, 0, p_max, NetworkParams(), QUAD)
        on = NetworkParams(energy_budget_j=budget)
        edge = one_user_edge(user, on, QUAD)
        assert edge["feasible"] and edge["power_w"] == p_max
        assert optimal_power(user, 0, on, QUAD) == p_max
        below = NetworkParams(energy_budget_j=float(np.nextafter(budget, 0.0)))
        power = optimal_power(user, 0, below, QUAD)
        assert 0 < power < p_max
        assert user_energy(user, 0, power, below, QUAD) <= below.energy_budget_j
        assert one_user_edge(user, below, QUAD)["power_w"] == power

    def test_weights_bounded_by_sample_count(self):
        users, params = table_topology(seed=9)
        edges = build_edge_weights(users, params, QUAD)
        counts = edges.sample_counts[:, None]
        assert np.all(edges.weights <= 0)
        assert np.all(edges.weights >= -counts)


class TestHungarian:
    def test_single_edge(self):
        rng = np.random.default_rng(0)
        edges = synthetic_edges(rng, 1, 1, feasible_prob=1.0)
        edges.weights[0, 0] = -5.0
        edges.error_rate[0, 0] = 1.0 - 5.0 / edges.sample_counts[0]
        decision = hungarian_assign(edges)
        assert decision.selection.tolist() == [1]
        assert decision.rb_assignment[0, 0] == 1
        assert decision.objective == pytest.approx(edges.sample_counts[0] - 5.0)

    def test_all_zero_weights_select_nobody(self):
        edges = synthetic_edges(np.random.default_rng(1), 4, 3, feasible_prob=0.0)
        decision = hungarian_assign(edges)
        assert decision.selection.sum() == 0
        assert decision.objective == pytest.approx(edges.sample_counts.sum())

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n_users = int(rng.integers(1, 6))
            n_rbs = int(rng.integers(1, 6))
            edges = synthetic_edges(rng, n_users, n_rbs)
            decision = hungarian_assign(edges)
            matched_sum = decision.objective - edges.sample_counts.sum()
            assert matched_sum == pytest.approx(oracle_min_matching_sum(edges.weights), abs=1e-12)

    def test_matches_brute_force_objective_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n_users = int(rng.integers(1, 7))
            n_rbs = int(rng.integers(1, 7))
            edges = synthetic_edges(rng, n_users, n_rbs)
            assert hungarian_assign(edges).objective == brute_force_assign(edges).objective

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_objective_equals_brute_force_on_ties_and_zeros(self, n_users, n_rbs, data):
        # Weights from a small grid, so ties and zero (infeasible) edges are common.
        grid = st.sampled_from([-6.0, -2.5, -1.0, -1.0 / 3.0, 0.0])
        weights = np.array(
            data.draw(st.lists(grid, min_size=n_users * n_rbs, max_size=n_users * n_rbs))
        ).reshape(n_users, n_rbs)
        counts = np.array(data.draw(st.lists(st.integers(6, 12), min_size=n_users,
                                             max_size=n_users)), dtype=float)
        feasible = weights < 0
        edges = EdgeWeightMatrix(
            weights=weights,
            feasible=feasible,
            power_w=np.where(feasible, 0.01, 0.0),
            error_rate=1.0 + weights / counts[:, None],
            delay_s=np.where(feasible, 0.1, np.inf),
            energy_j=np.where(feasible, 1e-3, np.inf),
            sample_counts=counts,
        )
        assert hungarian_assign(edges).objective == pytest.approx(
            brute_force_assign(edges).objective, rel=1e-12
        )
        col_of_row, _, u, v = assignment._hungarian_square(weights)
        assert assignment._certificate_violation(weights, col_of_row, u, v) <= 4

    def test_matches_scipy_reference(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(4)
        for _ in range(40):
            edges = synthetic_edges(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            rows, cols = linear_sum_assignment(edges.weights)
            reference = edges.weights[rows, cols].sum()
            decision = hungarian_assign(edges)
            matched_sum = decision.objective - edges.sample_counts.sum()
            assert matched_sum == pytest.approx(min(reference, 0.0), abs=1e-12)

    def test_deterministic(self):
        edges = synthetic_edges(np.random.default_rng(5), 6, 6)
        first = hungarian_assign(edges)
        second = hungarian_assign(edges)
        assert np.array_equal(first.rb_assignment, second.rb_assignment)
        assert first.objective == second.objective

    def test_infeasible_match_reported_unselected(self):
        edges = synthetic_edges(np.random.default_rng(6), 3, 5, feasible_prob=0.4)
        decision = hungarian_assign(edges)
        for i in range(3):
            if decision.selection[i]:
                n = int(np.argmax(decision.rb_assignment[i]))
                assert edges.feasible[i, n]
                assert edges.weights[i, n] < 0


def scalar_rectangular_matching(cost):
    """The rectangular potentials method with a scalar scan over the real
    columns, each row also owning an implicit zero-cost "unassigned" column:
    ``_hungarian_square`` must match it bit for bit."""
    n_rows, n_cols = cost.shape
    INF = float("inf")
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    way = [-1] * n_cols
    col_of_row = [-1] * n_rows
    row_of_col = [-1] * n_cols
    iterations = 0
    for i in range(n_rows):
        minv = [INF] * n_cols
        used = [False] * n_cols
        used_rows = [i]
        i0, j0 = i, -1
        exit_value, exit_row = INF, -1
        while True:
            iterations += 1
            row = cost[i0]
            ui0 = u[i0]
            for j in range(n_cols):
                if not used[j]:
                    cur = row[j] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
            if -ui0 < exit_value:
                exit_value, exit_row = -ui0, i0
            delta, j1 = INF, -1
            for j in range(n_cols):
                if not used[j] and minv[j] < delta:
                    delta, j1 = minv[j], j
            if exit_value <= delta:
                delta, j1 = exit_value, -1
            for r in used_rows:
                u[r] += delta
            for j in range(n_cols):
                if used[j]:
                    v[j] -= delta
                else:
                    minv[j] -= delta
            exit_value -= delta
            if j1 < 0 or row_of_col[j1] < 0:
                break
            used[j1] = True
            j0, i0 = j1, row_of_col[j1]
            used_rows.append(i0)
        if j1 < 0:
            j1 = col_of_row[exit_row]
            col_of_row[exit_row] = -1
        while j1 >= 0:
            j0 = way[j1]
            r = i if j0 < 0 else row_of_col[j0]
            row_of_col[j1] = r
            col_of_row[r] = j1
            j1 = j0
    return col_of_row, iterations


def assert_solver_matches_scalar_scan(weights):
    """``_hungarian_square`` on ``weights`` gives the scalar scan's columns
    and settle count, at most R + 1 settles per row, and potentials that
    certify the matching optimal within 4 units."""
    col_of_row, iterations, u, v = assignment._hungarian_square(weights)
    assert (col_of_row.tolist(), iterations) == scalar_rectangular_matching(weights)
    n_users, n_rbs = weights.shape
    assert iterations <= n_users * (n_rbs + 1)
    assert assignment._certificate_violation(weights, col_of_row, u, v) <= 4


# A small grid of weights: ties, exact zeros and a third that rounds.
WEIGHT_GRID = (0.0, -1.0 / 3.0, -1.0, -2.5, -6.0)


@st.composite
def grid_weights(draw, max_side=10):
    """A grid matrix of any shape up to ``max_side`` with some rows and
    columns set to zero."""
    n_users, n_rbs = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cells = draw(st.lists(st.sampled_from(WEIGHT_GRID), min_size=n_users * n_rbs,
                          max_size=n_users * n_rbs))
    weights = np.array(cells).reshape(n_users, n_rbs)
    weights[sorted(draw(st.sets(st.integers(0, n_users - 1), max_size=2))), :] = 0.0
    weights[:, sorted(draw(st.sets(st.integers(0, n_rbs - 1), max_size=2)))] = 0.0
    return weights


class TestHungarianSquare:
    # The first two examples flip a column or the settle count when the
    # potentials take a deferred sum of the settles' deltas instead of one
    # addition per settle.
    @settings(max_examples=200, deadline=None)
    @given(grid_weights())
    @example(np.array([[-6.0, 0.0, -1 / 3, 0.0], [0.0, -1 / 3, -1.0, -1 / 3],
                       [0.0, 0.0, -6.0, -1 / 3], [-6.0, -2.5, -6.0, 0.0],
                       [-1.0, -2.5, -2.5, -1 / 3]]))
    @example(np.array([[0.0], [-1 / 3], [-1.0], [-1 / 3], [-1 / 3], [-2.5]]))
    @example(np.array([[-1.0, -1 / 3, 0.0, -6.0, -2.5]]))
    @example(np.array([[-1.0, -1.0, 0.0, -2.5, -1 / 3, -6.0],
                       [-6.0, 0.0, -6.0, -1.0, -1.0, -1 / 3]]))
    @example(np.zeros((4, 3)))
    def test_matches_scalar_scan_on_ties_zeros_and_shapes(self, weights):
        assert_solver_matches_scalar_scan(weights)

    def test_matches_scalar_scan_on_reference_edges(self, monkeypatch):
        from fedwireless.config import load_config
        from fedwireless.harness import build_topology

        solved = []
        solve = assignment._hungarian_square

        def capture(weights):
            solved.append(weights.copy())
            return solve(weights)

        monkeypatch.setattr(assignment, "_hungarian_square", capture)
        config = load_config(REFERENCE)
        for seed in config.seeds:
            users, _ = build_topology(config, seed)
            edges = build_edge_weights(users, config.network, config.fading)
            hungarian_assign(edges)
            baseline_min_sum_per(edges)
            # The worst-case error sum solves the same (U, R) shape.
            bounds.worst_case_error_sum(users, config.network, config.fading)
        monkeypatch.undo()
        # Each solve runs on the 12 of 15 users among some RB's 12 lowest weights.
        assert [w.shape for w in solved] == [(12, 12)] * 3 * len(config.seeds)
        for weights in solved:
            assert_solver_matches_scalar_scan(weights)

    def test_certificate_fails_a_nudged_potential_or_swapped_columns(self):
        from fedwireless.config import load_config
        from fedwireless.harness import build_topology

        config = load_config(REFERENCE)
        users, _ = build_topology(config, config.seeds[0])
        weights = build_edge_weights(users, config.network, config.fading).weights
        col_of_row, _, u, v = assignment._hungarian_square(weights)
        violation = assignment._certificate_violation
        assert violation(weights, col_of_row, u, v) <= 4
        # Each nonzero potential nudged by 1e-9 of itself reads 5e4 units or more.
        for potentials, side in ((u, 0), (v, 1)):
            for k in np.flatnonzero(potentials):
                nudged = [u, v]
                nudged[side] = potentials.copy()
                nudged[side][k] *= 1.0 + 1e-9
                assert violation(weights, col_of_row, *nudged) > 4
        # Two matched rows trading columns read 1e10 units or more.
        rows = np.flatnonzero(col_of_row >= 0)
        for pair in zip(rows[:-1], rows[1:]):
            swapped = col_of_row.copy()
            swapped[list(pair)] = col_of_row[list(pair[::-1])]
            assert violation(weights, swapped, u, v) > 4

    @pytest.mark.parametrize("n_users, n_rbs", [(200, 100), (300, 20), (20, 300), (1, 50)])
    def test_large_instances_reach_the_scipy_optimum(self, n_users, n_rbs):
        from scipy.optimize import linear_sum_assignment

        edges = synthetic_edges(np.random.default_rng([n_users, n_rbs]), n_users, n_rbs)
        per_weights = np.where(edges.feasible, edges.error_rate - 1.0, 0.0)
        for decision, weights in (
            (hungarian_assign(edges), edges.weights),
            (baseline_min_sum_per(edges), per_weights),
        ):
            rows, cols = linear_sum_assignment(weights)
            optimum = math.fsum(weights[rows, cols])
            matched = math.fsum(weights[decision.rb_assignment == 1])
            assert matched == pytest.approx(min(optimum, 0.0), abs=1e-12)


def exchange_holds(weights, keep):
    """Whether every row outside ``keep`` weighs, in each column, at least
    that column's R-th lowest kept weight: then each column matched to a
    dropped row has R kept rows at or below it, one of them free, so some
    optimal matching of all rows uses kept rows alone."""
    n_rbs = weights.shape[1]
    dropped = np.delete(weights, keep, axis=0)
    if not dropped.size:
        return True
    return keep.size >= n_rbs and bool(
        np.all(dropped >= np.sort(weights[keep], axis=0)[n_rbs - 1])
    )


@st.composite
def tall_grid_weights(draw):
    """A grid matrix with more rows than columns, up to 15 times as many,
    with some rows and columns set to zero."""
    n_rbs = draw(st.integers(1, 6))
    n_users = draw(st.integers(n_rbs + 1, 15 * n_rbs))
    cells = draw(st.lists(st.sampled_from(WEIGHT_GRID), min_size=n_users * n_rbs,
                          max_size=n_users * n_rbs))
    weights = np.array(cells).reshape(n_users, n_rbs)
    weights[sorted(draw(st.sets(st.integers(0, n_users - 1), max_size=3))), :] = 0.0
    weights[:, sorted(draw(st.sets(st.integers(0, n_rbs - 1), max_size=2)))] = 0.0
    return weights


def assert_strongest_first(weights, keep):
    """``keep`` lists its rows by their lowest weight, non-decreasing, with
    tied rows in ascending row order."""
    lowest = weights[keep].min(axis=1)
    assert np.all((lowest[:-1] < lowest[1:])
                  | ((lowest[:-1] == lowest[1:]) & (keep[:-1] < keep[1:])))


class TestPrunedSolve:
    """``_solve_matching`` solves only the ``_candidate_rows`` when U > R,
    strongest row first."""

    @settings(max_examples=200, deadline=None)
    @given(tall_grid_weights())
    @example(np.zeros((30, 2)))
    @example(np.full((40, 3), -1.0))
    @example(np.array([[-1.0, -1.0], [-6.0, 0.0], [-6.0, 0.0], [-1.0, -1.0], [-2.5, 0.0]]))
    @example(np.tile(np.array([[0.0, -1 / 3], [-1 / 3, 0.0], [-1.0, -1.0]]), (20, 1)))
    def test_pruned_solve_reaches_the_full_optimum_with_its_certificate(self, weights):
        n_users, n_rbs = weights.shape
        keep = assignment._candidate_rows(weights)
        assert np.array_equal(np.sort(keep), np.unique(keep)) and n_rbs <= keep.size <= n_users
        assert_strongest_first(weights, keep)
        (rows, rbs), _ = assignment._solve_matching(weights)
        assert len(set(rows.tolist())) == rows.size and len(set(rbs.tolist())) == rbs.size
        assert np.all(np.isin(rows, keep)) and np.all(weights[rows, rbs] < 0)
        full, _, _, _ = assignment._hungarian_square(weights)
        matched = np.flatnonzero(full >= 0)
        assert math.fsum(weights[rows, rbs]) == pytest.approx(
            math.fsum(weights[matched, full[matched]]), rel=1e-12
        )
        col_of_row, _, u, v = assignment._hungarian_square(weights[keep])
        assert assignment._certificate_violation(weights[keep], col_of_row, u, v) <= 4
        assert exchange_holds(weights, keep)
        # The kept rows hold each column's R lowest weights, whatever the ties.
        dropped = np.delete(weights, keep, axis=0)
        assert np.all(dropped >= np.sort(weights, axis=0)[n_rbs - 1])

    @settings(max_examples=60, deadline=None)
    @given(grid_weights())
    def test_nothing_is_pruned_when_rbs_are_not_fewer(self, weights):
        if weights.shape[0] > weights.shape[1]:
            weights = weights.T
        keep = assignment._candidate_rows(weights)
        assert np.sort(keep).tolist() == list(range(weights.shape[0]))
        assert_strongest_first(weights, keep)

    def test_a_keep_set_missing_a_needed_row_fails_the_exchange_check(self):
        weights = np.array([[-6.0, -1.0], [-2.5, -2.5], [-1.0, -6.0], [0.0, 0.0], [-1.0, 0.0]])
        keep = assignment._candidate_rows(weights)
        assert np.sort(keep).tolist() == [0, 1, 2] and exchange_holds(weights, keep)
        assert_strongest_first(weights, keep)
        # Row 0 is the only -6 of column 0: without it the optimum -12 is lost.
        assert not exchange_holds(weights, np.array([1, 2, 4]))
        # Row 1 is second lowest in both columns.  The optimum survives
        # without it, but no column then has R kept rows at or below it.
        assert not exchange_holds(weights, np.array([0, 2, 3]))
        assert not exchange_holds(weights, np.array([0, 2]))
        # A dropped row tied with a column's R-th lowest kept weight is not
        # needed; one tied with the R-th lowest of all rows may be: here rows
        # 1 and 2 tie at -2, and keeping row 0 instead of row 2 loses -4.
        tied = np.array([[-1.0], [-1.0], [0.0]])
        assert exchange_holds(tied, np.array([0])) and exchange_holds(tied, np.array([1]))
        assert not exchange_holds(np.array([[-1.0, 0.0], [-2.0, -2.0], [-2.0, -2.0]]),
                                  np.array([0, 1]))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(tall_grid_weights(), grid_weights()))
    def test_ordered_solve_returns_rows_ascending_at_the_index_order_optimum(self, weights):
        n_users, n_rbs = weights.shape
        (rows, rbs), iterations = assignment._solve_matching(weights)
        assert np.all(np.diff(rows) > 0)
        full, _, _, _ = assignment._hungarian_square(weights)
        matched = np.flatnonzero(full >= 0)
        assert math.fsum(weights[rows, rbs]) == pytest.approx(
            math.fsum(weights[matched, full[matched]]), rel=1e-12
        )
        keep = assignment._candidate_rows(weights)
        col_of_row, solved, u, v = assignment._hungarian_square(weights[keep])
        assert solved == iterations <= n_users * (n_rbs + 1)
        assert assignment._certificate_violation(weights[keep], col_of_row, u, v) <= 4

    def test_strong_rows_inserted_first_take_fewer_settles(self):
        # Rows 0-3 weigh -1 on every RB and rows 4-7 -6 on their own RB.
        # Each RB keeps its -6 row and rows 0-2; in index order every -6 row
        # comes in after the weak rows and takes an RB back from one of them.
        weights = np.vstack([np.full((4, 4), -1.0), np.diag(np.full(4, -6.0))])
        keep = assignment._candidate_rows(weights)
        assert keep.tolist() == [4, 5, 6, 7, 0, 1, 2]
        _, index_order, _, _ = assignment._hungarian_square(weights[np.sort(keep)])
        (rows, rbs), iterations = assignment._solve_matching(weights)
        assert (rows.tolist(), rbs.tolist()) == ([4, 5, 6, 7], [0, 1, 2, 3])
        assert (iterations, index_order) == (11, 19)


class TestBruteForce:
    def test_two_by_two_by_hand(self):
        edges = synthetic_edges(np.random.default_rng(0), 2, 2, feasible_prob=1.0)
        edges.weights[:] = [[-1.0, -4.0], [-3.0, -2.0]]
        edges.error_rate[:] = 1.0 + edges.weights / edges.sample_counts[:, None]
        decision = brute_force_assign(edges)
        assert decision.rb_assignment[0, 1] == 1
        assert decision.rb_assignment[1, 0] == 1
        matched_sum = decision.objective - edges.sample_counts.sum()
        assert matched_sum == pytest.approx(-7.0)

    def test_size_guard(self):
        edges = synthetic_edges(np.random.default_rng(1), 9, 3)
        with pytest.raises(ValueError):
            brute_force_assign(edges)

    def test_rectangular_self_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            edges = synthetic_edges(rng, 5, 7)
            assert brute_force_assign(edges).objective == hungarian_assign(edges).objective


class TestPowerOptimality:
    def test_error_rate_minimized_at_optimal_power(self):
        rng = np.random.default_rng(11)
        params = NetworkParams(uplink_interference_w=tuple(np.logspace(-8, -6.8, 12)))
        grid = np.linspace(params.max_user_power_w / 1e4, params.max_user_power_w, 10**4)
        for _ in range(10):
            user = user_at(float(rng.uniform(50, 500)))
            rb = int(rng.integers(0, 12))
            power = optimal_power(user, rb, params, QUAD)
            if power == 0:
                continue
            energies = user_energy(user, rb, grid, params, QUAD)
            feasible = grid[energies <= params.energy_budget_j]
            q_star = packet_error_rate(user, rb, power, params, QUAD)
            q_grid = packet_error_rate(user, rb, feasible, params, QUAD)
            assert np.all(q_star <= q_grid + 1e-15)


def reference_baseline_b(rng, users, params, fexp):
    """Baseline b as a per-pair loop over public scalar calls: one interval
    search of the pair alone and, where feasible, one uniform power draw
    per chosen pair."""
    k = min(len(users), params.rb_count)
    chosen_users = rng.permutation(len(users))[:k]
    chosen_rbs = rng.permutation(params.rb_count)[:k]
    rows = []
    for i, n in zip(chosen_users.tolist(), chosen_rbs.tolist()):
        user = users[i]
        down = downlink_delay(user, params, fexp)
        (p_lo,), (p_hi,), _ = feasible_power_interval([user], n, params, fexp)
        if p_lo > 0:
            p = float(rng.uniform(p_lo, p_hi))
            rows.append((i, n, p, packet_error_rate(user, n, p, params, fexp),
                         uplink_delay(user, n, p, params, fexp) + down,
                         user_energy(user, n, p, params, fexp)))
    return rows


def assert_baseline_b_matches_pair_loop(users, params, fexp, seeds):
    """Batched baseline b equals the per-pair reference bit for bit and
    leaves the generator in the same state; returns the selected counts."""
    selected = []
    for seed in seeds:
        rng, ref_rng = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 2])
        edges = build_edge_weights(users, params, fexp)
        decision = assignment._random_all([rng], [users], [edges], params, fexp)[0]
        rows = reference_baseline_b(ref_rng, users, params, fexp)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        want = {name: np.zeros(len(users))
                for name in ("power_w", "error_rate", "delay_s", "energy_j")}
        rb_assignment = np.zeros((len(users), params.rb_count), dtype=int)
        for i, n, *stats in rows:
            rb_assignment[i, n] = 1
            for name, value in zip(want, stats):
                want[name][i] = value
        assert np.array_equal(decision.rb_assignment, rb_assignment)
        assert np.array_equal(decision.selection, rb_assignment.sum(axis=1))
        for name, values in want.items():
            got = getattr(decision, name)
            assert np.array_equal(got.view(np.int64), values.view(np.int64)), name
        counts = np.array([u.sample_count for u in users], dtype=float)
        a = decision.selection
        assert decision.objective == float(np.sum(counts * (1.0 - a + a * want["error_rate"])))
        selected.append(len(rows))
    return selected


def every_algorithm(users, params, fexp, seed):
    """The decisions of the proposed allocator and the three baselines."""
    edges = build_edge_weights(users, params, fexp)
    rng = np.random.default_rng([seed, 2])
    return [
        hungarian_assign(edges),
        baseline_optselect_randomrb(rng, edges),
        assignment._random_all([rng], [users], [edges], params, fexp)[0],
        baseline_min_sum_per(edges),
    ]


@settings(max_examples=40, deadline=None)
@given(st.floats(20.0, 500.0), st.floats(1e3, 1e5), st.floats(1e-9, 1e-7),
       st.floats(2.5e-3, 5e-3))
# A 44.68 m edge on which the gate passes at a delay budget equal to its
# delay, where the delay search alone called it infeasible; and one at
# 1 ulp below, where the delay search alone called it feasible.
@example(44.68016578194125, 1791.9093443517756, 1.7236211798490764e-08, 0.004099893818616616)
@example(44.68392240109967, 1791.9113716938402, 1.7232935612580658e-08, 0.004099899805605492)
def test_one_feasibility_rule_at_the_delay_budget(distance, payload, interference, energy):
    # With the delay budget within 2 ulps of an edge's delay at its optimal
    # power, the edge build's gate, feasible_power_interval and baseline b
    # must agree on whether the edge is usable, and every baseline b
    # decision must pass verify_allocation.
    user = user_at(distance, payload_bits=payload)
    params = NetworkParams(rb_count=1, uplink_interference_w=(interference,),
                           energy_budget_j=energy, delay_budget_s=math.inf)
    budget = float(build_edge_weights([user], params, QUAD).delay_s[0, 0])
    if math.isinf(budget):
        return                                  # the energy budget gates it out
    below, above = np.nextafter(budget, 0.0), np.nextafter(budget, math.inf)
    for delay_budget in (np.nextafter(below, 0.0), below, budget, above,
                         np.nextafter(above, math.inf)):
        params = replace(params, delay_budget_s=float(delay_budget))
        edges = build_edge_weights([user], params, QUAD)
        feasible = edges.feasible[0, 0]
        assert feasible_power_interval([user], 0, params, QUAD)[2][0] == feasible
        decision = assignment._random_all(
            [np.random.default_rng(0)], [[user]], [edges], params, QUAD
        )[0]
        assert decision.selection[0] == feasible
        assert verify_allocation(decision, [user], params, QUAD) == []


class TestBaselines:
    def test_objective_is_the_wireless_error_sum(self):
        from fedwireless.config import load_config
        from fedwireless.harness import build_topology

        config = load_config(REFERENCE)
        topologies = [(build_topology(config, seed)[0], config.network, seed)
                      for seed in config.seeds]
        topologies.append((*binding_budget_topology(), 0))
        for users, params, seed in topologies:
            counts = [u.sample_count for u in users]
            for decision in every_algorithm(users, params, QUAD, seed):
                want = wireless_error_sum(decision.selection, decision.error_rate, counts)
                assert np.float64(decision.objective).view(np.int64) == \
                    np.float64(want).view(np.int64)

    def test_random_all_matches_pair_loop(self):
        users, params = binding_budget_topology()
        selected = assert_baseline_b_matches_pair_loop(users, params, QUAD, range(6))
        assert 0 < min(selected) and max(selected) < params.rb_count   # some pairs gated out

    def test_random_all_matches_pair_loop_monte_carlo(self):
        users, params = binding_budget_topology()
        mc = FadingExpectation(method="monte_carlo", node_or_sample_count=256, seed=7)
        assert sum(assert_baseline_b_matches_pair_loop(users, params, mc, range(3))) > 0

    def test_random_all_matches_pair_loop_more_rbs_than_users(self):
        users, params = table_topology(seed=5, n_users=5)
        assert len(users) < params.rb_count
        assert min(assert_baseline_b_matches_pair_loop(users, params, QUAD, range(4))) > 0

    def test_random_all_matches_pair_loop_all_infeasible(self):
        users, params = table_topology(seed=5)
        params = NetworkParams(uplink_interference_w=params.uplink_interference_w,
                               delay_budget_s=1e-6)
        assert assert_baseline_b_matches_pair_loop(users, params, QUAD, range(3)) == [0, 0, 0]

    def test_single_feasible_edge_selected_by_everyone(self):
        users = [user_at(150.0, samples=9)]
        params = NetworkParams(rb_count=1, uplink_interference_w=(1e-9,))
        edges = build_edge_weights(users, params, QUAD)
        assert hungarian_assign(edges).selection.tolist() == [1]
        assert baseline_min_sum_per(edges).selection.tolist() == [1]
        a = baseline_optselect_randomrb(np.random.default_rng(0), edges)
        assert a.selection.tolist() == [1]
        b = assignment._random_all([np.random.default_rng(0)], [users], [edges], params, QUAD)[0]
        assert b.selection.tolist() == [1]

    def test_all_infeasible_selects_nobody(self):
        users = [user_at(100.0), user_at(200.0)]
        params = NetworkParams(energy_budget_j=training_energy(users[0]) * 0.9)
        edges = build_edge_weights(users, params, QUAD)
        assert hungarian_assign(edges).selection.sum() == 0
        assert baseline_min_sum_per(edges).selection.sum() == 0
        a = baseline_optselect_randomrb(np.random.default_rng(1), edges)
        assert a.selection.sum() == 0
        b = assignment._random_all([np.random.default_rng(1)], [users], [edges], params, QUAD)[0]
        assert b.selection.sum() == 0

    def test_all_satisfy_allocation_invariants(self):
        for seed in range(6):
            users, params = table_topology(seed=seed)
            for decision in every_algorithm(users, params, QUAD, seed):
                assert verify_allocation(decision, users, params, QUAD) == []

    def test_proposed_dominates_every_baseline(self):
        for seed in range(20):
            users, params = table_topology(seed=100 + seed)
            proposed, *baselines = every_algorithm(users, params, QUAD, seed)
            for baseline in baselines:
                assert proposed.objective <= baseline.objective + 1e-12

    def test_seed42_golden_allocations(self):
        # First-run golden capture on the reference topology, seed 42.
        users, params = table_topology(seed=42)
        edges = build_edge_weights(users, params, QUAD)
        proposed = hungarian_assign(edges)
        rng = np.random.default_rng([42, 2])
        a = baseline_optselect_randomrb(rng, edges)
        b = assignment._random_all([rng], [users], [edges], params, QUAD)[0]
        c = baseline_min_sum_per(edges)
        golden = GOLDEN_SEED42
        assert proposed.selection.tolist() == golden["proposed_selection"]
        assert proposed.objective == pytest.approx(golden["proposed_objective"], rel=1e-12)
        assert a.selection.tolist() == golden["a_selection"]
        assert b.selection.tolist() == golden["b_selection"]
        assert c.selection.tolist() == golden["c_selection"]
        assert a.objective == pytest.approx(golden["a_objective"], rel=1e-12)
        assert b.objective == pytest.approx(golden["b_objective"], rel=1e-12)
        assert c.objective == pytest.approx(golden["c_objective"], rel=1e-12)



def scalar_verify_allocation(decision, users, params, fexp):
    """verify_allocation as a per-user loop of public scalar phy calls: the
    oracle of its one-cohort evaluation, for powers within [0, P_max]."""
    problems = []
    n_users, n_rbs = len(users), params.rb_count
    sel = np.asarray(decision.selection)
    rb = np.asarray(decision.rb_assignment)
    power = np.asarray(decision.power_w, dtype=float)
    if sel.shape != (n_users,):
        return [f"selection shape {sel.shape} != ({n_users},)"]
    if rb.shape != (n_users, n_rbs):
        return [f"rb_assignment shape {rb.shape} != ({n_users}, {n_rbs})"]
    if power.shape != (n_users,):
        return [f"power_w shape {power.shape} != ({n_users},)"]
    if not np.array_equal(rb.sum(axis=1), sel):
        problems.append("sum_n r[i,n] != a[i] for some user")
    if np.any(rb.sum(axis=0) > 1):
        problems.append("some RB assigned to more than one user")
    if not all(0 <= p <= params.max_user_power_w * (1 + 1e-12) for p in power.tolist()):
        problems.append("power outside [0, P_max]")
    for i in range(n_users):
        p = float(power[i])
        if not sel[i] or rb[i].sum() != 1 or not math.isfinite(p):
            continue
        n = int(np.argmax(rb[i]))
        if p <= 0:
            problems.append(f"user {i} selected with zero power")
            continue
        total_delay = uplink_delay(users[i], n, p, params, fexp) + downlink_delay(
            users[i], params, fexp
        )
        if not (np.isfinite(total_delay) and total_delay <= params.delay_budget_s * (1 + 1e-12)):
            problems.append(f"user {i} violates delay budget: {total_delay:.6g}")
        energy = user_energy(users[i], n, p, params, fexp)
        if not (np.isfinite(energy) and energy <= params.energy_budget_j + 1e-9):
            problems.append(f"user {i} violates energy budget: {energy:.6g}")
    return problems


class TestVerifyAllocation:
    def test_power_above_p_max_is_reported_not_raised(self):
        from fedwireless.config import load_config
        from fedwireless.harness import build_topology

        config = load_config(REFERENCE)
        params = config.network
        users, _ = build_topology(config, 7)
        decision = hungarian_assign(build_edge_weights(users, params, config.fading))
        decision.power_w[np.flatnonzero(decision.selection)[0]] = 2 * params.max_user_power_w
        assert "power outside [0, P_max]" in verify_allocation(
            decision, users, params, config.fading
        )

    def test_each_broken_structure_rule_is_reported(self):
        # A valid reference allocation broken one structure rule at a time.
        # The moved user lands on a lower-interference RB than its own, so
        # no gate fails besides. A user left without an RB, or with a NaN
        # power, is not gate-checked, not even on a blocked RB 0.
        from dataclasses import replace

        from fedwireless.config import load_config
        from fedwireless.harness import build_topology

        config = load_config(REFERENCE)
        params, fexp = config.network, config.fading
        users, _ = build_topology(config, config.seeds[0])
        valid = hungarian_assign(build_edge_weights(users, params, fexp))
        assert verify_allocation(valid, users, params, fexp) == []
        rb = valid.rb_assignment
        chosen = np.flatnonzero(valid.selection)
        by_rb = chosen[np.argsort(rb[chosen].argmax(axis=1))]
        no_rb, shared = rb.copy(), rb.copy()
        no_rb[by_rb[-1]] = 0
        shared[by_rb[-1]] = rb[by_rb[0]]
        blocked = replace(
            params, uplink_interference_w=(np.inf, *params.uplink_interference_w[1:])
        )
        users_7, _ = build_topology(config, 7)
        valid_7 = hungarian_assign(build_edge_weights(users_7, blocked, fexp))
        no_rb_7 = valid_7.rb_assignment.copy()
        no_rb_7[np.flatnonzero(valid_7.selection)[0]] = 0
        nan_power = valid.power_w.copy()
        nan_power[chosen[0]] = np.nan
        n_users, n_rbs = rb.shape
        for decision, topology, network, message in [
            (replace(valid, selection=valid.selection[:-1]), users, params,
             f"selection shape ({n_users - 1},) != ({n_users},)"),
            (replace(valid, rb_assignment=rb[:, :-1]), users, params,
             f"rb_assignment shape ({n_users}, {n_rbs - 1}) != ({n_users}, {n_rbs})"),
            (replace(valid, power_w=valid.power_w[:-1]), users, params,
             f"power_w shape ({n_users - 1},) != ({n_users},)"),
            (replace(valid, power_w=nan_power), users, params, "power outside [0, P_max]"),
            (replace(valid, rb_assignment=no_rb), users, params,
             "sum_n r[i,n] != a[i] for some user"),
            (replace(valid, rb_assignment=shared), users, params,
             "some RB assigned to more than one user"),
            (replace(valid_7, rb_assignment=no_rb_7), users_7, blocked,
             "sum_n r[i,n] != a[i] for some user"),
        ]:
            assert verify_allocation(decision, topology, network, fexp) == [message]
            assert scalar_verify_allocation(decision, topology, network, fexp) == [message]

    def test_blocked_rb_is_reported_under_infinite_budgets(self):
        # A user on an RB at infinite interference never delivers: its delay
        # and energy are inf, which violate even infinite budgets.
        users = [user_at(300.0), user_at(500.0)]
        params = NetworkParams(rb_count=2, uplink_interference_w=(1e-9, np.inf),
                               delay_budget_s=np.inf, energy_budget_j=np.inf)
        decision = AllocationDecision(
            selection=np.array([1, 1]), rb_assignment=np.eye(2, dtype=int),
            power_w=np.full(2, params.max_user_power_w), objective=0.0,
            error_rate=np.zeros(2), delay_s=np.zeros(2), energy_j=np.zeros(2),
        )
        problems = verify_allocation(decision, users, params, QUAD)
        assert problems == ["user 1 violates delay budget: inf",
                            "user 1 violates energy budget: inf"]
        assert problems == scalar_verify_allocation(decision, users, params, QUAD)

    @pytest.mark.parametrize("factor, violated", [
        (0.0, True), (0.3, True), (0.999, False), (1.00001, True),
    ])
    def test_perturbed_powers_match_scalar_oracle(self, factor, violated):
        from fedwireless.config import load_config
        from fedwireless.harness import build_topology

        config = load_config(REFERENCE)
        topologies = [(build_topology(config, seed)[0], config.network, seed)
                      for seed in config.seeds]
        topologies += [(*binding_budget_topology(), seed) for seed in range(4)]
        found = 0
        for users, params, seed in topologies:
            for decision in every_algorithm(users, params, QUAD, seed):
                decision.power_w[:] = np.minimum(
                    decision.power_w * factor, params.max_user_power_w
                )
                problems = verify_allocation(decision, users, params, QUAD)
                assert problems == scalar_verify_allocation(decision, users, params, QUAD)
                found += len(problems)
        assert found > 0 or not violated


GOLDEN_SEED42 = {
    "proposed_selection": [1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0],
    "proposed_objective": 6.883190159273236,
    "a_selection": [1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0],
    "a_objective": 7.988070428001853,
    "b_selection": [1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1],
    "b_objective": 37.26306914565862,
    "c_selection": [1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1],
    "c_objective": 18.90225684984582,
}
