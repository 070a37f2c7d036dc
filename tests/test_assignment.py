"""Allocation tests: optimal power, edge gating, matching, baselines."""

import math
from pathlib import Path

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
    UserProfile,
    expected_uplink_rate,
    packet_error_rate,
    training_energy,
    uplink_delay,
    downlink_delay,
    user_energy,
)

from util import (
    PointMassFading,
    brute_force_assign,
    oracle_min_matching_sum,
    record_integrand_sizes,
    synthetic_edges,
    table_topology,
)

QUAD = FadingExpectation()
REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"


def user_at(distance, samples=12, **kwargs):
    return UserProfile(distance_m=distance, sample_count=samples, **kwargs)


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

    def test_batch_matches_scalar_reference(self):
        users, params = binding_budget_topology()
        for n in range(params.rb_count):
            p_lo, p_hi, feasible = feasible_power_interval(users, n, params, QUAD)
            for i, user in enumerate(users):
                slack = params.delay_budget_s - downlink_delay(user, params, QUAD)
                want_hi = reference_optimal_power(user, n, params, QUAD)
                want_lo = reference_min_power(
                    user, n, user.payload_bits / slack, want_hi, params, QUAD
                ) if want_hi > 0 and slack > 0 else 0.0
                assert (p_lo[i], feasible[i]) == (want_lo, want_lo > 0)
                assert p_hi[i] == (want_hi if want_lo > 0 else 0.0)

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
    """Reference for the lock-step search: one edge, the same rules."""
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
    """Oracle for ``assignment._bisect``: the same rules, but every edge is
    evaluated every round, with ``below_root(x)`` over all edges."""
    holds_lo, holds_hi = below_root(lo), below_root(hi)
    lo = np.where(holds_hi, hi, lo)
    hi = np.where(holds_lo, hi, lo)
    for _ in range(assignment._BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        moving = (mid != lo) & (mid != hi)
        if not moving.any():
            break
        up = below_root(mid)
        lo = np.where(moving & up, mid, lo)
        hi = np.where(moving & ~up, mid, hi)
    return lo, hi, holds_lo, holds_hi


def uncompacted(lo, hi, columns, measure):
    """``lockstep_bisect`` with the ``assignment._bisect`` calling
    convention; it evaluates every point, so it reads only the predicate of
    ``measure``."""
    return lockstep_bisect(lo, hi, lambda x: measure(x, *columns)[0])


def no_band(lo, hi, columns, measure):
    """A ``_certified_band`` that certifies nothing, so ``_bisect``
    evaluates every probe and mid."""
    return np.full(lo.size, -np.inf), np.full(lo.size, np.inf)


def predicate_only(below_root):
    """``below_root(x, *columns)`` as a ``_bisect`` measure with no excess,
    for searches whose ``_certified_band`` does not read it."""
    return lambda x, *columns: (below_root(x, *columns), None, None)


def bisection_edge(draw, places=("inside", "lo", "hi", "below", "above"), adjacent=False):
    """(lo, hi, root) of one edge; ``adjacent`` True forces hi = nextafter(lo)."""
    a = draw(st.floats(-1e6, 1e6))
    b = float(np.nextafter(a, np.inf)) if adjacent else draw(st.sampled_from([
        float(np.nextafter(a, np.inf)), a + 1e300, a + draw(st.floats(1e-9, 1e6)),
    ]))
    place = draw(st.sampled_from(places))
    r = {
        "inside": a + draw(st.floats(0.0, 1.0)) * (b - a), "lo": a, "hi": b,
        "below": a - draw(st.floats(0.0, 1e6)), "above": b + draw(st.floats(0.0, 1e6)),
    }[place]
    return a, b, r


@st.composite
def bisection_edges(draw):
    """(lo, hi, root) per edge: roots inside, on, below and above the
    bracket, already-adjacent brackets, and brackets so wide that the
    search stops at the iteration cap."""
    edges = [bisection_edge(draw) for _ in range(draw(st.integers(1, 10)))]
    return tuple(np.array(column, dtype=float) for column in zip(*edges))


@st.composite
def bisection_blocks(draw):
    """A list of (lo, hi, root) blocks: mixed blocks as in ``bisection_edges``,
    empty blocks, blocks whose roots all lie outside the bracket (all
    collapsed) and blocks of adjacent brackets (no edge moves)."""
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["mixed", "empty", "collapsed", "adjacent"]))
        size = 0 if kind == "empty" else draw(st.integers(1, 6))
        edges = [
            bisection_edge(draw, places=("below", "above")) if kind == "collapsed"
            else bisection_edge(draw, adjacent=kind == "adjacent")
            for _ in range(size)
        ]
        blocks.append(tuple(np.array([edge[k] for edge in edges], dtype=float) for k in range(3)))
    return blocks


def scramble(holds, x):
    """A predicate still pure in (edge, x), but not monotone."""
    return holds ^ (x.view(np.int64) & 1).astype(bool)


def moving_after_probes(lo, hi, holds_lo, holds_hi):
    """Edges whose mid still moves once the probes have collapsed the rest."""
    c_lo = np.where(holds_hi, hi, lo)
    c_hi = np.where(holds_lo, hi, c_lo)
    mid = 0.5 * (c_lo + c_hi)
    return (mid != c_lo) & (mid != c_hi)


class TestBisect:
    @settings(max_examples=200, deadline=None)
    @given(bisection_edges(), st.booleans(), st.sampled_from([200, 3]))
    def test_compacted_matches_lockstep_oracle(self, edges, scrambled, iters):
        lo, hi, root = edges
        ids = np.arange(lo.size)
        calls = []

        def below_root(x, root):
            holds = x < root
            return scramble(holds, x) if scrambled else holds

        def recorded(x, root, edge_ids):
            calls.append(edge_ids)
            return below_root(x, root)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(assignment, "_BISECT_ITERS", iters)
            patch.setattr(assignment, "_certified_band", no_band)
            want = lockstep_bisect(lo.copy(), hi.copy(), lambda x: below_root(x, root))
            got = assignment._bisect(
                lo.copy(), hi.copy(), (root, ids), predicate_only(recorded)
            )
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # After the two probes only edges whose mid still moves are evaluated:
        # never a collapsed or adjacent bracket.
        assert calls[0].tolist() == calls[1].tolist() == ids.tolist()
        assert len(calls) <= 2 + iters
        stopped = np.flatnonzero(~moving_after_probes(lo, hi, *want[2:]))
        for index in calls[2:]:
            assert index.size and not np.isin(index, stopped).any()

    @settings(max_examples=200, deadline=None)
    @given(bisection_blocks(), st.booleans(), st.sampled_from([200, 3]))
    def test_pooled_rounds_match_lockstep_oracle_per_block(self, blocks, scrambled, iters):
        # The blocks, concatenated into one flat cohort, must give each block
        # the bits of a lock-step search over that block alone.
        def below_root(x, root):
            holds = x < root
            return scramble(holds, x) if scrambled else holds

        lo, hi, root = (np.concatenate(parts) for parts in zip(*blocks))
        block_ids = np.concatenate([np.full(b[0].size, k) for k, b in enumerate(blocks)])
        edge_ids = np.concatenate([np.arange(b[0].size) for b in blocks])
        calls = []

        def recorded(x, root, block_ids, edge_ids):
            calls.append((x, list(zip(block_ids.tolist(), edge_ids.tolist()))))
            return below_root(x, root)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(assignment, "_BISECT_ITERS", iters)
            patch.setattr(assignment, "_certified_band", no_band)
            got = assignment._bisect(
                lo.copy(), hi.copy(), (root, block_ids, edge_ids), predicate_only(recorded)
            )
            want = [
                lockstep_bisect(b_lo.copy(), b_hi.copy(), lambda x, r=b_root: below_root(x, r))
                for b_lo, b_hi, b_root in blocks
            ]
        for k, want_block in enumerate(want):
            for a, b in zip(got, want_block):
                assert a.dtype == b.dtype and a[block_ids == k].tobytes() == b.tobytes()
        # Both probes see every edge, in block order; the first round takes
        # every edge whose bracket still moves after them.
        edges = list(zip(block_ids.tolist(), edge_ids.tolist()))
        assert calls[0][1] == calls[1][1] == edges
        holds_lo, holds_hi = got[2:]
        movers = moving_after_probes(lo, hi, holds_lo, holds_hi)
        if movers.any():
            assert calls[2][1] == [edges[i] for i in np.flatnonzero(movers)]
        # Replayed from the probes on, no round sees a stopped edge, and each
        # evaluates the mid of the edge's current bracket.
        m_lo = np.where(holds_hi, hi, lo)
        m_hi = np.where(holds_lo, hi, m_lo)
        for x, call in calls[2:]:
            index = np.array([edges.index(edge) for edge in call], dtype=int)
            assert index.size
            assert np.array_equal(x, 0.5 * (m_lo[index] + m_hi[index]))
            assert np.all((x != m_lo[index]) & (x != m_hi[index]))
            up = below_root(x, root[index])
            m_lo[index[up]], m_hi[index[~up]] = x[up], x[~up]
        assert m_lo.tobytes() == got[0].tobytes() and m_hi.tobytes() == got[1].tobytes()

    def test_wide_bracket_stops_at_the_iteration_cap(self, monkeypatch):
        calls = []

        def below_root(x):
            calls.append(x.size)
            return x < 1.0

        monkeypatch.setattr(assignment, "_certified_band", no_band)
        lo, hi, _, _ = assignment._bisect(
            np.array([0.0]), np.array([1e300]), (), predicate_only(below_root)
        )
        assert len(calls) == 2 + assignment._BISECT_ITERS and lo[0] < 1.0 < hi[0]

    @settings(max_examples=200, deadline=None)
    @given(bisection_edges(), st.data())
    def test_band_replays_the_search_evaluating_only_inside_it(self, edges, data):
        # A sound band (the predicate x < root holds at every x <= a and
        # fails at every x >= b) must leave every bit of the search as it
        # is, while no probe or mid outside (a, b) is evaluated.
        lo, hi, root = edges
        gaps = [data.draw(st.sampled_from([0.0, 1e-300, 1e-9, 1.0, np.inf])) for _ in lo]
        a = np.array([float(np.nextafter(r, -np.inf)) - g for r, g in zip(root, gaps)])
        b = np.array([r + data.draw(st.sampled_from([0.0, 1e-9, 1.0, np.inf])) for r in root])
        evaluated = []

        def below_root(x, root, a, b):
            evaluated.append((x, a, b))
            return x < root

        want = lockstep_bisect(lo.copy(), hi.copy(), lambda x: x < root)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(assignment, "_certified_band", lambda lo, hi, columns, *_: columns[1:])
            got = assignment._bisect(
                lo.copy(), hi.copy(), (root, a, b), predicate_only(below_root)
            )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        for x, a_x, b_x in evaluated:
            assert np.all((a_x < x) & (x < b_x))


def record_searches(monkeypatch, oracle=False):
    """Every ``assignment._bisect`` call from now on, as a growing list of
    (moving, certified) per-edge flags: the edges whose bracket still moves
    after the probes, and those whose certified band lies strictly inside
    (lo, hi), so that the bisection evaluates only the mids inside it.  With
    ``oracle``, each call's (lo, hi, holds_lo, holds_hi) must first equal
    the lock-step oracle's bit for bit."""
    searches, bands = [], []
    bisect, certify = assignment._bisect, assignment._certified_band

    def recorded_band(*args):
        bands.append(certify(*args))
        return bands[-1]

    def recorded(lo, hi, columns, measure):
        got = bisect(lo.copy(), hi.copy(), columns, measure)
        if oracle:
            want = uncompacted(lo.copy(), hi.copy(), columns, measure)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        (a, b), = bands
        bands.clear()
        searches.append((moving_after_probes(lo, hi, *got[2:]), (lo < a) & (b < hi)))
        return got

    monkeypatch.setattr(assignment, "_certified_band", recorded_band)
    monkeypatch.setattr(assignment, "_bisect", recorded)
    return searches


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
    """Run ``_bisect`` with the real ``_certified_band`` on synthetic
    excesses and check it: the bits must be the lock-step oracle's for the
    predicate x < root, and every probe or mid the search evaluates must lie
    strictly inside the edge's band (a, b).  Returns how many moving edges
    (certified to hold at lo and to fail at hi) met each safeguard of the
    root estimate: a chord whose slope is not finite, a secant point at the
    geometric mean of its sign bracket, and the pass cap."""
    lo, hi, root, shape, scale, rel, floor = edges
    calls, phase = [], ["search"]

    def measure(x, root, shape, scale, rel, floor, ids):
        value = synthetic_excess(x, root, shape, scale)
        with np.errstate(invalid="ignore"):
            eps = np.where(rel > 0, rel * np.abs(value), 0.0) + floor
        calls.append((phase[0], x, ids, value, eps))
        return x < root, value, eps

    certify, bands = assignment._certified_band, []

    def recorded_band(*args):
        phase[0] = "band"
        bands.append(certify(*args))
        phase[0] = "search"
        return bands[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assignment, "_certified_band", recorded_band)
        got = assignment._bisect(lo.copy(), hi.copy(),
                                 (root, shape, scale, rel, floor, np.arange(lo.size)), measure)
    want = lockstep_bisect(lo.copy(), hi.copy(), lambda x: x < root)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    (a, b), = bands
    for _, x, ids, _, _ in (call for call in calls if call[0] == "search"):
        assert np.all((a[ids] < x) & (x < b[ids]))
    # The band's calls: the hi probe, the lo probe, the secant passes and
    # the two band checks, in that order.
    band_calls = [call[1:] for call in calls if call[0] == "band"]
    points = [[] for _ in lo]
    for x, ids, value, eps in band_calls[:-2]:
        for i, x_i, value_i, eps_i in zip(ids, x, value, eps):
            points[i].append((x_i, value_i, eps_i))
    seen = {"chord slope not finite": 0, "geometric fallback": 0, "pass cap": 0}
    for (x_hi, value_hi, eps_hi), *rest in points:
        if not (rest and value_hi > 2 * eps_hi and rest[0][1] < -2 * rest[0][2]):
            continue
        (x_lo, value_lo, _), *secant = rest
        with np.errstate(invalid="ignore", over="ignore"):
            slope = (value_hi - value_lo) / (x_hi - x_lo)
        seen["chord slope not finite"] += not np.isfinite(slope)
        seen["pass cap"] += len(secant) == assignment._SECANT_PASSES
        below, above, fell_back = x_lo, x_hi, False
        for x_i, value_i, _ in secant:
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
        # The energy search and the delay search over every (user, RB) edge
        # must return the oracle's bits, and the certificate must carry
        # them: no moving edge falls back to evaluating every mid.
        users, params = topology()
        searches = record_searches(monkeypatch, oracle=True)
        edges = assignment._every_edge(phy._Users.of(users, params), params)
        assignment._power_interval(edges, params, fexp)
        assert len(searches) == 2
        assert all(np.all(certified[moving]) for moving, certified in searches)
        assert searches[0][0].any()

    @settings(max_examples=300, deadline=None)
    @given(synthetic_excess_edges())
    def test_band_on_synthetic_excesses_matches_lockstep_oracle(self, edges):
        # The real band on linear, convex, concave, steep and flat excesses:
        # the oracle's bits, and no evaluation outside the band.
        # ``--hypothesis-show-statistics`` reports how often each safeguard
        # of the root estimate was met.
        for kind, count in band_on_synthetic_excesses(edges).items():
            if count:
                event(kind)

    @pytest.mark.parametrize("kind, edge", [
        ("chord slope not finite", (1e-12, 1e3, 1e-3, "convex", 1e-2)),
        ("geometric fallback", (1e-12, 1e3, 1e-3, "concave", 1e-3)),
        ("pass cap", (1.0, 2.0, 1.5, "steep", 1e-6)),
    ])
    def test_band_on_synthetic_excesses_meets_each_safeguard(self, kind, edge):
        lo, hi, root, shape, scale = edge
        edges = tuple(np.array([v]) for v in (lo, hi, root, SHAPES.index(shape), scale, 0.0, 0.0))
        assert band_on_synthetic_excesses(edges)[kind] == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(20.0, 1500.0), st.floats(0.5, 2.0), st.floats(1e3, 1e5),
        st.floats(1e-9, 1e-7), st.floats(1e-6, 1.0), st.integers(-2, 2), st.floats(1.001, 10.0),
    )
    @example(900.0, 1.0, 5e4, 1e-9, 0.25, 0, 2.0)
    def test_roots_on_the_budget_match_lockstep_oracle(
        self, distance, fading_scale, payload, interference, fraction, shift, delay_factor
    ):
        # The energy budget is the energy at a drawn power exactly, or a few
        # floats off it; the delay budget puts the delay root inside the
        # bracket.  Both searches must still return the oracle's bits.
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
            edges = phy._Users.of([user] * 4, params).on(np.arange(4), params)
            assignment._power_interval(edges, params, QUAD)
        assert len(searches) == 2

    def test_certificate_halves_the_edge_build_evaluations(self, monkeypatch):
        # A band that never certifies keeps every bit and loses the whole
        # gain, so count what the edge build's search evaluates: no moving
        # edge may fall back, and the fading-expectation edge evaluations
        # (probes, secant passes, band checks, mids inside the band) stay
        # under 22 per moving edge beyond the probes; they read 20.4 here.
        # The search without the band takes about 54 per moving edge.
        users, params = contested_topology(1)
        edges = assignment._every_edge(phy._Users.of(users, params), params)
        searches = record_searches(monkeypatch)
        sizes = record_integrand_sizes(monkeypatch)
        assignment._optimal_powers(edges, params, QUAD)
        (moving, certified), = searches
        assert np.count_nonzero(moving) > 1000 and np.all(certified[moving])
        evaluations = sum(sizes) // QUAD.node_or_sample_count
        assert evaluations <= 2 * moving.size + 22 * np.count_nonzero(moving)

    @pytest.mark.parametrize("budgets", [
        "energy_budget_j = 0.0022\n",
        "energy_budget_j = inf\n",
        "energy_budget_j = inf\ndelay_budget_s = inf\n",
    ], ids=["finite_budgets", "energy_budget_inf", "both_budgets_inf"])
    def test_blocked_rb_is_never_selected_nor_feeds_nan(self, budgets, monkeypatch):
        # One RB at infinite interference is legal and blocks that RB: its
        # edges are infeasible even where no budget binds (an infinite
        # energy fits no budget), no algorithm selects it, and no NaN
        # reaches the certificate.
        from fedwireless import harness
        from fedwireless.config import loads_config

        config = loads_config(
            "[network]\nrb_count = 4\n" + budgets +
            "uplink_interference_w = 1e-9 inf 1e-8 1e-7\n"
            "[users]\ncount = 8\ncell_radius_m = 1000.0\n"
            "[training]\nrounds = 2\n[experiment]\nseeds = 1 2 3\n"
        )
        certify = assignment._certified_band

        def finite(function):
            def checked(x, *columns):
                values = function(x, *columns)
                assert not any(np.isnan(v).any() for v in (x, *values))
                return values
            return checked

        def checked_band(lo, hi, columns, measure):
            a, b = certify(lo, hi, columns, finite(measure))
            assert not (np.isnan(a).any() or np.isnan(b).any())
            return a, b

        monkeypatch.setattr(assignment, "_certified_band", checked_band)
        records = harness.run_experiment(config)
        assert {r.algorithm for r in records} == set(config.algorithms)
        assert all(1 not in r.rb_index for r in records)
        assert any(r.rb_index.count(-1) < len(r.rb_index) for r in records)
        users, _ = harness.build_topology(config, 1)
        edges = build_edge_weights(users, config.network, QUAD)
        assert not edges.feasible[:, 1].any() and edges.feasible[:, [0, 2, 3]].any()


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
    public scalar calls at the recorded power."""
    users, params = binding_budget_topology()
    edges = build_edge_weights(users, params, fexp)
    p_max = params.max_user_power_w
    assert np.any(edges.feasible & (edges.power_w < p_max))     # bisected edges
    assert np.any(~edges.feasible) and edges.feasible[3].all()
    for i, user in enumerate(users):
        down = downlink_delay(user, params, fexp)
        for n in range(params.rb_count):
            p = optimal_power(user, n, params, fexp)
            assert p == reference_optimal_power(user, n, params, fexp)
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
    """The edge build as one cohort per RB column, searched by the lock-step
    oracle: the reference for the flat (user, RB) edge build."""
    cohort = phy._Users.of(users, params)
    down = phy._delay(cohort.payload_bits, phy._downlink_rate(cohort, params, fexp))
    counts = np.array([u.sample_count for u in users], dtype=float)
    shape = (len(users), params.rb_count)
    feasible = np.zeros(shape, dtype=bool)
    weights, power, error, delay, energy = (np.empty(shape) for _ in range(5))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assignment, "_bisect", uncompacted)
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
    with pytest.MonkeyPatch.context() as patch:       # one edge per call, oracle search
        patch.setattr(assignment, "_bisect", uncompacted)
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
        solve = assignment._solve_matching

        def capture(weights):
            solved.append(weights.copy())
            return solve(weights)

        monkeypatch.setattr(assignment, "_solve_matching", capture)
        config = load_config(REFERENCE)
        for seed in config.seeds:
            users, _ = build_topology(config, seed)
            edges = build_edge_weights(users, config.network, config.fading)
            hungarian_assign(edges)
            baseline_min_sum_per(edges)
            # The worst-case error sum solves the same (U, R) shape.
            bounds.worst_case_error_sum(users, config.network, config.fading)
        assert [w.shape for w in solved] == [(15, 12)] * 3 * len(config.seeds)
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
    search and, where feasible, one uniform power draw per chosen pair."""
    k = min(len(users), params.rb_count)
    chosen_users = rng.permutation(len(users))[:k]
    chosen_rbs = rng.permutation(params.rb_count)[:k]
    rows = []
    for i, n in zip(chosen_users.tolist(), chosen_rbs.tolist()):
        user = users[i]
        down = downlink_delay(user, params, fexp)
        slack = params.delay_budget_s - down
        p_hi = reference_optimal_power(user, n, params, fexp)
        p_lo = reference_min_power(
            user, n, user.payload_bits / slack, p_hi, params, fexp
        ) if p_hi > 0 and slack > 0 else 0.0
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
        decision = assignment._random_all([rng], [users], params, fexp)[0]
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
        assignment._random_all([rng], [users], params, fexp)[0],
        baseline_min_sum_per(edges),
    ]


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
        b = assignment._random_all([np.random.default_rng(0)], [users], params, QUAD)[0]
        assert b.selection.tolist() == [1]

    def test_all_infeasible_selects_nobody(self):
        users = [user_at(100.0), user_at(200.0)]
        params = NetworkParams(energy_budget_j=training_energy(users[0]) * 0.9)
        edges = build_edge_weights(users, params, QUAD)
        assert hungarian_assign(edges).selection.sum() == 0
        assert baseline_min_sum_per(edges).selection.sum() == 0
        a = baseline_optselect_randomrb(np.random.default_rng(1), edges)
        assert a.selection.sum() == 0
        b = assignment._random_all([np.random.default_rng(1)], [users], params, QUAD)[0]
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
        b = assignment._random_all([rng], [users], params, QUAD)[0]
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
    if rb.shape != (n_users, n_rbs):
        return [f"rb_assignment shape {rb.shape} != ({n_users}, {n_rbs})"]
    if not np.array_equal(rb.sum(axis=1), sel):
        problems.append("sum_n r[i,n] != a[i] for some user")
    if np.any(rb.sum(axis=0) > 1):
        problems.append("some RB assigned to more than one user")
    if np.any(decision.power_w < 0) or np.any(
        decision.power_w > params.max_user_power_w * (1 + 1e-12)
    ):
        problems.append("power outside [0, P_max]")
    for i in range(n_users):
        if not sel[i]:
            continue
        n = int(np.argmax(rb[i]))
        p = float(decision.power_w[i])
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
