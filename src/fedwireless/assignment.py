"""Joint user selection, resource-block assignment, and transmit power.

The proposed allocator computes a per-edge optimal power (largest power that
respects the energy budget, as the edge of a certified band around the
root), gates each (user, RB) edge on the delay and energy budgets, and
solves a min-weight bipartite matching on the (user, RB) rectangle with a
shortest-augmenting-path potentials solver, in which leaving a user
unassigned costs 0; the solver's final potentials certify the matching
optimal.  Three reference baselines are included for comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import phy

__all__ = [
    "EdgeWeightMatrix",
    "AllocationDecision",
    "optimal_power",
    "feasible_power_interval",
    "build_edge_weights",
    "hungarian_assign",
    "baseline_optselect_randomrb",
    "baseline_min_sum_per",
    "verify_allocation",
    "wireless_error_sum",
]

# Secant passes per edge before every other point bisects the sign bracket.
_SECANT_PASSES = 8
_UNIT_ROUNDOFF = 2.0 ** -53


def _certified_band(lo, hi, columns, measure):
    """The certified band around each edge's root in [lo, hi] of a
    predicate that holds below the root and fails above it, and whose exact
    excess is increasing in x: the power searches' one search and answer.

    ``columns`` is a tuple of per-edge arrays, or None for a column that
    ``measure`` does not read and no probe gathers, and ``measure(x,
    *columns)`` returns (holds, excess, eps) at points ``x`` of the edges
    they describe:
    the predicate, its computed excess (quantity minus limit) and a bound
    eps on the excess's rounding error.  A point x is certified where the
    excess clears 0 by 2 eps.  Below -2 eps, the exact excess is below -eps
    at x and so, plus the error bound at x' <= x, below 0: the predicate
    holds at every x' <= x.  Above 2 eps, it fails at every x' >= x in the
    same way.  Both steps need the exact excess -+ eps to be increasing,
    which holds because eps is a small multiple of the quantity's
    increasing parts.

    Every edge is probed at hi, and at lo where hi is not certified to hold
    (lo then holds too).  Edges where the predicate holds at lo and fails
    at hi estimate their root from measured excesses alone: the chord
    through the two probes, then secant steps through the last two points,
    each point certified as it is measured, until the step is within
    4 eps / |slope|; the estimate r = x - step is then checked at
    r(1 -+ rho), with rho*r = 2*(|step| + 4 eps / |slope|), on each side
    that lies inside (lo, hi).  The band (a, b) is the largest point
    certified to hold and the smallest certified to fail, at most about
    32 eps / |slope| wide: as narrow as the excess's rounding allows, up
    to a small factor.  Where b - a < a, a moves down and b up to
    multiples of g, the largest power of two <= b - a: they stay certified
    and positive, lie within 2(b - a) of any root in the band, and do not
    follow the last bits of r, which move with every ulp of the measured
    excess.  A wider band, which only an excess hidden by its rounding
    bound near the root forms, answers its raw edges.

    Returns (a, b, holds_lo, holds_hi): the band clipped to [lo, hi] and
    the predicate at the probes.  An edge whose probes do not bracket the
    root collapses onto the probe that decides it, a = b = hi where the
    predicate holds at hi and a = b = lo where it fails at lo; an edge with
    no point certified on one side answers that side's probe.  So the
    searches pass every edge, and it decides the out-of-range ones.
    """
    a, b = np.full(lo.size, -np.inf), np.full(lo.size, np.inf)

    def certify(x, index):
        holds, value, eps = measure(x, *(None if column is None else column[index]
                                         for column in columns))
        sure_hold, sure_fail = value < -2.0 * eps, value > 2.0 * eps
        a[index[sure_hold]] = np.maximum(a[index[sure_hold]], x[sure_hold])
        b[index[sure_fail]] = np.minimum(b[index[sure_fail]], x[sure_fail])
        return holds, value, eps

    every = np.arange(lo.size)
    holds_hi, value_hi, _ = certify(hi, every)
    unsure = every[a < hi]
    holds_lo, value_lo, eps_lo = np.ones(lo.size, dtype=bool), np.empty(lo.size), np.empty(lo.size)
    holds_lo[unsure], value_lo[unsure], eps_lo[unsure] = certify(lo[unsure], unsure)
    moving = np.flatnonzero(holds_lo & ~holds_hi)
    # The first estimate is the chord through the probes and the second
    # pairs it with lo, which evaluated less than hi in the delay search.
    # A step that leaves the sign bracket [below, above] (or is not finite)
    # takes its geometric mean instead, and so does every other point after
    # _SECANT_PASSES passes: a secant creeping along an excess far from
    # linear (a rate over decades of power) still closes in.  An edge also
    # stops once its next point cannot narrow the bracket: the point is not
    # inside it (adjacent floats), or the last excess was NaN.
    x_prev, value_prev = hi[moving], value_hi[moving]
    x, value, eps = lo[moving], value_lo[moving], eps_lo[moving]
    below, above = lo[moving], hi[moving]
    root, half = np.empty(moving.size), np.empty(moving.size)
    active = np.arange(moving.size)
    for passes in itertools.count():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = (value[active] - value_prev[active]) / (x[active] - x_prev[active])
            step, noise = value[active] / slope, 4.0 * eps[active] / np.abs(slope)
            guess = x[active] - step
            half[active] = 2.0 * (np.abs(step) + noise)
        done = np.abs(step) <= noise
        secant = done | (passes < _SECANT_PASSES or passes % 2 == 1)
        inside = secant & (below[active] < guess) & (guess < above[active])
        root[active] = np.where(inside, guess, np.sqrt(below[active] * above[active]))
        narrows = (below[active] < root[active]) & (root[active] < above[active])
        active = active[~done & narrows & ~np.isnan(value[active])]
        if not active.size:
            break
        x_prev[active], value_prev[active] = x[active], value[active]
        x[active] = root[active]
        _, value[active], eps[active] = certify(x[active], moving[active])
        below[active] = np.where(value[active] < 0, x[active], below[active])
        above[active] = np.where(value[active] > 0, x[active], above[active])
    # A side that reaches past the probes (or is not finite) adds nothing.
    for side in (root - half, root + half):
        inside = (lo[moving] < side) & (side < hi[moving])
        certify(side[inside], moving[inside])
    width = b - a
    snap = (0 < width) & (width < a)
    # frexp writes b - a as m 2**k with 0.5 <= m < 1, so g = 2**(k - 1), and
    # a / g and b / g are exact.
    grid = np.ldexp(1.0, np.frexp(width[snap])[1] - 1)
    a[snap], b[snap] = np.floor(a[snap] / grid) * grid, np.ceil(b[snap] / grid) * grid
    a = np.where(holds_hi, hi, np.maximum(a, lo))
    b = np.where(holds_lo, np.minimum(b, hi), lo)
    return a, b, holds_lo, holds_hi


def _energy_error(energy, training_j, fexp):
    """Bound eps on the rounding error of a computed energy tj + T, per
    edge, with T its transmit part.  With u = 2**-53 and n fading nodes,
    the expected rate is off by at most (n + 8) u of itself: 2 roundings
    in P g / N and 1 in snr * o, which move log1p by at most their own
    relative size; 1.5 ulp (3 u) in ``log1p``, whose float64 accuracy data
    in numpy (``umath-validation-set-log1p.csv``) allows 1 ulp from the
    rounded result; 1 in / ln 2 and 1 in the product with the weight (the
    stored float, rounded 1/n under Monte Carlo); n - 1 in the sum of n
    positive terms; and 1 in the bandwidth.  The delay's and the transmit
    energy's products and quotients add 2, so T is off by (n + 10) u of
    itself, and tj + adds u of the sum: eps = u (E + (n + 10) T), first
    order, doubled to cover the second-order terms and the margin test's
    own roundings.
    """
    transmit = energy - training_j
    nodes = fexp.node_or_sample_count
    return 2.0 * _UNIT_ROUNDOFF * (energy + (nodes + 10) * transmit)


def _rate_error(rate, fexp):
    """Bound eps on the rounding error of a computed expected rate, per
    edge: (n + 8) u of the rate, doubled (see ``_energy_error``)."""
    return 2.0 * _UNIT_ROUNDOFF * (fexp.node_or_sample_count + 8) * rate


def _optimal_powers(cohort, params, fexp):
    """optimal_power over every edge of a placed ``phy._Users`` cohort, as
    one ``_certified_band`` whose lower edge a is the answer; 0 marks an
    edge with no feasible power.

    The band, given every edge, estimates each root by secant steps on the
    measured energy excess and certifies it with the ``_energy_error`` bound
    eps = 2u(E + (n + 10)T): an edge whose training energy dominates gets a
    band about as narrow as its transmit energy allows, and one whose
    training energy spends the budget fails at lo and answers 0.
    """
    budget, p_max = params.energy_budget_j, params.max_user_power_w
    n = cohort.training_j.size

    def measure(power, *columns):
        edges = phy._Users(*columns)
        rate = phy._uplink_rate(edges, power, params, fexp)
        energy = phy._energy(edges, power, phy._delay(edges.payload_bits, rate))
        # An infinite energy (a blocked RB) fits no budget, not even an
        # infinite one, and its excess is inf, not inf - inf.
        finite = energy < np.inf
        return ((energy <= budget) & finite, energy - np.where(finite, budget, 0.0),
                _energy_error(energy, edges.training_j, fexp))

    lo, _, fits_lo, fits_hi = _certified_band(
        np.full(n, p_max * 1e-12), np.full(n, p_max), cohort._replace(downlink_s=None), measure
    )
    # Where transmit energy per bit does not vanish with P, not even lo fits.
    return np.where(fits_lo | fits_hi, lo, 0.0)


def optimal_power(user, rb_index, params, fexp) -> float:
    """Largest transmit power on one RB that respects the energy budget.

    Returns the device power cap or, if that violates the energy budget, a
    power just below the one at which the per-round energy meets the budget
    exactly: the lower edge a of the search's certified band (a, b) around
    that root, where the energy provably fits, within 2(b - a) of the root
    (see ``_certified_band``).  Returns 0.0 when even a vanishing transmit
    power (or training alone) exceeds the budget.
    """
    cohort = phy._Users.of([user], params, fexp).on(rb_index, params)
    return float(_optimal_powers(cohort, params, fexp)[0])


def feasible_power_interval(users, rb_index, params, fexp):
    """Per-user power interval [P_lo, P_hi] where both the delay and energy
    gates hold, on one RB or with user i on ``rb_index[i]``.

    Returns (p_lo, p_hi, feasible) arrays over ``users``: the edge build's
    ``_gate`` on these pairs alone, and each pair's ``_delay_floor`` under
    its power; where the gate fails the power cap is 0, and so is the floor.
    """
    pairs = phy._Users.of(users, params, fexp).on(rb_index, params)
    feasible, p_hi, *_ = _gate(pairs, params, fexp)
    return _delay_floor(pairs, p_hi, params, fexp), p_hi, feasible


def _delay_floor(cohort, p_hi, params, fexp):
    """Least power meeting the delay budget, less the cohort's downlink
    delay, on each edge of a placed ``phy._Users`` cohort with power cap
    ``p_hi``: the upper edge b of a ``_certified_band`` on [p_hi 1e-15,
    p_hi] on the rate excess, with the ``_rate_error`` bound eps.  Where the
    gate passed, it measured the delay at p_hi within budget, so an edge
    whose rate there still reads short by rounding answers p_hi; where it
    failed, p_hi is 0, the band collapses onto [0, 0] and the answer is 0.
    """
    slack = params.delay_budget_s - cohort.downlink_s
    target = np.divide(cohort.payload_bits, slack, out=np.full_like(slack, np.inf),
                       where=slack > 0)

    def measure(power, target, *columns):
        rate = phy._uplink_rate(phy._Users(*columns), power, params, fexp)
        return rate < target, rate - target, _rate_error(rate, fexp)

    # A zero payload has target rate 0, which the bottom of the range reaches.
    link = cohort._replace(payload_bits=None, training_j=None, downlink_s=None)
    return _certified_band(p_hi * 1e-15, p_hi, (target, *link), measure)[1]


def _every_edge(users, params):
    """Every (user, RB) edge of the unplaced ``users``, user-major, as one
    placed cohort: edge i * R + n is user i on RB n."""
    n_users, n_rbs = users.gain.size, params.rb_count
    rows = np.repeat(np.arange(n_users), n_rbs)
    return users.take(rows).on(np.tile(np.arange(n_rbs), n_users), params)


@dataclass
class EdgeWeightMatrix:
    """Per-edge quantities for all (user, RB) pairs at the optimal power, and the
    users' cohort: edges (rows, rbs) are ``users.take(rows).on(rbs, params)``."""

    weights: np.ndarray          # (U, R) samples*(error-1); 0 on gated-out edges (error 1)
    feasible: np.ndarray         # (U, R) bool
    power_w: np.ndarray          # (U, R) optimal power per edge
    error_rate: np.ndarray       # (U, R) packet error rate at the optimal power
    delay_s: np.ndarray          # (U, R) uplink + downlink delay at the optimal power
    energy_j: np.ndarray         # (U, R) energy at the optimal power
    sample_counts: np.ndarray    # (U,)
    users: phy._Users            # (U,) unplaced cohort the edges were built from


def _link(users, power, params, fexp):
    """(error rate, uplink + downlink delay, energy) of each edge of a
    ``phy._Users`` cohort at ``power``."""
    up = phy._delay(users.payload_bits, phy._uplink_rate(users, power, params, fexp))
    return (phy._error_rate(users, power, params, fexp), up + users.downlink_s,
            phy._energy(users, power, up))


def _gate(cohort, params, fexp):
    """(feasible, power, error rate, delay, energy) of each edge of a placed
    ``phy._Users`` cohort at its optimal power, gated on both budgets: a gated-out
    edge reads power 0, error rate 1 (weight exactly +0.0), delay and energy inf."""
    p = _optimal_powers(cohort, params, fexp)
    q, total_delay, e = _link(cohort, p, params, fexp)
    ok = (p > 0) & (total_delay <= params.delay_budget_s) & (e <= params.energy_budget_j)
    return (ok, np.where(ok, p, 0.0), np.where(ok, q, 1.0),
            np.where(ok, total_delay, np.inf), np.where(ok, e, np.inf))


def build_edge_weights(users, params, fexp) -> EdgeWeightMatrix:
    """Evaluate optimal power, gates, and weight for every (user, RB) edge.

    The one-topology form of ``_edge_weights``.
    """
    return _edge_weights([users], params, fexp)[0]


def _edge_weights(user_lists, params, fexp):
    """build_edge_weights over many topologies, one EdgeWeightMatrix each.

    The one place that builds a user cohort from ``UserProfile`` lists: one
    ``phy._Users`` cohort of every topology's users (one downlink delay each)
    whose ``_every_edge`` goes through one ``_gate``; the (users, RBs)
    results and the cohort's rows are split per topology.
    ``phy.FadingExpectation.expect`` bounds the temporaries of each call.
    """
    users = [user for user_list in user_lists for user in user_list]
    cohort = phy._Users.of(users, params, fexp)
    ok, p, q, total_delay, e = (values.reshape(len(users), params.rb_count)
                                for values in _gate(_every_edge(cohort, params), params, fexp))
    sample_counts = np.array([u.sample_count for u in users], dtype=float)
    # EdgeWeightMatrix's fields in order, before users.
    fields = (sample_counts[:, None] * (q - 1.0), ok, p, q, total_delay, e, sample_counts)
    bounds = np.cumsum([0, *map(len, user_lists)])
    return [EdgeWeightMatrix(*(values[part] for values in fields), cohort.take(part))
            for part in map(slice, bounds[:-1], bounds[1:])]


@dataclass
class AllocationDecision:
    """A full allocation: selection, RB matrix, powers, and per-user link stats.

    The objective is ``wireless_error_sum(selection, error_rate,
    sample_counts)``, the error sum the convergence bound grows with.
    """

    selection: np.ndarray        # (U,) 0/1
    rb_assignment: np.ndarray    # (U, R) 0/1
    power_w: np.ndarray          # (U,)
    objective: float
    error_rate: np.ndarray       # (U,) per-user packet error rate (0 if unselected)
    delay_s: np.ndarray          # (U,) uplink + downlink delay (0 if unselected)
    energy_j: np.ndarray         # (U,) per-round energy (0 if unselected)
    solver_iterations: int = 0


def wireless_error_sum(selection, error_rates, sample_counts) -> float:
    """Data-weighted expected loss of local models: the sum over users of
    sample_count * (1 - selected + selected * error_rate).  Unselected users
    count as always lost."""
    a = np.asarray(selection, dtype=float)
    q = np.asarray(error_rates, dtype=float)
    k = np.asarray(sample_counts, dtype=float)
    return float(np.sum(k * (1.0 - a + a * q)))


def _finalize_decision(sample_counts, n_rbs, rows, rbs, stats, solver_iterations=0):
    """Assemble an AllocationDecision: user ``rows[j]`` on RB ``rbs[j]``, with
    ``stats`` the (power, error rate, delay, energy) arrays over j."""
    n_users = len(sample_counts)
    selection = np.zeros(n_users, dtype=int)
    selection[rows] = 1
    rb_assignment = np.zeros((n_users, n_rbs), dtype=int)
    rb_assignment[rows, rbs] = 1
    power, error, delay, energy = (np.zeros(n_users) for _ in range(4))
    for per_user, values in zip((power, error, delay, energy), stats):
        per_user[rows] = values
    return AllocationDecision(
        selection=selection,
        rb_assignment=rb_assignment,
        power_w=power,
        objective=wireless_error_sum(selection, error, sample_counts),
        error_rate=error,
        delay_s=delay,
        energy_j=energy,
        solver_iterations=solver_iterations,
    )


def _decide_on_edges(edges, match, solver_iterations):
    """AllocationDecision for the (rows, rbs) edges of an EdgeWeightMatrix."""
    rows, rbs = match
    stats = (edges.power_w, edges.error_rate, edges.delay_s, edges.energy_j)
    return _finalize_decision(
        edges.sample_counts, edges.weights.shape[1], rows, rbs,
        [values[rows, rbs] for values in stats], solver_iterations,
    )


def _hungarian_square(cost: np.ndarray):
    """Min-cost matching of a (U, R) ``cost`` in which any row may stay
    unassigned at cost 0: the shortest-augmenting-path potentials method
    (Jonker & Volgenant 1987; Crouse 2016) on the U x (R+U) problem in
    which row i also owns a zero-cost dummy column that only it reaches.

    The dummies are implicit.  Reaching one ends an insertion, so none is
    settled and its potential stays 0; a row left on its dummy is never
    reached again.  Rows go in one at a time, in the order the caller gave,
    from a virtual start column; a settle of row i0, reached through column
    j0, is a fixed sequence of operations:

    1. ``cur = (cost[i0] - u[i0]) - v`` over the R real columns, in that
       order, with +inf on the settled columns;
    2. ``minv`` and ``way`` updated where ``cur < minv`` (strict);
    3. the dummy of i0, ``-u[i0]``, kept as the best dummy if strictly lower;
    4. ``j1 = argmin(minv)``, the first minimal column, and ``delta`` its
       ``minv``, unless the best dummy is at or below it (a tie ends the
       insertion);
    5. ``delta`` added to ``u`` of the settled rows and subtracted from
       ``v`` of the settled columns, from ``minv`` and from the best dummy.

    Step 5 updates settle-order copies of ``u`` and ``v``, written back
    once the row is in (nothing reads them before); each takes one addition
    per settle, never a deferred sum (an ulp can flip a tie).  An insertion
    settles the start and each column at most once: at most U * (R + 1)
    settles per solve.  ``bench/layers.py`` looks this name and
    ``_solve_matching`` up with ``getattr``.  Returns (col_of_row,
    iterations, u, v): each row's column (-1: unassigned), the settle
    count, and the final row and column potentials, the LP dual
    certificate that ``_certificate_violation`` checks.
    """
    n_rows, n_cols = cost.shape
    u, v, minv = np.zeros(n_rows), np.zeros(n_cols), np.zeros(n_cols)
    way = np.zeros(n_cols, dtype=np.intp)          # -1 is the virtual start column
    # In settle order: settled_rows[k] was reached through settled_cols[k - 1].
    settled_rows, settled_u = np.zeros(n_cols + 1, dtype=np.intp), np.zeros(n_cols + 1)
    settled_cols, settled_v = np.zeros(n_cols, dtype=np.intp), np.zeros(n_cols)
    col_of_row, row_of_col = [-1] * n_rows, [-1] * n_cols
    iterations = 0
    for i in range(n_rows):
        minv.fill(np.inf)
        i0, j0, k = i, -1, 0
        exit_value, exit_row = np.inf, -1          # best dummy candidate and its row
        while True:
            ui0 = u[i0]
            settled_rows[k], settled_u[k] = i0, ui0
            cur = (cost[i0] - ui0) - v
            cur[settled_cols[:k]] = np.inf
            better = cur < minv
            np.copyto(minv, cur, where=better)
            np.copyto(way, j0, where=better)
            if -ui0 < exit_value:
                exit_value, exit_row = -ui0, i0
            j1 = int(minv.argmin())
            delta = minv[j1]
            if exit_value <= delta:
                j1, delta = -1, exit_value
            settled_u[:k + 1] += delta
            settled_v[:k] -= delta
            minv -= delta
            exit_value -= delta
            k += 1
            if j1 < 0 or row_of_col[j1] < 0:
                break
            settled_cols[k - 1], settled_v[k - 1] = j1, v[j1]
            minv[j1] = np.inf
            j0, i0 = j1, row_of_col[j1]
        u[settled_rows[:k]] = settled_u[:k]
        v[settled_cols[:k - 1]] = settled_v[:k - 1]
        iterations += k
        if j1 < 0:                                 # exit_row gives up its column
            j1, col_of_row[exit_row] = col_of_row[exit_row], -1
        while j1 >= 0:
            j0 = int(way[j1])
            row = i if j0 < 0 else row_of_col[j0]
            row_of_col[j1], col_of_row[row] = row, j1
            j1 = j0
    return np.array(col_of_row, dtype=np.intp), iterations, u, v


def _certificate_violation(cost, col_of_row, u, v):
    """The largest violation of the LP dual certificate (u, v) that
    ``_hungarian_square`` returns with its matching ``col_of_row`` of
    ``cost``, in units of 2**-53 (U + R) max|cost|; the solver's rounding
    reads under 1.

    The dual of min sum cost * x over x >= 0 with row and column sums <= 1
    is max sum u + sum v with u_i + v_j <= cost_ij, u <= 0 and v <= 0
    (Burkard, Dell'Amico & Martello, *Assignment Problems*, 2009, ch. 4).
    The matching is optimal when every reduced cost cost - u - v is >= 0,
    u <= 0 (each row's zero-cost dummy column) and v <= 0, matched edges
    are tight, and u = 0 on unassigned rows and v = 0 on unmatched columns.
    """
    rows = np.flatnonzero(col_of_row >= 0)
    reduced = (cost - u[:, None]) - v
    worst = max(np.max(part, initial=0.0) for part in (
        -reduced, u, v, np.abs(reduced[rows, col_of_row[rows]]),
        np.abs(u[col_of_row < 0]), np.abs(np.delete(v, col_of_row[rows])),
    ))
    return worst / (sum(cost.shape) * _UNIT_ROUNDOFF * np.abs(cost).max()) if worst else 0.0


def _candidate_rows(weight_matrix):
    """The rows among some column's R lowest weights (ties to the lower row),
    strongest first: by lowest weight, ties in row order, to save settles."""
    keep = np.zeros(len(weight_matrix), dtype=bool)
    keep[np.argsort(weight_matrix, axis=0, kind="stable")[:weight_matrix.shape[1]]] = True
    rows = np.flatnonzero(keep)
    return rows[np.argsort(weight_matrix[rows].min(axis=1), kind="stable")]


def _solve_matching(weight_matrix):
    """Min-weight matching of a (U, R) matrix in which leaving a user
    unassigned costs 0, solved on its ``_candidate_rows`` (all when U <= R).

    No dropped row is needed: were column j on one, a free row among j's R
    lower kept ones (R - 1 other columns) takes j at no higher cost.

    Returns ((rows, rbs), iterations): the matched negative-weight edges, back
    in row order for ``bounds.worst_case_error_sum``'s sum, and the settle count.
    """
    keep = _candidate_rows(weight_matrix)
    col_of_row, iterations, _, _ = _hungarian_square(weight_matrix[keep])
    rows = np.flatnonzero(col_of_row >= 0)
    rows = rows[weight_matrix[keep[rows], col_of_row[rows]] < 0.0]
    rows = rows[np.argsort(keep[rows], kind="stable")]
    return (keep[rows], col_of_row[rows]), iterations


def hungarian_assign(edges: EdgeWeightMatrix) -> AllocationDecision:
    """Globally optimal allocation: min-weight matching over feasible edges.

    Leaving a user unassigned is always available at cost 0.  Users matched
    through a weight-0 edge (infeasible, or error-certain) are reported
    unselected; the objective is unchanged by that convention.
    """
    match, iterations = _solve_matching(edges.weights)
    return _decide_on_edges(edges, match, iterations)


def _random_all(rngs, edge_sets, params, fexp):
    """Baseline b for many seeds, each with its generator, and its users and
    edge build: uniformly random user selection, RB matching, and powers.

    Every seed draws its two permutations first and takes the drawn pairs
    that its edge build's gate passed from the build's user cohort.  One
    ``_delay_floor`` covers all seeds' pairs as one cohort, each seed draws
    its powers from its own generator, uniformly between each pair's floor
    and its edge build power, and one ``_link`` call evaluates them all.
    """
    n_rbs = params.rb_count
    chosen, cohorts = [], []
    for rng, edges in zip(rngs, edge_sets):
        n_users = edges.sample_counts.size
        k = min(n_users, n_rbs)
        rows, rbs = rng.permutation(n_users)[:k], rng.permutation(n_rbs)[:k]
        kept = edges.feasible[rows, rbs]
        rows, rbs = rows[kept], rbs[kept]
        chosen.append((rows, rbs, edges.power_w[rows, rbs]))
        cohorts.append(edges.users.take(rows).on(rbs, params))
    stops = np.cumsum([rows.size for rows, *_ in chosen])[:-1]
    pairs = phy._Users(*map(np.concatenate, zip(*cohorts)))
    p_hi = np.concatenate([caps for *_, caps in chosen])
    p_lo = _delay_floor(pairs, p_hi, params, fexp)
    # One draw per kept pair, in pair order: each seed's stream of per-pair draws.
    power = np.concatenate([rng.uniform(*bounds) for rng, bounds in
                            zip(rngs, np.split(np.stack([p_lo, p_hi]), stops, axis=1))])
    stats = np.split(np.stack([power, *_link(pairs, power, params, fexp)]), stops, axis=1)
    return [
        _finalize_decision(edges.sample_counts, n_rbs, rows, rbs, seed_stats)
        for edges, (rows, rbs, _), seed_stats in zip(edge_sets, chosen, stats)
    ]


def baseline_optselect_randomrb(rng, edges) -> AllocationDecision:
    """Baseline a: random RB order, optimal powers, greedy selection by data size.

    Users ranked by descending sample count take RBs in the random order;
    users beyond the RB supply, or whose assigned edge is infeasible at its
    optimal power, stay unselected.
    """
    rb_order = rng.permutation(edges.weights.shape[1])
    rows = np.argsort(-edges.sample_counts, kind="stable")[:rb_order.size]
    rbs = rb_order[:rows.size]
    ok = edges.feasible[rows, rbs]
    return _decide_on_edges(edges, (rows[ok], rbs[ok]), 0)


def baseline_min_sum_per(edges) -> AllocationDecision:
    """Baseline c: minimize the unweighted sum of packet error rates.

    Identical machinery to the proposed allocator but with edge weights
    (error_rate - 1) instead of sample_count * (error_rate - 1): agnostic
    to how much data each user holds.  Unselected users count as an error
    rate of 1, as a gated-out edge reads in the edge build: its weight is 0.
    """
    match, iterations = _solve_matching(edges.error_rate - 1.0)
    return _decide_on_edges(edges, match, iterations)


# Absolute slack of verify_allocation's energy gate (joules).
_ENERGY_SLACK_J = 1e-9


def verify_allocation(decision, users, params, fexp):
    """Re-evaluate every constraint of an allocation; returns violation strings.

    Checks the one-RB-per-user and one-user-per-RB structure, the power box
    constraint, and the delay/energy gates recomputed from the PHY model at
    the recorded powers, for the selected users that hold exactly one RB
    as one cohort on those RBs.  An empty list means the allocation is
    valid.
    """
    problems = []
    n_users, n_rbs = len(users), params.rb_count
    sel = np.asarray(decision.selection)
    rb = np.asarray(decision.rb_assignment)
    power = np.asarray(decision.power_w, dtype=float)
    for name, values, shape in (("selection", sel, (n_users,)),
                                ("rb_assignment", rb, (n_users, n_rbs)),
                                ("power_w", power, (n_users,))):
        if values.shape != shape:
            return [f"{name} shape {values.shape} != {shape}"]
    held = rb.sum(axis=1)
    if not np.array_equal(held, sel):
        problems.append("sum_n r[i,n] != a[i] for some user")
    if np.any(rb.sum(axis=0) > 1):
        problems.append("some RB assigned to more than one user")
    if not np.all((0 <= power) & (power <= params.max_user_power_w * (1 + 1e-12))):
        problems.append("power outside [0, P_max]")
    # A selected user without exactly one RB, or with a non-finite power,
    # has nothing to gate-check; the messages above report it.
    rows = np.flatnonzero((sel != 0) & (held == 1) & np.isfinite(power))
    cohort = phy._Users.of([users[i] for i in rows], params, fexp)
    # A power <= 0 is reported as such; at 0 the kernel stays in its domain.
    _, delay, energy = _link(cohort.on(rb[rows].argmax(axis=1), params),
                             np.maximum(power[rows], 0.0), params, fexp)
    for i, p, total_delay, e in zip(*(v.tolist() for v in (rows, power[rows], delay, energy))):
        if p <= 0:
            problems.append(f"user {i} selected with zero power")
            continue
        # An infinite delay or energy (a blocked RB) violates even an infinite budget.
        if not (math.isfinite(total_delay) and total_delay <= params.delay_budget_s * (1 + 1e-12)):
            problems.append(f"user {i} violates delay budget: {total_delay:.6g}")
        if not (math.isfinite(e) and e <= params.energy_budget_j + _ENERGY_SLACK_J):
            problems.append(f"user {i} violates energy budget: {e:.6g}")
    return problems
