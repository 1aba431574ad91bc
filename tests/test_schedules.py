"""Recurrence schedules, iteration bounds and sizing rules."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gossipq.schedules import (
    SHRINK_HIGH,
    SHRINK_LOW,
    bad_fraction_trace,
    binomial_below,
    choose_buffer_size,
    compaction_error_bound,
    shift_bound,
    three_tournament_schedule,
    tournament_bound_steps,
    two_tournament_schedule,
)
from gossipq.tournament import clamped_rank, tournament_plan


class TestTwoTournamentSchedule:
    def test_worked_example(self):
        s = two_tournament_schedule(0.25, 0.125)
        assert s.h == (0.625, 0.390625, 0.152587890625)
        assert s.t == 2
        assert s.delta[0] == 1.0
        assert s.delta[1] == pytest.approx(0.015625 / 0.238037109375, abs=1e-15)
        assert s.direction == SHRINK_HIGH

    def test_all_but_last_delta_is_one(self):
        s = two_tournament_schedule(0.05, 0.01)
        assert all(d == 1.0 for d in s.delta[:-1])
        assert 0.0 < s.delta[-1] <= 1.0

    def test_symmetric_direction(self):
        s = two_tournament_schedule(0.8, 0.1)
        assert s.direction == SHRINK_LOW
        assert s.h[0] == pytest.approx(0.7)  # l0 = phi - eps

    def test_central_phi_needs_no_iterations(self):
        s = two_tournament_schedule(0.5, 0.1)
        assert s.t == 0 and s.delta == ()

    def test_squaring_invariant(self):
        s = two_tournament_schedule(0.1, 0.05)
        for a, b in zip(s.h, s.h[1:]):
            assert b == a * a
        assert s.h[-1] <= s.threshold
        assert all(x > s.threshold for x in s.h[:-1])

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            two_tournament_schedule(0.5, 0.2)
        with pytest.raises(ValueError):
            two_tournament_schedule(0.5, 0.0)
        with pytest.raises(ValueError):
            two_tournament_schedule(1.5, 0.1)

    def test_bound_dominates_for_worked_case(self):
        # closed-form bound at eps = 1/8 is about 8.19; observed t is 2
        assert shift_bound(0.125) == pytest.approx(8.193, abs=0.01)
        assert two_tournament_schedule(0.25, 0.125).t <= shift_bound(0.125)


class TestThreeTournamentSchedule:
    def test_recurrence_values(self):
        s = three_tournament_schedule(0.125, 10**6)
        assert s.l[0] == 0.375
        assert s.l[1] == pytest.approx(0.31640625, abs=1e-12)
        assert s.l[2] == pytest.approx(0.2369861, abs=1e-7)

    def test_iteration_count_at_million(self):
        s = three_tournament_schedule(0.125, 10**6)
        assert s.t == 5
        assert s.threshold == pytest.approx(0.01)

    def test_termination_structure(self):
        s = three_tournament_schedule(0.02, 4096)
        assert s.l[-1] <= s.threshold
        assert all(x > s.threshold for x in s.l[:-1])

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            three_tournament_schedule(0.5, 100)
        with pytest.raises(ValueError):
            three_tournament_schedule(0.1, 1)


class TestRecurrenceFixedPoints:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.001, 0.499))
    def test_cubic_strictly_decreases_below_half(self, p):
        assert 3 * p * p - 2 * p ** 3 < p

    def test_fixed_points(self):
        for p in (0.0, 0.5, 1.0):
            assert 3 * p * p - 2 * p ** 3 == pytest.approx(p)
        for h in (0.0, 1.0):
            assert h * h == h


class TestBoundDominance:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.004, 0.125),
        st.floats(0.0, 1.0),
        st.integers(16, 10**7),
    )
    def test_schedules_stay_under_bounds(self, eps, phi, n):
        # the phase-2 check uses the per-stage-ceiling form: the displayed
        # real-valued bound drops the integer-iteration ceilings and falls
        # short of t by a fraction of a step on whole parameter regions
        assert two_tournament_schedule(phi, eps).t <= shift_bound(eps)
        assert three_tournament_schedule(eps, n).t <= tournament_bound_steps(eps, n)


def _plan(phi, eps, n, k, mu):
    # as the tournaments size themselves
    return tournament_plan(clamped_rank(phi * n, n), eps, n, k, mu)


def _sizes(plan):
    return plan.batch1, plan.batch2, plan.sample_batch


def _scipy_phase(mu, b, batch, need, deltas):
    """The bad-fraction recursion of one phase over scipy's binomial."""
    trace = []
    for delta in deltas:
        q = (1 - mu) * (1 - b)
        b = (delta * stats.binom.cdf(need - 1, batch, q)
             + (1 - delta) * stats.binom.cdf(need - 2, batch, q))
        trace.append(b)
    return trace


def _scan_sizes(mu, sched1, sched2, k, n):
    """The least batch sizes by a plain upward scan over scipy's binomial:
    bad fraction at most 1/32 after every phase-I and phase-II iteration,
    at most one node short of k good pulls in the K-sample on average."""
    sizes, b = [], 0.0
    for need, deltas in ((2, sched1.delta), (3, (1.0,) * sched2.t)):
        batch = need
        while max(_scipy_phase(mu, b, batch, need, deltas), default=0.0) > 1 / 32:
            batch += 1
        sizes.append(batch)
        b = ([b] + _scipy_phase(mu, b, batch, need, deltas))[-1]
    sample = k
    while stats.binom.cdf(k - 1, sample, (1 - mu) * (1 - b)) > 1 / n:
        sample += 1
    return (*sizes, sample)


class TestPullBatchSizes:
    CASES = [(0.5, 0.05, 100_000), (0.1, 0.05, 100_000), (0.3, 0.02, 1024), (0.9, 0.1, 4096)]

    @pytest.mark.parametrize("phi, eps, n", CASES)
    @pytest.mark.parametrize("k", [1, 5, 31])
    def test_plain_sizes_at_mu_zero(self, phi, eps, n, k):
        assert _sizes(_plan(phi, eps, n, k, 0.0)) == (2, 3, k)

    @pytest.mark.parametrize("phi, eps, n", CASES)
    @pytest.mark.parametrize("mu", [0.01, 0.1, 0.2, 0.5, 0.75])
    def test_least_sizes_against_a_scan(self, phi, eps, n, mu):
        plan = _plan(phi, eps, n, 31, mu)
        assert _sizes(plan) == _scan_sizes(mu, plan.sched1, plan.sched2, 31, n)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("batch1, batch2", [(1, 2), (2, 3), (4, 12)])
    def test_bad_fraction_trace_matches_scipy(self, mu, batch1, batch2):
        # batches below the pulls a step needs drive every node bad and
        # hold it there, so the trace also runs through repeated fractions
        plan = _plan(0.1, 0.05, 100_000, 31, mu)
        first = _scipy_phase(mu, 0.0, batch1, 2, plan.sched1.delta)
        second = _scipy_phase(mu, first[-1], batch2, 3, (1.0,) * plan.sched2.t)
        trace = bad_fraction_trace(mu, plan.sched1, plan.sched2, batch1, batch2)
        assert np.allclose(trace, first + second, rtol=1e-9, atol=1e-12)

    def test_worked_sizes(self):
        # n = 1e5, eps 0.05, mu 0.5: phase II 12 rounds (not 11), K-sample 107
        plan = _plan(0.5, 0.05, 100_000, 31, 0.5)
        assert _sizes(plan) == (2, 12, 107)
        trace = bad_fraction_trace(0.5, plan.sched1, plan.sched2, 2, 12)
        assert len(trace) == plan.sched2.t and max(trace) <= 1 / 32
        assert max(bad_fraction_trace(0.5, plan.sched1, plan.sched2, 2, 11)) > 1 / 32

    @pytest.mark.parametrize("phi, eps, n", CASES)
    @pytest.mark.parametrize("k", [5, 31])
    def test_sizes_and_rounds_never_fall_as_mu_grows(self, phi, eps, n, k):
        # the phase batches and the tournament's rounds never fall; the
        # K-sample batch alone may dip by a few rounds where the phase-II
        # batch steps up, since a longer batch ends phase II with fewer bad
        # nodes, but it never falls below k
        last = _plan(phi, eps, n, k, 0.0)
        for mu in np.arange(1, 91) / 100:
            plan = _plan(phi, eps, n, k, float(mu))
            assert plan.batch1 >= last.batch1 and plan.batch2 >= last.batch2
            assert plan.sample_batch >= k and plan.rounds >= last.rounds
            last = plan

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 300), st.floats(0.0, 1.0), st.integers(0, 40))
    def test_binomial_below_matches_scipy(self, batch, q, need):
        expected = stats.binom.cdf([[need - 2], [need - 1]], np.arange(batch + 1), q)
        assert np.allclose(binomial_below(q, need, batch), expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("need, batch", [(1, 6), (2, 9), (3, 40), (31, 107)])
    def test_binomial_below_takes_one_q_per_m(self, need, batch):
        # the bad-fraction searches pass one q per batch size, edges included
        q = np.random.default_rng(need).choice([0.0, 1.0, 0.2, 0.55, 0.9], size=batch + 1)
        m = np.arange(batch + 1)
        expected = stats.binom.cdf([[need - 2], [need - 1]], m, q)
        assert np.allclose(binomial_below(q, need, batch), expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("q", [0.01, 0.3, 0.97])
    @pytest.mark.parametrize("need, batch", [(1, 4), (3, 12), (31, 107), (501, 1100)])
    def test_binomial_below_matches_scipy_at_large_need(self, q, need, batch):
        expected = stats.binom.cdf([[need - 2], [need - 1]], np.arange(batch + 1), q)
        assert np.allclose(binomial_below(q, need, batch), expected, rtol=1e-9, atol=1e-12)


class TestCompactionErrorBound:
    def test_values(self):
        assert compaction_error_bound(1024, 64) == 32
        assert compaction_error_bound(4096, 64) == 192
        assert compaction_error_bound(64, 64) == 0

    def test_rejects_non_powers_of_two(self):
        with pytest.raises(ValueError):
            compaction_error_bound(1000, 64)
        with pytest.raises(ValueError):
            compaction_error_bound(1024, 48)
        with pytest.raises(ValueError):
            compaction_error_bound(32, 64)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 6))
    def test_nonnegative_zero_iff_equal(self, a, b):
        n_prime = 2 ** (a + b)
        k = 2 ** b
        bound = compaction_error_bound(n_prime, k)
        assert bound >= 0
        assert (bound == 0) == (n_prime == k)


class TestChooseBufferSize:
    def test_examples(self):
        assert choose_buffer_size(1.0, 16) == 8
        assert choose_buffer_size(0.1, 2 ** 32) == 512

    def test_power_of_two_and_floor(self):
        for eps in (0.9, 0.5, 0.11):
            k = choose_buffer_size(eps, 1024)
            assert k >= 2 and (k & (k - 1)) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 1.0), st.integers(4, 10**8))
    def test_monotone_in_accuracy(self, eps, n):
        assert choose_buffer_size(eps / 2, n) >= choose_buffer_size(eps, n)
