"""Recurrence schedules, iteration bounds and sizing rules."""
import pytest
from hypothesis import given, settings, strategies as st

from gossipq.schedules import (
    SHRINK_HIGH,
    SHRINK_LOW,
    choose_buffer_size,
    compaction_error_bound,
    shift_bound,
    three_tournament_schedule,
    tournament_bound_steps,
    two_tournament_schedule,
)


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
