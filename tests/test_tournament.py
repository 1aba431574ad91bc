"""Tournament protocols: pure steps, iterations, full runs, robust mode."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from gossipq import engine as engine_module, harness, tournament
from gossipq.engine import BudgetExceededError, FailureModel, RoundEngine, SimConfig
from gossipq.exact import exact_quantile
from gossipq.schedules import (
    SHRINK_HIGH,
    SHRINK_LOW,
    bad_fraction_trace,
    binomial_below,
)
from gossipq.tournament import (
    adoption_rounds,
    approx_quantile,
    clamped_rank,
    final_median_sample,
    phase1_iteration,
    phase1_step,
    phase2_iteration,
    phase2_step,
    quantile_cuts,
    lmh_counts,
    robust_approx_quantile,
    robust_final_median_sample,
    robust_phase1_iteration,
    robust_phase2_iteration,
    robust_pull_batch,
    target_rank,
    tournament_plan,
)


class TestSteps:
    def test_two_pull_min(self):
        out = phase1_step(np.array([3]), np.array([7]), SHRINK_HIGH)
        assert out[0] == 3

    def test_two_pull_max(self):
        out = phase1_step(np.array([3]), np.array([7]), SHRINK_LOW)
        assert out[0] == 7

    def test_copy_branch_uses_first_pull(self):
        out = phase1_step(
            np.array([5, 5]), np.array([1, 1]), SHRINK_HIGH,
            do_tournament=np.array([False, True]),
        )
        assert list(out) == [5, 1]

    def test_median_of_three(self):
        out = phase2_step(np.array([1]), np.array([5]), np.array([3]))
        assert out[0] == 3

    def test_median_all_orders(self):
        import itertools
        for a, b, c in itertools.permutations([2, 9, 4]):
            assert phase2_step(np.array([a]), np.array([b]), np.array([c]))[0] == 4

    def test_shared_value_is_fixed_point(self):
        v = np.full(5, 42)
        assert (phase2_step(v, v, v) == 42).all()


INT64_MAX = 2**63 - 1


def _triples(elements):
    return st.lists(st.tuples(elements, elements, elements), min_size=1, max_size=16)


class TestMedianOfThreeExact:
    """phase2_step against the middle row of the sorted three pulls."""

    @staticmethod
    def _check(triples, dtype):
        a, b, c = (np.array(col, dtype=dtype) for col in zip(*triples))
        expected = np.sort(np.stack([a, b, c]), axis=0)[1]
        got = phase2_step(a, b, c)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @settings(max_examples=200, deadline=None)
    @given(_triples(st.one_of(
        st.integers(-INT64_MAX, INT64_MAX),
        st.integers(2**53 - 2, 2**53 + 2),
        st.sampled_from([INT64_MAX, -INT64_MAX, INT64_MAX - 1, 2**62]),
    )))
    @example([(INT64_MAX, INT64_MAX, -INT64_MAX)])
    @example([(INT64_MAX, 2**53 + 1, 2**53)])
    @example([(-INT64_MAX, -INT64_MAX + 1, INT64_MAX)])
    def test_int64_extremes(self, triples):
        self._check(triples, np.int64)

    @settings(max_examples=200, deadline=None)
    @given(_triples(st.floats(allow_nan=False, allow_infinity=False)))
    @example([(1e16, 1.0, -1e16)])  # the sum 1e16 + 1 + -1e16 rounds to 0
    @example([(1.7976931348623157e308, 1.0, 1.7976931348623157e308)])
    def test_finite_floats(self, triples):
        self._check(triples, np.float64)


class TestIterations:
    def test_delta_zero_copies_one_peer(self):
        # with delta=0 every node copies its first pull; expectation of any
        # region count is preserved, and only pulled values appear
        engine = RoundEngine(SimConfig(n=2000, seed=3))
        ids = engine.values_rng().permutation(2000)
        new = phase1_iteration(ids, 0.0, SHRINK_HIGH, engine)
        assert set(new) <= set(ids)
        assert engine.rounds == 2  # the copy branch still costs two rounds

    def test_phase1_one_step_expectation(self):
        # E[|H'|/n] = (|H|/n)^2 under delta=1; single seed at 4 sigma
        n = 100_000
        engine = RoundEngine(SimConfig(n=n, seed=17))
        ids = engine.values_rng().permutation(n)
        _, hi = quantile_cuts(n, 0.15, 0.35)
        p = (n - hi) / n
        new = phase1_iteration(ids, 1.0, SHRINK_HIGH, engine)
        h1 = np.count_nonzero(new >= hi) / n
        sigma = math.sqrt(p * p * (1 - p * p) / n)
        assert abs(h1 - p * p) < 4 * sigma

    def test_phase2_one_step_expectation(self):
        n = 100_000
        engine = RoundEngine(SimConfig(n=n, seed=23))
        ids = engine.values_rng().permutation(n)
        cut = int(0.3 * n)
        q = cut / n
        new = phase2_iteration(ids, engine)
        l1 = np.count_nonzero(new < cut) / n
        expect = 3 * q * q - 2 * q ** 3
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(l1 - expect) < 4 * sigma
        assert engine.rounds == 3

    def test_copy_only_values(self):
        engine = RoundEngine(SimConfig(n=500, seed=5))
        ids = engine.values_rng().permutation(500)
        vals = ids
        for delta in (1.0, 1.0, 0.4):
            vals = phase1_iteration(vals, delta, SHRINK_HIGH, engine)
        for _ in range(3):
            vals = phase2_iteration(vals, engine)
        assert set(vals) <= set(ids)


class TestFinalSample:
    def test_k_one_returns_single_pull(self):
        engine = RoundEngine(SimConfig(n=50, seed=2))
        ids = engine.values_rng().permutation(50)
        out = final_median_sample(ids, 1, engine)
        assert set(out) <= set(ids)
        assert engine.rounds == 1

    def test_all_equal_state(self):
        engine = RoundEngine(SimConfig(n=20, seed=2))
        out = final_median_sample(np.full(20, 9), 5, engine)
        assert (out == 9).all()

    def test_even_k_rounds_up_to_odd(self):
        engine = RoundEngine(SimConfig(n=30, seed=4))
        final_median_sample(np.arange(30), 30, engine)
        assert engine.rounds == 31

    def test_concentrated_state_outputs_stay_in_middle(self):
        # post-amplification state: at most 2 n^(-2/3) mass on each side
        n = 100_000
        margin = int(2 * n ** (1 / 3))  # 2 n^(-2/3) * n nodes
        for seed in range(5):
            engine = RoundEngine(SimConfig(n=n, seed=seed))
            perm = engine.values_rng().permutation(n)
            state = np.clip(perm, margin, n - 1 - margin)
            out = final_median_sample(state, 30, engine)
            assert out.min() >= margin and out.max() <= n - 1 - margin


class TestApproxQuantile:
    def test_single_node(self):
        rep = approx_quantile(0.7, 0.05, SimConfig(n=1, seed=1), values=np.array([3.5]))
        assert rep.outputs[0] == 3.5
        assert rep.rounds == 0

    def test_single_node_under_failures(self):
        # the lone node answers itself before any batch, so no adoption runs
        failure = FailureModel(mode="uniform", mu=0.5, seed=1)
        rep = robust_approx_quantile(0.7, 0.05, 4, SimConfig(n=1, seed=1, failure=failure),
                                     values=np.array([3.5]))
        assert rep.outputs[0] == 3.5 and list(rep.output_ranks) == [1]
        assert rep.rounds == rep.messages == 0

    def test_outputs_within_window(self):
        n = 20_000
        for phi in (0.1, 0.5, 0.9):
            rep = approx_quantile(phi, 0.05, SimConfig(n=n, seed=11))
            lo = (phi - 0.05) * n
            hi = (phi + 0.05) * n
            assert rep.output_ranks.min() >= lo
            assert rep.output_ranks.max() <= hi

    def test_round_accounting(self):
        rep = approx_quantile(0.5, 0.05, SimConfig(n=5000, seed=3))
        plan = tournament.tournament_plan(
            rep.details["target_rank"], 0.05, 5000, tournament.K_SAMPLE, 0.0
        )
        # K_SAMPLE = 30 rounds up to 31 pulls
        expected = 2 * plan.sched1.t + 3 * plan.sched2.t + 31
        assert rep.rounds == expected
        assert rep.messages == expected * 5000

    def test_deterministic(self):
        cfg = SimConfig(n=3000, seed=21)
        a = approx_quantile(0.4, 0.06, cfg)
        b = approx_quantile(0.4, 0.06, cfg)
        assert np.array_equal(a.outputs, b.outputs)
        assert a.rounds == b.rounds and a.messages == b.messages

    def test_outputs_are_initial_values(self):
        values = np.random.default_rng(5).normal(size=2000)
        rep = approx_quantile(0.5, 0.08, SimConfig(n=2000, seed=8), values=values)
        assert set(rep.outputs) <= set(values)

    def test_target_rank_covers_the_unit_interval(self):
        assert [target_rank(phi, 10) for phi in (0.0, 0.3, 0.31, 1.0)] == [1, 3, 4, 10]
        assert target_rank(0.07, 100) == 7  # 0.07 * 100 lands a rounding error above 7

    @pytest.mark.parametrize("phi", [-0.5, 1.5, math.nan])
    def test_phi_outside_unit_interval_raises(self, phi):
        # clamping would turn the request into the minimum's or the maximum's
        config = SimConfig(n=64, seed=1)
        for run in (lambda: target_rank(phi, 64),
                    lambda: approx_quantile(phi, 0.1, config),
                    lambda: robust_approx_quantile(phi, 0.1, 3, config),
                    lambda: exact_quantile(phi, config)):
            with pytest.raises(ValueError, match="phi"):
                run()

    def test_negative_t_extra_raises(self):
        # the harness gate n / 2**t_extra would then exceed n
        with pytest.raises(ValueError, match="t_extra"):
            robust_approx_quantile(0.5, 0.1, -1, SimConfig(n=64, seed=1))


class TestPhaseOneComposition:
    def test_median_neighbourhood_lands_in_target_band(self):
        # quantiles within 1/2 +- eps/4 of the phase-I end state must be
        # values whose initial quantile lies in [phi - eps, phi + eps]
        from gossipq.schedules import two_tournament_schedule
        n, phi, eps = 20_000, 0.25, 0.1
        sched = two_tournament_schedule(phi, eps)
        lo_cut, hi_start = quantile_cuts(n, phi - eps, phi + eps)
        hits = 0
        for seed in range(100):
            engine = RoundEngine(SimConfig(n=n, seed=seed))
            vals = engine.values_rng().permutation(n)
            for delta in sched.delta:
                vals = phase1_iteration(vals, delta, sched.direction, engine)
            state = np.sort(vals)
            ok = True
            for q in (0.5 - eps / 4, 0.5, 0.5 + eps / 4):
                member = state[min(n - 1, max(0, math.ceil(q * n) - 1))]
                ok &= lo_cut <= member < hi_start
            hits += int(ok)
        assert hits >= 95


class TestRobust:
    def test_mu_zero_identical_to_plain(self):
        cfg = SimConfig(n=5000, seed=13)
        plain = approx_quantile(0.3, 0.05, cfg)
        robust = robust_approx_quantile(0.3, 0.05, 10, cfg)
        assert np.array_equal(plain.outputs, robust.outputs)
        assert plain.rounds == robust.rounds
        assert plain.messages == robust.messages

    def test_active_failures_take_the_good_pull_path(self):
        # the failure model alone picks the path: under failures the plain
        # entry point is the robust protocol without adoption, draw for draw
        cfg = SimConfig(n=2000, seed=1, failure=FailureModel("uniform", 0.5))
        plain = approx_quantile(0.3, 0.05, cfg)
        robust = robust_approx_quantile(0.3, 0.05, 0, cfg)
        assert np.array_equal(plain.outputs, robust.outputs, equal_nan=True)
        assert np.array_equal(plain.output_ranks, robust.output_ranks)
        assert plain.rounds == robust.rounds
        assert plain.messages == robust.messages

    def test_pull_batch_all_good_fills_every_node(self):
        # all nodes good, no failures: every pull is good, so each node
        # uses the pulls it needs and its picks are uniform over all values
        engine = RoundEngine(SimConfig(n=200, seed=7))
        ids = engine.values_rng().permutation(200)
        good = np.ones(200, dtype=bool)
        picked, used, _ = robust_pull_batch(ids, good, 2, 5, engine)
        assert (used == 2).all()
        assert np.isin(picked, ids).all()
        assert (engine.rounds, engine.messages) == (5, 5 * 200)

    def test_pull_batch_needs_a_round(self):
        engine = RoundEngine(SimConfig(n=10, seed=1))
        with pytest.raises(ValueError):
            robust_pull_batch(np.arange(10), np.ones(10, dtype=bool), 2, 0, engine)
        assert engine.rounds == 0

    def test_bad_peers_are_never_pulled(self):
        engine = RoundEngine(SimConfig(n=300, seed=19))
        ids = np.arange(300)
        good = ids < 150  # only low ids are good
        picked, used, _ = robust_pull_batch(ids, good, 3, 12, engine)
        assert (picked[:, used > 0] < 150).all()
        medians, used, _ = robust_pull_batch(ids, good, 5, 12, engine, median=True)
        assert (medians[used > 0] < 150).all()

    def test_expected_bad_fraction_below_044(self):
        # mu=0.5 with half the population good: per-iteration bad
        # probability must stay below the 0.44 bound
        n = 20_000
        config = SimConfig(
            n=n, seed=3, failure=FailureModel(mode="uniform", mu=0.5)
        )
        engine = RoundEngine(config)
        ids = engine.values_rng().permutation(n)
        good = np.zeros(n, dtype=bool)
        good[: n // 2] = True
        batch = tournament_plan(n // 10, 0.05, n, 31, 0.5).batch1
        _, new_good = robust_phase1_iteration(ids, good, 1.0, SHRINK_HIGH, batch, engine)
        assert np.count_nonzero(~new_good) / n <= 0.44

    def test_good_count_stays_above_third(self):
        # mu=0.5 full runs: good nodes remain a constant fraction at every
        # iteration (reduced scale; the acceptance suite runs n=1e5)
        n = 10_000
        for seed in range(30):
            config = SimConfig(
                n=n, seed=seed, failure=FailureModel(mode="uniform", mu=0.5)
            )
            rep = robust_approx_quantile(0.5, 0.05, 10, config)
            assert min(rep.details["good_trace"]) >= n / 3
            assert rep.details["missing_before_adoption"] <= 2 * n / 3

    def test_bad_fraction_recursion_matches_good_trace(self):
        # every iteration's bad share within 4 standard errors of the
        # recursion the batch sizes are derived from (phi 0.1 runs three
        # phase-I iterations, the last with coins, then phase II)
        n, mu, phi, eps = 100_000, 0.5, 0.1, 0.05
        plan = tournament_plan(clamped_rank(phi * n, n), eps, n, 31, mu)
        assert plan.sched1.t == 3 and plan.sched1.delta[-1] < 1.0
        expected = np.array(
            bad_fraction_trace(mu, plan.sched1, plan.sched2, plan.batch1, plan.batch2)
        )
        limit = 4 * np.sqrt(expected * (1 - expected) / n)
        for seed in (1, 2):
            config = SimConfig(n=n, seed=seed, failure=FailureModel("uniform", mu, seed))
            rep = robust_approx_quantile(phi, eps, 0, config)
            bad = 1 - np.array(rep.details["good_trace"]) / n
            assert bad.shape == expected.shape
            assert (np.abs(bad - expected) <= limit).all()

    def test_adoption_fills_in_answers(self):
        engine = RoundEngine(SimConfig(n=1000, seed=5))
        outputs = np.arange(1000)
        has = np.ones(1000, dtype=bool)
        has[::4] = False
        out, has_after = adoption_rounds(outputs, has, 10, engine)
        assert has_after.all()
        assert (out[~has] >= 0).all()

    def test_adoption_skips_rounds_when_complete(self):
        engine = RoundEngine(SimConfig(n=100, seed=5))
        outputs = np.arange(100)
        adoption_rounds(outputs, np.ones(100, dtype=bool), 10, engine)
        assert engine.rounds == 0

    def test_robust_final_sample_reports_missing(self):
        # starve the batch so some nodes cannot reach K good pulls
        n = 2000
        config = SimConfig(
            n=n, seed=9, failure=FailureModel(mode="uniform", mu=0.7)
        )
        engine = RoundEngine(config)
        ids = engine.values_rng().permutation(n)
        good = np.ones(n, dtype=bool)
        outputs, has = robust_final_median_sample(ids, good, 5, 6, engine)
        assert not has.all()
        assert (outputs[has] >= 0).all()


def _reference_pull_batch(values, good_prev, need, batch, engine, delta=1.0):
    """The per-round loop robust_pull_batch replaced: one contact per node
    per round, each node keeping its first ``need`` good pulls. Kept as the
    reference whose rounds (and, without failures, messages) robust_pull_batch
    must match exactly, and whose pulls, short mask and messages it must
    match in distribution."""
    n = engine.n
    if good_prev is None:
        good_prev = np.ones(n, dtype=bool)
    picked = np.zeros((need, n), dtype=values.dtype)
    counts = np.zeros(n, dtype=np.int64)
    coins = None
    satisfied = False
    for j in range(batch):
        rd = engine.next_round()
        if satisfied and j > 0:
            performed = n if rd.failed is None else int(n - rd.failed.sum())
            rd.count_messages(performed)
            continue
        peers = rd.peers()
        if j == 0 and delta < 1.0:
            coins = rd.rng.random(n) < delta
        good_pull = good_prev[peers]
        if rd.failed is not None:
            good_pull = good_pull & ~rd.failed
        sel = good_pull & (counts < need)
        if np.any(sel):
            nodes = np.nonzero(sel)[0]
            picked[counts[nodes], nodes] = values[peers[nodes]]
        counts[good_pull] += 1
        if not satisfied:
            satisfied = bool((counts >= need).all())
    return picked, counts, coins


def _reference_used(counts, need, coins):
    """The reference's ``used``: the pulls each node needs (one fewer
    without its phase-I coin) where it counted that many, else 0."""
    need_v = need if coins is None else need - 1 + coins
    return np.where(counts >= need_v, need_v, 0)


def _reference_batch(values, good_prev, need, batch, engine, delta=1.0, median=False):
    """The reference loop in ``robust_pull_batch``'s form: ``used`` for the
    counts, and the median of the first ``need`` picks with ``median``."""
    picked, counts, coins = _reference_pull_batch(values, good_prev, need, batch, engine, delta)
    if median:
        picked = np.partition(picked, need // 2, axis=0)[need // 2]
    return picked, _reference_used(counts, need, coins), coins


def _one_channel_batch(values, good_prev, need, batch, engine, delta=1.0, median=False):
    """``_reference_batch`` in the channel form the tournament calls it in:
    a ``(1, n)`` state and mask, and one ``delta`` per channel."""
    (delta,) = np.broadcast_to(np.asarray(delta, dtype=float), (1,))
    picked, used, coins = _reference_batch(
        values[0], None if good_prev is None else good_prev[0], need, batch, engine,
        float(delta), median)
    picked = picked[np.newaxis] if median else picked[:, np.newaxis]
    return picked, used[np.newaxis], None if coins is None else coins[np.newaxis]


class TestPullBatchAgainstReference:
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("need", [2, 3, 31])
    @pytest.mark.parametrize("bad_share", [0.0, 0.3])
    @pytest.mark.parametrize("with_coins", [False, True])
    def test_same_rounds_and_failure_free_messages(self, mu, need, bad_share, with_coins):
        # rounds always agree; without failures the messages and the
        # (absent) failure stream agree too. Under failures the batch draws
        # its messages in law, which test_same_law_of_mask_picks_and_messages checks
        n, seed = 400, 11
        failure = FailureModel(mode="uniform", mu=mu, seed=seed) if mu else FailureModel()
        batch = 4 * need + 1
        values = np.random.default_rng(seed).permutation(n)
        good = np.random.default_rng(seed + 1).random(n) >= bad_share
        delta = 0.4 if with_coins else 1.0
        runs = []
        for fn in (robust_pull_batch, _reference_batch):
            engine = RoundEngine(SimConfig(n=n, seed=seed, failure=failure))
            picked, used, coins = fn(values, good, need, batch, engine, delta)
            after = engine.next_round().failed
            runs.append((picked, used, coins, engine.rounds, engine.messages, after))
        (p_new, u_new, h_new, r_new, m_new, f_new), (_, _, h_ref, r_ref, m_ref, f_ref) = runs
        assert r_new == r_ref == batch + 1
        if mu:
            assert 0 < m_new < n * (batch + 1)
        else:
            assert m_new == m_ref == n * batch
            assert f_new is None and f_ref is None
        if with_coins:
            assert h_new.shape == h_ref.shape == (n,) and h_new.dtype == bool
            assert ((u_new == 0) | (u_new == need - 1 + h_new)).all()
        else:
            assert h_new is None and h_ref is None
            assert set(np.unique(u_new)) <= {0, need}
        assert np.isin(p_new[:, u_new > 0], values[good]).all()

    @pytest.mark.parametrize("failure", [
        FailureModel("uniform", 0.5), FailureModel("uniform", 0.3),
        FailureModel("scheduled", 0.9, 3),
    ], ids=["uniform-0.5", "uniform-0.3", "scheduled-0.9"])
    @pytest.mark.parametrize("need, delta, batch", [(3, 1.0, 9), (2, 0.4, 6), (31, 1.0, 80)])
    def test_same_law_of_mask_picks_and_messages(self, failure, need, delta, batch):
        # 300 engine seeds over one input with 30% bad nodes; nodes are
        # independent given the good set, so every node of every seed is
        # one sample of the mask "has the good pulls it needs" and, where
        # it has, each of its used pick slots one sample of a uniform good
        # value: pooled over every used slot, and row by row. Each seed is
        # one sample of (short count, messages): the messages agree in law,
        # and so does their mean given the short count, a line whose slope
        # is E[live | short] - E[live | not short] < 0 (a message total
        # drawn blind to the mask would have slope 0)
        n = 400
        values = np.random.default_rng(5).permutation(n)
        good = np.random.default_rng(6).random(n) >= 0.3
        fns = (robust_pull_batch, _reference_batch)
        masks = {fn: np.zeros(2, dtype=np.int64) for fn in fns}
        picks = {fn: [[] for _ in range(need)] for fn in fns}
        sent = {fn: np.zeros((300, 2)) for fn in fns}  # (short count, messages)
        for seed in range(300):
            for fn in fns:
                engine = RoundEngine(SimConfig(n=n, seed=seed, failure=failure))
                picked, used, _ = fn(values, good, need, batch, engine, delta)
                short = np.count_nonzero(used == 0)
                masks[fn] += n - short, short
                sent[fn][seed] = short, engine.messages
                for row in range(need):
                    picks[fn][row].append(picked[row, used > row])
        table = np.array([masks[fn] for fn in fns])
        assert table.min() > 100  # both outcomes well represented
        assert stats.chi2_contingency(table).pvalue > 0.01
        rows = {fn: [np.concatenate(r) for r in picks[fn]] for fn in fns}
        new, ref = (np.concatenate(rows[fn]) for fn in fns)
        assert stats.ks_2samp(new, ref).pvalue > 0.01
        # each row on its own, at a Bonferroni level over the rows
        for row_new, row_ref in zip(rows[robust_pull_batch], rows[_reference_batch]):
            assert row_new.size > 100 and row_ref.size > 100
            assert stats.ks_2samp(row_new, row_ref).pvalue > 0.01 / need
        assert np.isin(new, values[good]).all()
        assert stats.ks_2samp(sent[fns[0]][:, 1], sent[fns[1]][:, 1]).pvalue > 0.01
        fit_new, fit_ref = (stats.linregress(sent[fn][:, 0], sent[fn][:, 1]) for fn in fns)
        assert fit_ref.slope < -4 * fit_ref.stderr  # the case can tell a mask-blind total
        assert abs(fit_new.slope - fit_ref.slope) < 4 * math.hypot(fit_new.stderr, fit_ref.stderr)

    @pytest.mark.parametrize("failure", [
        FailureModel(), FailureModel("uniform", 0.5), FailureModel("scheduled", 0.5, 2),
    ], ids=["mu0", "uniform", "scheduled"])
    def test_batch_crossing_the_budget_stops_at_it(self, failure):
        # like the per-round loop, a batch that would cross max_rounds
        # raises and leaves the engine at max_rounds
        values = np.arange(50)
        for fn in (robust_pull_batch, _reference_batch):
            engine = RoundEngine(SimConfig(n=50, seed=2, failure=failure, max_rounds=10))
            fn(values, None, 3, 7, engine)
            assert engine.rounds == 7
            with pytest.raises(BudgetExceededError):
                fn(values, None, 3, 5, engine)
            assert engine.rounds == 10
        engine = RoundEngine(SimConfig(n=50, seed=2, failure=failure, max_rounds=10))
        fn(values, None, 3, 10, engine)  # a batch ending at the budget is within it
        assert engine.rounds == 10


class TestScheduledTrial:
    def test_trial_matches_the_per_round_reference(self, monkeypatch):
        # robust_approx_quantile under "scheduled" (phase I with coins,
        # phase II, the K-sample), once on the batch and once on the
        # per-round loop. Both draw the same per-round failure bits, so per
        # seed the rounds and the messages agree exactly; the short masks,
        # drawn from the round stream, agree in law
        n, mu, seeds = 400, 0.5, range(200)
        runs = {}
        for name, fn in (("batch", robust_pull_batch), ("loop", _one_channel_batch)):
            monkeypatch.setattr(tournament, "robust_pull_batch", fn)
            runs[name] = [robust_approx_quantile(
                0.3, 0.05, 0, SimConfig(n=n, seed=seed,
                                        failure=FailureModel("scheduled", mu, seed)))
                for seed in seeds]
        plan = tournament_plan(clamped_rank(0.3 * n, n), 0.05, n, 30, mu)
        assert plan.sched1.delta[-1] < 1.0
        # per seed: the node-steps short of good pulls, each phase
        # iteration's new bad nodes and the K-sample's missing answers
        shorts = {name: np.array([
            sum(n - g for g in rep.details["good_trace"]) + rep.details["missing_before_adoption"]
            for rep in reports]) for name, reports in runs.items()}
        for new, ref in zip(runs["batch"], runs["loop"]):
            assert new.rounds == ref.rounds == plan.rounds
            assert new.messages == ref.messages
        steps = len(seeds) * n * (plan.sched1.t + plan.sched2.t + 1)
        table = np.array([[shorts[name].sum(), steps - shorts[name].sum()] for name in shorts])
        assert table[:, 0].min() > 20  # nodes do fall short
        assert stats.chi2_contingency(table).pvalue > 0.01
        assert stats.ks_2samp(shorts["batch"], shorts["loop"], method="asymp").pvalue > 0.01


class TestQuantileCuts:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5000), st.floats(0, 1), st.floats(0, 0.2))
    def test_counts_partition_population(self, n, phi, eps):
        lo, hi = quantile_cuts(n, phi - eps, phi + eps)
        ids = np.arange(n)
        l, m, h = lmh_counts(ids, lo, hi)
        assert l + m + h == n
        assert l >= 0 and m >= 0 and h >= 0

    def test_boundaries_match_definitions(self):
        # quantile of rank r is r/n; L strictly below, H strictly above
        n = 100
        lo, hi = quantile_cuts(n, 0.15, 0.35)
        assert lo == 14   # ranks 1..14 have r/n < 0.15
        assert hi == 35   # ranks 36.. have r/n > 0.35


# The plain bodies the good-pull batch replaced: one ``Round.pull`` per
# node per round. Without failures every step through the batch must match
# them draw for draw, except a phase-I iteration with delta < 1, whose
# coins the batch draws before its picks.


def _reference_phase1_iteration(values, delta, direction, engine):
    rd = engine.next_round()
    v1 = rd.pull(values)
    do_t = rd.rng.random(engine.n) < delta if delta < 1.0 else None
    return phase1_step(v1, engine.next_round().pull(values), direction, do_t)


def _reference_phase2_iteration(values, engine):
    v1, v2, v3 = (engine.next_round().pull(values) for _ in range(3))
    return phase2_step(v1, v2, v3)


def _reference_final_median_sample(values, k_sample, engine):
    k = k_sample if k_sample % 2 else k_sample + 1
    picked = np.stack([engine.next_round().pull(values) for _ in range(k)])
    return np.partition(picked, k // 2, axis=0)[k // 2]


def _reference_robust_final_median_sample(values, good_prev, k_sample, batch, engine):
    """The K-sample as K rows of picks and a partition, on the batch's own
    good-pull test: its mask and rounds are the order statistic's."""
    k = k_sample if k_sample % 2 else k_sample + 1
    picked, used, _ = robust_pull_batch(values, good_prev, k, batch, engine)
    return np.partition(picked, k // 2, axis=0)[k // 2], used > 0


def _assert_same_law(new, ref, least=1000):
    """Two samples (lists of arrays, one per seed) from one law: KS p > 0.01,
    each holding at least ``least`` values."""
    new, ref = np.concatenate(new), np.concatenate(ref)
    assert new.size >= least and ref.size >= least
    if least:
        assert stats.ks_2samp(new, ref).pvalue > 0.01


def _run(fn, n, seed, failure=None):
    """``fn(engine)`` on a fresh engine, then the engine's rounds, messages
    and its round stream's next draw (showing the stream's position)."""
    engine = RoundEngine(SimConfig(n=n, seed=seed, failure=failure or FailureModel()))
    out = fn(engine)
    return out, engine.rounds, engine.messages, engine.next_round().rng.integers(1 << 30)


def _assert_same_run(run, ref):
    """Equal outputs (an array or a tuple of arrays) and equal engine ends."""
    outs, outs_ref = run[0], ref[0]
    if not isinstance(outs, tuple):
        outs, outs_ref = (outs,), (outs_ref,)
    assert len(outs) == len(outs_ref)
    for out, out_ref in zip(outs, outs_ref):
        assert np.array_equal(out, out_ref)
    assert run[1:] == ref[1:]


def _every_node_good(result):
    """The values of a batch step's ``(values, good)``, once good is all."""
    values, good = result
    assert good is None or good.all()
    return values


class TestFailureFreeStepsMatchPlainBodies:
    """Without failures every node is good, so the batch draws no
    good-pull test (a draw at g = 1 would still consume the round stream)
    and each phase step is the plain body; the K-sample's order statistic
    matches the plain body in law."""

    N, SEED = 600, 29
    VALUES = np.random.default_rng(SEED).permutation(N).astype(np.int32)

    def _check(self, reference, *steps):
        ref = _run(reference, self.N, self.SEED)
        for step in steps:
            _assert_same_run(_run(step, self.N, self.SEED), ref)

    @pytest.mark.parametrize("direction", [SHRINK_HIGH, SHRINK_LOW])
    @pytest.mark.parametrize("mask", [None, np.ones(N, dtype=bool)], ids=["none", "ones"])
    def test_phase1_at_delta_one(self, direction, mask):
        v = self.VALUES
        self._check(
            lambda e: _reference_phase1_iteration(v, 1.0, direction, e),
            lambda e: phase1_iteration(v, 1.0, direction, e),
            lambda e: _every_node_good(robust_phase1_iteration(v, mask, 1.0, direction, 2, e)),
        )

    @pytest.mark.parametrize("mask", [None, np.ones(N, dtype=bool)], ids=["none", "ones"])
    def test_phase2(self, mask):
        v = self.VALUES
        self._check(
            lambda e: _reference_phase2_iteration(v, e),
            lambda e: phase2_iteration(v, e),
            lambda e: _every_node_good(robust_phase2_iteration(v, mask, 3, e)),
        )

    @pytest.mark.parametrize("k_sample", [1, 6, 31])
    def test_k_sample(self, k_sample):
        # the order-statistic median draws other numbers than K plain pulls,
        # so over 300 seeds: the same rounds and messages, every node
        # answering, and the same law of the medians
        v = self.VALUES
        steps = (
            lambda e: _reference_final_median_sample(v, k_sample, e),
            lambda e: final_median_sample(v, k_sample, e),
            lambda e: _every_node_good(
                robust_final_median_sample(v, None, k_sample, k_sample | 1, e)),
        )
        medians = [[] for _ in steps]
        for seed in range(300):
            runs = [_run(step, self.N, seed) for step in steps]
            for run, sample in zip(runs, medians):
                assert run[1:3] == runs[0][1:3] == ((k_sample | 1), (k_sample | 1) * self.N)
                sample.append(run[0])
        for sample in medians[1:]:
            _assert_same_law(sample, medians[0])

    def test_phase1_below_delta_one_draws_coins_before_picks(self):
        def coins_first(engine):
            rounds = engine.next_round(), engine.next_round()
            coins = rounds[1].rng.random(engine.n) < 0.5
            v1, v2 = (rd.pull(self.VALUES) for rd in rounds)
            return phase1_step(v1, v2, SHRINK_HIGH, coins)

        self._check(coins_first, lambda e: phase1_iteration(self.VALUES, 0.5, SHRINK_HIGH, e))
        assert _run(coins_first, self.N, self.SEED)[1:3] == (2, 2 * self.N)


class TestSampleMatchesReference:
    """The order-statistic K-sample against K picks and a partition.

    The two draw different numbers from the round stream, so each case
    runs 300 engine seeds: per seed the rounds, the messages and the nodes
    that answer (or, in the plain step, keep their value) agree exactly,
    and over all seeds the medians agree in law.
    """

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    @pytest.mark.parametrize("k_sample", [5, 6, 30])
    @pytest.mark.parametrize("robust", [False, True])
    def test_same_medians_rounds_and_messages(self, dtype, mu, k_sample, robust):
        n = 200
        rng = np.random.default_rng(13)
        values = rng.integers(-n // 3, n // 3, size=n)  # negative keys and ties
        values = values / 7.0 if dtype == np.float64 else values.astype(dtype)
        kept = values.copy()
        good = rng.random(n) >= 0.2
        k = k_sample | 1
        batch = 2 * k + 1
        if robust:
            new_fn = lambda e: robust_final_median_sample(values, good, k_sample, batch, e)
            ref_fn = lambda e: _reference_robust_final_median_sample(
                values, good, k_sample, batch, e)
        else:
            # the plain step is the batch of K rounds with every node good; a
            # node short of K good pulls (under failures) keeps its value
            new_fn = lambda e: final_median_sample(values, k_sample, e)
            if mu:
                ref_fn = lambda e: _reference_robust_final_median_sample(values, None, k, k, e)
            else:
                ref_fn = lambda e: (_reference_final_median_sample(values, k_sample, e),
                                    np.ones(n, dtype=bool))
        new_medians, ref_medians = [], []
        for seed in range(300):
            failure = FailureModel(mode="uniform", mu=mu, seed=seed) if mu else FailureModel()
            new, ref = (_run(fn, n, seed, failure) for fn in (new_fn, ref_fn))
            assert new[1:3] == ref[1:3]
            ref_out, has = ref[0]
            if robust:
                new_out, new_has = new[0]
                assert np.array_equal(new_has, has)
            else:
                new_out = new[0]
                assert np.array_equal(new_out[~has], values[~has])
            assert new_out.dtype == values.dtype
            new_medians.append(new_out[has])
            ref_medians.append(ref_out[has])
        # the plain step under failures answers only where none of its K
        # pulls failed, (1 - mu)^K of the nodes: ask for half of those (at
        # K = 31 none, and the exact check of the kept values carries it)
        least = int(300 * n * (1 - mu) ** k / 2) if mu and not robust else 1000
        _assert_same_law(new_medians, ref_medians, least)
        assert np.array_equal(values, kept)  # reads its input only


def _record_state_dtypes(monkeypatch):
    """Wrap both K-samples to record the dtype of the state they get."""
    seen = []
    for name in ("final_median_sample", "robust_final_median_sample"):
        def wrapped(values, *args, _fn=getattr(tournament, name), **kwargs):
            seen.append(values.dtype)
            return _fn(values, *args, **kwargs)
        monkeypatch.setattr(tournament, name, wrapped)
    return seen


class TestIdStateDtype:
    ROBUST = FailureModel(mode="uniform", mu=0.5, seed=4)

    def _trials(self):
        return [
            approx_quantile(0.3, 0.1, SimConfig(n=700, seed=4)),
            robust_approx_quantile(0.7, 0.1, 5, SimConfig(n=700, seed=4, failure=self.ROBUST)),
            exact_quantile(0.5, SimConfig(n=256, seed=4)),
        ]

    def test_reports_keep_int64_ranks(self, monkeypatch):
        seen = _record_state_dtypes(monkeypatch)
        approx, robust, _ = self._trials()
        assert approx.output_ranks.dtype == np.int64
        assert robust.output_ranks.dtype == np.int64
        assert seen and set(seen) == {np.dtype(np.int32)}

    def test_self_quantile_compares_int64_ids(self, monkeypatch):
        # the grid's one tournament runs an int32 state, a channel per grid
        # point, yet the answers selfq compares with the nodes' int64 ids
        # are int64 ids too
        seen = _record_state_dtypes(monkeypatch)
        answers = []

        def recording(*args, **kwargs):
            outputs, has_output, info = tournament._tournament_core(*args, **kwargs)
            answers.append((outputs.shape, outputs.dtype))
            return outputs, has_output, info

        monkeypatch.setattr(harness, "_tournament_core", recording)
        _, ids, _, _ = harness.self_quantile(0.1, SimConfig(n=300, seed=2))
        assert answers == [((9, 300), ids.dtype)] and ids.dtype == np.dtype(np.int64)
        assert set(seen) == {np.dtype(np.int32)}

    FRONT_ENDS = {
        "approx": lambda config, values: approx_quantile(0.5, 0.1, config, values=values),
        "robust": lambda config, values: robust_approx_quantile(0.5, 0.1, 2, config,
                                                                values=values),
        "exact": lambda config, values: exact_quantile(0.5, config, values=values),
        "selfq": lambda config, values: harness.self_quantile(0.1, config, values=values),
    }

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_one_front_end_rejects_wrong_length_values(self, front_end):
        with pytest.raises(ValueError, match="^values length must equal config.n$"):
            self.FRONT_ENDS[front_end](SimConfig(n=300, seed=2), np.arange(299))

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    @pytest.mark.parametrize("values", [
        np.arange(300).astype(str),
        np.arange(300).astype("datetime64[D]"),
        np.arange(300) + 0j,
        np.arange(300).astype(object),
    ], ids=["str", "datetime64", "complex", "object"])
    def test_non_numeric_values_rejected_before_any_round(self, monkeypatch, front_end,
                                                          values):
        # rejected before the engine exists, so before any round
        monkeypatch.setattr(tournament, "RoundEngine", None)
        with pytest.raises(ValueError, match="^values must be bool, integer or float, not"):
            self.FRONT_ENDS[front_end](SimConfig(n=300, seed=2), values)

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    @pytest.mark.parametrize("n", [1, 2, 300])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_values_rejected_before_any_round(self, monkeypatch, front_end, n, dtype):
        # NaN has no rank, and a NaN answer would read as "no answer"
        monkeypatch.setattr(tournament, "RoundEngine", None)
        values = np.arange(n, dtype=dtype)
        values[-1] = np.nan
        with pytest.raises(ValueError, match="^values must not hold NaN$"):
            self.FRONT_ENDS[front_end](SimConfig(n=n, seed=2), values)

    @pytest.mark.parametrize("dtype", [bool, np.uint16, np.int8, np.float32])
    def test_numeric_dtypes_accepted(self, dtype):
        values = (np.arange(300) % 2 if dtype is bool else np.arange(300) % 100).astype(dtype)
        rep = approx_quantile(0.5, 0.1, SimConfig(n=300, seed=2), values=values)
        assert rep.rounds > 0 and rep.output_ranks.min() >= 1

    def test_int64_state_runs_the_same_trials(self, monkeypatch):
        seen = _record_state_dtypes(monkeypatch)
        narrow = self._trials()
        assert set(seen) == {np.dtype(np.int32)}
        seen.clear()
        monkeypatch.setattr(tournament, "_id_dtype", lambda n: np.int64)
        wide = self._trials()
        assert set(seen) == {np.dtype(np.int64)}
        for a, b in zip(narrow[:2], wide[:2]):
            assert np.array_equal(a.outputs, b.outputs, equal_nan=True)
            assert np.array_equal(a.output_ranks, b.output_ranks)
            assert (a.rounds, a.messages, a.max_rank_error) == (b.rounds, b.messages, b.max_rank_error)
            assert a.details == b.details
        a, b = narrow[2], wide[2]
        assert (a.value, a.rounds, a.messages) == (b.value, b.rounds, b.messages)
        assert a.details == b.details


# ---------------------------------------------------------------------------
# the tournament over channels


def _solo_short(engine, chance, index):
    """The solo batch's short mask: one uniform per node from the round
    stream, only when the chance picked for all (an int index) or some
    chance of the table lies strictly between 0 and 1."""
    if isinstance(index, int):
        p = float(chance[index])
        return engine.rng.random(engine.n) < p if 0.0 < p < 1.0 else np.full(engine.n, p >= 1.0)
    if ((chance > 0.0) & (chance < 1.0)).any():
        return engine.rng.random(engine.n) < chance[index]
    return (chance >= 1.0)[index]


def _solo_advance_batch(engine, batch, short_given_live, row):
    """One tournament's batch on the engine, as it ran before the channels:
    its rounds and messages, its short mask, and under "uniform" the message
    total drawn as one multinomial per (row, short) class."""
    assert engine.rounds + batch <= engine.config.max_rounds
    engine.rounds += batch
    model, n = engine.config.failure, engine.n
    if not model.active:
        engine.messages += n * batch
        return _solo_short(engine, short_given_live[:, batch], row)
    if model.mode == "scheduled":
        live = np.full(n, batch, dtype=np.min_scalar_type(batch))
        for _ in range(batch):
            live -= engine_module.draw_failures(model, n, engine._failure_rng,
                                                engine._schedule_rng)
        engine.messages += int(live.sum())
        return _solo_short(engine, short_given_live, (row, live))
    pmf = engine_module._live_pmf(batch, model.mu)
    lacking = pmf * short_given_live
    short = _solo_short(engine, lacking.sum(axis=1), row)
    sizes = np.zeros((len(lacking), 2), dtype=np.int64)  # [row, short]
    if np.ndim(row):
        sizes.flat[:] = np.bincount(2 * row + short, minlength=sizes.size)
    else:
        count = int(np.count_nonzero(short))
        sizes[row] = n - count, count
    live = np.arange(batch + 1)
    for r, (kept_size, short_size) in enumerate(sizes):
        for size, weights in ((kept_size, pmf - lacking[r]), (short_size, lacking[r])):
            if size:
                weights = np.maximum(weights, 0.0)
                counts = engine._failure_rng.multinomial(size, weights / weights.sum())
                engine.messages += int(live @ counts)
    return short


def _solo_pull_batch(values, good_prev, need, batch, engine, delta=1.0, median=False):
    """One tournament's good-pull batch as it ran before the channels."""
    n, rng = engine.n, engine.rng
    coins = rng.random(n) < delta if delta < 1.0 else None
    row = 1 if coins is None else coins.astype(np.intp)
    good_values = values if good_prev is None else values[good_prev]
    size = good_values.size
    short = _solo_advance_batch(engine, batch, binomial_below(size / n, need, batch), row)
    used = np.where(short, 0, need - 1 + row)
    if not size:
        return np.zeros((n,) if median else (need, n), dtype=values.dtype), used, coins
    if median:
        half = (need + 1) / 2
        index = (size * rng.beta(half, half, size=n)).astype(np.intp)
        return np.sort(good_values).take(np.minimum(index, size - 1)), used, coins
    picked = np.empty((need, n), dtype=values.dtype)
    step = max(1, tournament._PICK_BLOCK // n)
    for start in range(0, need, step):
        block = picked[start:start + step]
        good_values.take(rng.integers(0, size, size=block.shape), out=block)
    return picked, used, coins


def _solo_tournament(ids, rank, eps, engine):
    """One target's tournament as it ran before the channels: phase I on its
    own schedule, phase II, the K-sample, each over its own batches."""
    n = engine.n
    plan = tournament_plan(rank, eps, n, tournament.K_SAMPLE, engine.config.failure.mu)
    values, good, trace = ids.astype(np.int32), None, []

    def keep(stepped, used):
        ok = used > 0
        return (stepped, None) if ok.all() else (np.where(ok, stepped, values), ok)

    for delta in plan.sched1.delta:
        picked, used, coins = _solo_pull_batch(values, good, 2, plan.batch1, engine, delta)
        values, good = keep(phase1_step(picked[0], picked[1], plan.sched1.direction, coins),
                            used)
        trace.append(n if good is None else int(np.count_nonzero(good)))
    for _ in range(plan.sched2.t):
        picked, used, _ = _solo_pull_batch(values, good, 3, plan.batch2, engine)
        values, good = keep(phase2_step(*picked), used)
        trace.append(n if good is None else int(np.count_nonzero(good)))
    outputs, used, _ = _solo_pull_batch(values, good, plan.k, plan.sample_batch, engine,
                                        median=True)
    return outputs.astype(np.int64), used > 0, trace


def _streams(engine):
    return [None if gen is None else gen.bit_generator.state
            for gen in (engine.rng, engine._failure_rng, engine._schedule_rng)]


class TestChannelTournament:
    @pytest.mark.parametrize("failure", [
        FailureModel(), FailureModel("uniform", 0.5, 3), FailureModel("scheduled", 0.5, 3),
    ], ids=["mu0", "uniform-0.5", "scheduled-0.5"])
    @pytest.mark.parametrize("n", [1000, 10_000])
    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9])
    def test_one_channel_is_the_solo_tournament_draw_for_draw(self, failure, n, phi):
        # outputs, answered masks, good traces, rounds, messages and every
        # stream's state equal the solo reference's
        ids = np.random.default_rng(n).permutation(n)
        rank = clamped_rank(phi * n, n)
        a, b = (RoundEngine(SimConfig(n=n, seed=7, failure=failure)) for _ in range(2))
        outputs, has_output, trace = tournament._tournament_core(ids, [rank], 0.05, a)
        ref_outputs, ref_has, ref_trace = _solo_tournament(ids, rank, 0.05, b)
        assert outputs.shape == has_output.shape == (1, n)
        assert np.array_equal(outputs[0], ref_outputs)
        assert np.array_equal(has_output[0], ref_has)
        assert trace == [ref_trace]
        assert (a.rounds, a.messages) == (b.rounds, b.messages)
        assert a.rounds == tournament_plan(rank, 0.05, n, tournament.K_SAMPLE, failure.mu).rounds
        assert _streams(a) == _streams(b)

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_each_channel_hits_its_window_as_often_as_solo(self, mu):
        # exact's two bracket ends at n = 300, eps/2 = 0.04, over 400 seeds:
        # a trial hits when every node that answered lies in the channel's
        # window, and each channel of the two-channel run hits as often as
        # its solo tournament on other seeds (Fisher p above 0.01 / 2)
        n, eps, seeds = 300, 0.04, 400
        ranks = [clamped_rank(0.46 * n, n), clamped_rank(0.54 * n, n)]
        windows = [harness.rank_window(n, rank / n, eps) for rank in ranks]
        hits = np.zeros((2, 2), dtype=np.int64)  # [lockstep, solo] x channel

        def hit(outputs, has_output, window):
            answered = outputs[has_output] + 1
            return bool(((answered >= window[0]) & (answered <= window[1])).all())

        for seed in range(seeds):
            failure = FailureModel("uniform", mu, seed) if mu else FailureModel()
            ids = np.random.default_rng(seed).permutation(n)
            engine = RoundEngine(SimConfig(n=n, seed=seed, failure=failure))
            outputs, has_output, _ = tournament._tournament_core(ids, ranks, eps, engine)
            assert engine.rounds == tournament.lockstep_rounds(
                [tournament_plan(rank, eps, n, tournament.K_SAMPLE, mu) for rank in ranks])
            for c, (rank, window) in enumerate(zip(ranks, windows)):
                hits[0, c] += hit(outputs[c], has_output[c], window)
                solo = RoundEngine(SimConfig(n=n, seed=seed + 10**6, failure=failure))
                out, has, _ = tournament._tournament_core(ids, [rank], eps, solo)
                hits[1, c] += hit(out[0], has[0], window)
        assert hits.min() > seeds / 2  # the windows are hit, and missed too
        assert hits.max() < seeds
        for c in range(2):
            table = [[hits[0, c], seeds - hits[0, c]], [hits[1, c], seeds - hits[1, c]]]
            assert stats.fisher_exact(table).pvalue > 0.01 / 2

    def test_finished_channel_keeps_its_state_and_sends_nothing(self, monkeypatch):
        # phi 0.1 runs more phase-I iterations than phi 0.3: once its
        # schedule ends, the phi 0.3 channel steps no more, enters phase II
        # with the state its last step left, and its ids leave the messages
        n = 2000
        ranks = [clamped_rank(0.1 * n, n), clamped_rank(0.3 * n, n)]
        plans = [tournament_plan(rank, 0.05, n, tournament.K_SAMPLE, 0.0) for rank in ranks]
        t1 = [p.sched1.t for p in plans]
        assert t1[0] > t1[1] > 0
        steps, phase2_inputs = [], []
        real1, real2 = tournament.robust_phase1_iteration, tournament.robust_phase2_iteration

        def phase1(values, *args):
            steps.append(real1(values, *args)[0])
            return steps[-1], None

        def phase2(values, *args):
            phase2_inputs.append(values.copy())
            return real2(values, *args)

        monkeypatch.setattr(tournament, "robust_phase1_iteration", phase1)
        monkeypatch.setattr(tournament, "robust_phase2_iteration", phase2)
        engine = RoundEngine(SimConfig(n=n, seed=3))
        tournament._tournament_core(np.random.default_rng(3).permutation(n), ranks, 0.05, engine)
        assert [len(step) for step in steps] == [2] * t1[1] + [1] * (t1[0] - t1[1])
        assert np.array_equal(phase2_inputs[0][1], steps[t1[1] - 1][1])
        assert np.array_equal(phase2_inputs[0][0], steps[-1][0])
        # without failures a round carries one id per channel that steps
        t2, sample_batch = plans[0].sched2.t, plans[0].sample_batch
        assert engine.messages == n * (2 * sum(t1) + 2 * (3 * t2 + sample_batch))
        assert engine.rounds == tournament.lockstep_rounds(plans)
