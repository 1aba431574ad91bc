"""Min/max dissemination and push-sum counting."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from gossipq import aggregates, exact
from gossipq.aggregates import (
    CountResult,
    _gossip_exchange,
    exact_count,
    exact_count_multi,
    push_sum_count,
    push_sum_multi,
    spread_min_max,
)
from gossipq.engine import FailureModel, RoundEngine, SimConfig


def _engine(n, seed, mu=0.0):
    failure = FailureModel() if mu == 0 else FailureModel(mode="uniform", mu=mu)
    return RoundEngine(SimConfig(n=n, seed=seed, failure=failure))


def _reference_four_round_exchange(cur, engine, reduce_fn):
    """One push round and one pull round of one extreme, on contacts of
    their own: the exchange spreading ran twice per iteration, once per
    extreme, before both extremes shared one contact. The pull reads the
    state after the push."""
    rd_push = engine.next_round()
    targets = rd_push.peers()
    senders = np.arange(engine.n) if rd_push.failed is None else np.nonzero(~rd_push.failed)[0]
    nxt = cur.copy()
    reduce_fn.at(nxt, targets[senders], cur[senders])
    return reduce_fn(nxt, engine.next_round().pull(nxt))


def _reference_one_contact_exchange(lo, hi, engine):
    """Node by node: each live node pushes both extremes to its one
    contact, then each live node pulls both from its one contact, as the
    contact held them after the push round."""
    new_lo, new_hi = lo.copy(), hi.copy()
    rd = engine.next_round()
    for v, t in enumerate(rd.peers()):
        if rd.failed is None or not rd.failed[v]:
            new_lo[t] = min(new_lo[t], lo[v])
            new_hi[t] = max(new_hi[t], hi[v])
    pushed_lo, pushed_hi = new_lo.copy(), new_hi.copy()
    rd = engine.next_round()
    for v, t in enumerate(rd.peers()):
        if rd.failed is None or not rd.failed[v]:
            new_lo[v] = min(new_lo[v], pushed_lo[t])
            new_hi[v] = max(new_hi[v], pushed_hi[t])
    return new_lo, new_hi


def _reference_four_round_pair(lo, hi, engine):
    """One iteration of the four-round loop: the minimum's exchange, then
    the maximum's."""
    return (_reference_four_round_exchange(lo, engine, np.minimum),
            _reference_four_round_exchange(hi, engine, np.maximum))


def _recording(engine):
    """Record every round the engine hands out."""
    rounds, next_round = [], engine.next_round

    def record():
        rounds.append(next_round())
        return rounds[-1]

    engine.next_round = record
    return rounds


class TestSpreadMinMax:
    def test_all_equal_immediately(self):
        engine = _engine(64, 1)
        res = spread_min_max(np.full(64, 7), engine)
        assert res.minimum == 7 and res.maximum == 7
        assert res.converged

    def test_converges_within_budget(self):
        for seed in range(20):
            engine = _engine(1024, seed)
            values = engine.values_rng().permutation(1024)
            res = spread_min_max(values, engine)
            assert res.converged
            assert res.minimum == 0 and res.maximum == 1023
            assert res.iterations <= 4 * 10

    def test_converges_under_heavy_failures(self):
        # mu=0.5 within its engine-scaled budget in >= 99/100 seeds
        hits = 0
        for seed in range(100):
            engine = _engine(1024, seed, mu=0.5)
            values = engine.values_rng().permutation(1024)
            res = spread_min_max(values, engine)
            hits += int(res.converged)
        assert hits >= 99

    def test_separate_min_max_pools(self):
        engine = _engine(256, 3)
        min_pool = engine.values_rng().integers(10, 50, size=256)
        max_pool = min_pool + 100
        res = spread_min_max(min_pool, engine, max_values=max_pool)
        assert res.minimum == min_pool.min()
        assert res.maximum == max_pool.max()

    def test_non_integer_extremes_spread_untruncated(self):
        engine = _engine(64, 4)
        res = spread_min_max(np.arange(64) + 0.5, engine)
        assert res.converged
        assert (res.minimum, res.maximum) == (0.5, 63.5)
        engine = _engine(256, 5)
        min_pool = engine.values_rng().uniform(-3.0, 3.0, size=256)
        max_pool = min_pool + 0.25
        res = spread_min_max(min_pool, engine, max_values=max_pool)
        assert res.converged
        assert res.minimum == min_pool.min() and res.maximum == max_pool.max()

    def test_held_extremes_are_monotone(self):
        for mu in (0.0, 0.5):
            engine = _engine(128, 9, mu)
            lo = engine.values_rng().permutation(128)
            hi = lo.copy()
            for _ in range(5):
                new_lo, new_hi = _gossip_exchange(lo, hi, engine)
                assert (new_lo <= lo).all() and (new_hi >= hi).all()
                lo, hi = new_lo, new_hi
            assert lo.min() == 0 and hi.max() == 127

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_one_contact_per_round_for_both_extremes(self, mu):
        # an iteration is two rounds whose messages carry both extremes,
        # and it matches the node-by-node one-contact exchange draw for draw
        n = 200
        for seed in range(4):
            rng = np.random.default_rng(seed)
            lo, hi = rng.permutation(n), rng.permutation(n)
            engine = _engine(n, seed, mu)
            rounds = _recording(engine)
            res = spread_min_max(lo, engine, max_values=hi)
            assert res.converged and (res.minimum, res.maximum) == (0, n - 1)
            assert engine.rounds == len(rounds) == 2 * res.iterations
            live = sum(n if rd.failed is None else n - int(rd.failed.sum())
                       for rd in rounds)
            assert engine.messages == 2 * live

            a, b = _engine(n, seed, mu), _engine(n, seed, mu)
            got = want = lo, hi
            for _ in range(res.iterations + 1):
                got = _gossip_exchange(*got, a)
                want = _reference_one_contact_exchange(*want, b)
                assert all(np.array_equal(x, y) for x, y in zip(got, want))
            assert a.rounds == b.rounds and a.messages == 2 * b.messages

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_each_extreme_spreads_in_law_as_on_its_own_contacts(self, mu):
        # the iteration at which each extreme first reaches every node, against
        # the four-round exchange that spread each extreme on its own contacts
        n = 1024

        def first_iterations(exchange, seed):
            engine = _engine(n, seed, mu)
            lo = hi = engine.values_rng().permutation(n)
            first = {}
            for it in itertools.count(1):
                lo, hi = exchange(lo, hi, engine)
                for name, held, target in (("min", lo, 0), ("max", hi, n - 1)):
                    if name not in first and (held == target).all():
                        first[name] = it
                if len(first) == 2:
                    return first

        new = [first_iterations(_gossip_exchange, seed) for seed in range(300)]
        ref = [first_iterations(_reference_four_round_pair, seed) for seed in range(300)]
        for name in ("min", "max"):
            got, want = [f[name] for f in new], [f[name] for f in ref]
            assert stats.ks_2samp(got, want).pvalue > 0.01

    @pytest.mark.parametrize("failure", [
        FailureModel(),
        FailureModel(mode="uniform", mu=0.3),
        FailureModel(mode="uniform", mu=0.5),
        FailureModel(mode="uniform", mu=0.75),
        FailureModel(mode="scheduled", mu=0.5, seed=3),
    ])
    def test_budgets_scale_with_the_engine_failure_bound(self, monkeypatch, failure):
        # push-sum, spreading and the token phase cap each run
        # ceil(base / (1 - mu)) for their failure-free base, in exact arithmetic
        def scaled(base):
            return math.ceil(Fraction(base) / (1 - Fraction(str(failure.mu))))

        n = 100
        engine = RoundEngine(SimConfig(n=n, seed=1, failure=failure))
        bits = np.arange(n) % 3 == 0
        res = push_sum_count(bits, engine)
        assert res.rounds == engine.rounds == scaled(math.ceil(4 * math.log2(n)) + 30)
        # an exchange that spreads nothing runs the whole budget
        monkeypatch.setattr(aggregates, "_gossip_exchange", lambda lo, hi, engine: (lo, hi))
        res = spread_min_max(np.arange(n), RoundEngine(SimConfig(n=n, seed=1, failure=failure)))
        assert not res.converged
        assert res.iterations == scaled(4 * math.ceil(math.log2(n)))
        # pushes that all fail run the token phases up to their cap; at
        # n = 128 the base is 84, and 84 / (1 - 0.3) in floats exceeds 120
        phases = []

        def failing(holders, engine):
            phases.append(len(holders))
            return np.zeros(len(holders), dtype=np.int64), np.ones(len(holders), dtype=bool)

        monkeypatch.setattr(exact, "_push_token_rounds", failing)
        engine = RoundEngine(SimConfig(n=128, seed=1, failure=failure))
        with pytest.raises(exact.TrialFailure, match="phase cap"):
            exact.distribute_tokens(np.array([3, 9]), 4, engine)
        assert len(phases) == scaled(3 * exact.SPLIT_CAP_C * 7)


class TestPushSum:
    def test_all_ones_gives_n(self):
        engine = _engine(512, 2)
        res = push_sum_count(np.ones(512, dtype=int), engine)
        assert (res.estimates == 512).all()
        assert not res.any_flagged

    def test_mass_conservation(self):
        engine = _engine(1024, 4)
        bits = (engine.values_rng().random(1024) < 0.4).astype(int)
        res = push_sum_count(bits, engine, track_mass=True)
        total = float(bits.sum())
        for mass in res.mass_trace:
            assert abs(mass - total) <= 1e-9 * max(total, 1.0)

    def test_mass_conservation_under_failures(self):
        engine = _engine(1024, 4, mu=0.5)
        bits = (engine.values_rng().random(1024) < 0.4).astype(int)
        res = push_sum_count(bits, engine, track_mass=True)
        total = float(bits.sum())
        for mass in res.mass_trace:
            assert abs(mass - total) <= 1e-9 * max(total, 1.0)

    def test_exact_counts_against_popcount(self):
        for seed in range(20):
            engine = _engine(4096, seed)
            bits = (engine.values_rng().random(4096) < 0.375).astype(int)
            res = push_sum_count(bits, engine)
            assert not res.any_flagged
            assert res.unanimous
            assert res.estimates[0] == int(bits.sum())

    def test_rejects_non_binary(self):
        engine = _engine(16, 1)
        with pytest.raises(ValueError):
            push_sum_count(np.array([0, 2] * 8), engine)

    def test_too_few_rounds_is_flagged_or_retried(self, monkeypatch):
        # starving the averaging of rounds must never return a silently
        # wrong unanimous count through the retry wrapper
        monkeypatch.setattr(aggregates, "PUSH_SUM_C", 0.1)
        monkeypatch.setattr(aggregates, "PUSH_SUM_EXTRA", 1)
        monkeypatch.setattr(aggregates, "COUNT_ATTEMPTS", 1)
        for seed in range(10):
            engine = _engine(256, seed)
            bits = (engine.values_rng().random(256) < 0.5).astype(int)
            out = exact_count(bits, engine)
            assert out is None or out == int(bits.sum())

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_budget_constants_are_read_at_call_time(self, monkeypatch, mu):
        # the starved counts in this file patch these constants; one bound
        # at definition time would leave them at the default budget
        n = 256
        bits = np.arange(n) % 2
        monkeypatch.setattr(aggregates, "PUSH_SUM_C", 2)
        monkeypatch.setattr(aggregates, "PUSH_SUM_EXTRA", 5)
        engine = _engine(n, 1, mu)
        push_sum_count(bits, engine)
        assert engine.rounds == math.ceil((2 * 8 + 5) / (1 - mu))
        # no c log2 n term and one extra round, doubled per attempt: no
        # attempt converges, so every one of them runs
        monkeypatch.setattr(aggregates, "PUSH_SUM_C", 0)
        monkeypatch.setattr(aggregates, "PUSH_SUM_EXTRA", 1)
        monkeypatch.setattr(aggregates, "COUNT_ATTEMPTS", 4)
        engine = _engine(n, 1, mu)
        assert exact_count(bits, engine) is None
        assert engine.rounds == sum(math.ceil(2**a / (1 - mu)) for a in range(4))

    def test_multi_channel_matches_single(self):
        engine_a = _engine(512, 6)
        bits1 = (engine_a.values_rng().random(512) < 0.3).astype(int)
        bits2 = 1 - bits1
        res = push_sum_multi(np.stack([bits1, bits2]), engine_a)
        assert res[0].estimates[0] == bits1.sum()
        assert res[1].estimates[0] == bits2.sum()

    def test_exact_count_multi(self):
        engine = _engine(1024, 8)
        bits = (engine.values_rng().random(1024) < 0.2).astype(int)
        out = exact_count_multi(np.stack([bits, np.ones(1024, dtype=int)]), engine)
        assert out == [int(bits.sum()), 1024]

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_multi_rejects_non_binary(self, bad):
        mat = np.zeros((2, 16))
        mat[1, 3] = bad
        with pytest.raises(ValueError):
            push_sum_multi(mat, _engine(16, 1))
        with pytest.raises(ValueError):
            exact_count_multi(mat, _engine(16, 1))


def _rounds(engine, c, extra_rounds):
    """Push-sum's round count, ceil((ceil(c log2 n) + extra_rounds) / (1 - mu))."""
    base = math.ceil(c * math.log2(max(2, engine.n))) + extra_rounds
    return math.ceil(base / (1.0 - engine.config.failure.mu))


def _reference_push_sum_count(indicator_bits, engine, *, c=4, extra_rounds=30,
                              track_mass=False, ambiguity=0.25):
    """The single-channel loop, with its failure and no-failure branches,
    that push_sum_multi replaced; kept as the reference its draws must match."""
    n = engine.n
    s = np.asarray(indicator_bits).astype(np.float64).copy()
    w = np.ones(n, dtype=np.float64)
    rounds = _rounds(engine, c, extra_rounds)
    trace = []
    for _ in range(rounds):
        rd = engine.next_round()
        targets = rd.peers()
        if rd.failed is None:
            s_half = s * 0.5
            w_half = w * 0.5
            s = s_half + np.bincount(targets, weights=s_half, minlength=n)
            w = w_half + np.bincount(targets, weights=w_half, minlength=n)
        else:
            send_s = np.where(rd.failed, 0.0, s * 0.5)
            send_w = np.where(rd.failed, 0.0, w * 0.5)
            s = (s - send_s) + np.bincount(targets, weights=send_s, minlength=n)
            w = (w - send_w) + np.bincount(targets, weights=send_w, minlength=n)
        if track_mass:
            trace.append(float(s.sum()))
    raw = n * s / w
    estimates = np.rint(raw).astype(np.int64)
    flagged = np.abs(raw - estimates) > (0.5 - ambiguity)
    return CountResult(estimates, flagged, rounds, trace)


def _reference_push_sum_multi(indicator_matrix, engine, *, c=4, extra_rounds=30,
                              ambiguity=0.25):
    """The per-channel lockstep loop push_sum_multi replaced."""
    mat = np.asarray(indicator_matrix, dtype=np.float64)
    channels, n = mat.shape
    s = mat.copy()
    w = np.ones(n, dtype=np.float64)
    rounds = _rounds(engine, c, extra_rounds)
    for _ in range(rounds):
        rd = engine.next_round()
        targets = rd.peers(message_weight=channels)
        if rd.failed is None:
            s_half = s * 0.5
            w_half = w * 0.5
            recv = np.empty_like(s)
            for ch in range(channels):
                recv[ch] = np.bincount(targets, weights=s_half[ch], minlength=n)
            s = s_half + recv
            w = w_half + np.bincount(targets, weights=w_half, minlength=n)
        else:
            send_w = np.where(rd.failed, 0.0, w * 0.5)
            new_s = np.empty_like(s)
            for ch in range(channels):
                send = np.where(rd.failed, 0.0, s[ch] * 0.5)
                new_s[ch] = (s[ch] - send) + np.bincount(
                    targets, weights=send, minlength=n
                )
            s = new_s
            w = (w - send_w) + np.bincount(targets, weights=send_w, minlength=n)
    results = []
    for ch in range(channels):
        raw = n * s[ch] / w
        estimates = np.rint(raw).astype(np.int64)
        flagged = np.abs(raw - estimates) > (0.5 - ambiguity)
        results.append(CountResult(estimates, flagged, rounds, []))
    return results


def _reference_exact_count(count_fn, indicator, engine, *, c, extra_rounds,
                           max_attempts=3):
    """The retry loop both exact_count forms ran, over either reference."""
    extra = extra_rounds
    for _ in range(max_attempts):
        results = count_fn(indicator, engine, c=c, extra_rounds=extra)
        if isinstance(results, CountResult):
            results = [results]
        if all(not r.any_flagged and r.unanimous for r in results):
            return [int(r.estimates[0]) for r in results]
        extra *= 2
    return None


class TestPushSumMatchesReference:
    # (PUSH_SUM_C, PUSH_SUM_EXTRA): the protocol default, and a starved
    # count whose per-node estimates have not converged, so any change to a
    # share shows
    BUDGETS = [(4, 30), (1, 1)]

    @staticmethod
    def _bits(n, channels, seed):
        rng = np.random.default_rng([seed, n, channels])
        density = rng.random((channels, 1))
        return (rng.random((channels, n)) < density).astype(np.int64)

    @staticmethod
    def _same(new, ref):
        assert np.array_equal(new.estimates, ref.estimates)
        assert np.array_equal(new.flagged, ref.flagged)
        assert new.rounds == ref.rounds
        assert new.mass_trace == ref.mass_trace

    @staticmethod
    def _budget(monkeypatch, c, extra):
        monkeypatch.setattr(aggregates, "PUSH_SUM_C", c)
        monkeypatch.setattr(aggregates, "PUSH_SUM_EXTRA", extra)

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 17, 1024])
    def test_same_counts_traces_rounds_and_messages(self, monkeypatch, mu, channels, n):
        for seed in (0, 1, 2):
            mat = self._bits(n, channels, seed)
            for c, extra in self.BUDGETS:
                self._budget(monkeypatch, c, extra)
                a, b = _engine(n, seed, mu), _engine(n, seed, mu)
                new = push_sum_multi(mat, a)
                ref = _reference_push_sum_multi(mat, b, c=c, extra_rounds=extra)
                for x, y in zip(new, ref, strict=True):
                    self._same(x, y)
                assert (a.rounds, a.messages) == (b.rounds, b.messages)

                # each channel's mass trace is the single-channel run's
                a = _engine(n, seed, mu)
                traced = push_sum_multi(mat, a, track_mass=True)
                for ch in range(channels):
                    b = _engine(n, seed, mu)
                    ref = _reference_push_sum_count(mat[ch], b, c=c,
                                                    extra_rounds=extra,
                                                    track_mass=True)
                    self._same(traced[ch], ref)
                    assert traced[ch].mass_trace

                a, b = _engine(n, seed, mu), _engine(n, seed, mu)
                got = exact_count_multi(mat, a)
                want = _reference_exact_count(_reference_push_sum_multi, mat, b,
                                              c=c, extra_rounds=extra)
                assert got == want
                assert (a.rounds, a.messages) == (b.rounds, b.messages)

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    @pytest.mark.parametrize("n", [2, 17, 1024])
    def test_single_channel_names(self, monkeypatch, mu, n):
        for seed in (0, 1, 2):
            bits = self._bits(n, 1, seed)[0]
            for c, extra in self.BUDGETS:
                self._budget(monkeypatch, c, extra)
                a, b = _engine(n, seed, mu), _engine(n, seed, mu)
                new = push_sum_count(bits, a, track_mass=True)
                ref = _reference_push_sum_count(bits, b, c=c, extra_rounds=extra,
                                                track_mass=True)
                self._same(new, ref)
                assert (a.rounds, a.messages) == (b.rounds, b.messages)

                a, b = _engine(n, seed, mu), _engine(n, seed, mu)
                got = exact_count(bits, a)
                want = _reference_exact_count(_reference_push_sum_count, bits, b,
                                              c=c, extra_rounds=extra)
                assert got == (None if want is None else want[0])
                assert (a.rounds, a.messages) == (b.rounds, b.messages)
