"""Round engine: RNG substreams, failure draws, snapshot iteration."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gossipq import engine as engine_module
from gossipq.engine import (
    STREAM_FAILURE,
    STREAM_ROUND,
    BudgetExceededError,
    FailureModel,
    RoundEngine,
    SimConfig,
    _RoundKeys,
    canonical_ids,
    derive_rng,
    draw_failures,
)

_SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -2**63]


class TestUniformPeer:
    def test_chi_square_uniformity(self):
        # 1e6 draws over n=1e4 bins; the draw really is uniform, so the
        # chi-square p-value should not be tiny
        n, draws = 10_000, 1_000_000
        rng = derive_rng(42, 0)
        sample = rng.integers(0, n, size=draws)
        counts = np.bincount(sample, minlength=n)
        _, p = stats.chisquare(counts)
        assert p > 0.001


class TestFailureDraws:
    def test_mode_none_all_zero(self):
        bits = draw_failures(FailureModel(), 3, 1000, seed=7)
        assert not bits.any()

    def test_uniform_half_fraction(self):
        # binomial 3-sigma band around 0.5 at n=1e6 is +-0.0015
        n = 1_000_000
        model = FailureModel(mode="uniform", mu=0.5)
        bits = draw_failures(model, 0, n, seed=11)
        assert abs(bits.mean() - 0.5) < 0.002

    def test_reproducible_per_round(self):
        model = FailureModel(mode="uniform", mu=0.5)
        a = draw_failures(model, 4, 10_000, seed=3)
        b = draw_failures(model, 4, 10_000, seed=3)
        c = draw_failures(model, 5, 10_000, seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scheduled_probabilities_bounded(self):
        model = FailureModel(mode="scheduled", mu=0.3, seed=5)
        p = model.probabilities(7, 1000)
        assert (p >= 0).all() and (p <= 0.3).all()
        assert np.array_equal(p, model.probabilities(7, 1000))

    def test_scheduled_failure_rate_matches_mean_probability(self):
        # E[p] = mu * E[U] = mu / 2; over n * rounds = 2e5 draws the
        # binomial 4-sigma band around 0.25 is +-0.0039. With the model
        # seed equal to the trial seed, a schedule drawn from the failure
        # stream itself would test u < mu*u and inject no failures.
        n, rounds, mu = 1000, 200, 0.5
        cfg = SimConfig(n=n, seed=7,
                        failure=FailureModel(mode="scheduled", mu=mu, seed=7))
        engine = RoundEngine(cfg)
        failures = sum(int(engine.next_round().failed.sum()) for _ in range(rounds))
        assert abs(failures / (n * rounds) - mu / 2) < 0.0039

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            FailureModel(mode="bogus")
        with pytest.raises(ValueError):
            FailureModel(mode="uniform", mu=1.0)
        with pytest.raises(ValueError):
            FailureModel(mode="none", mu=0.2)


class TestEngine:
    def test_budget_exceeded(self):
        engine = RoundEngine(SimConfig(n=4, seed=0, max_rounds=2))
        engine.next_round()
        engine.next_round()
        with pytest.raises(BudgetExceededError):
            engine.next_round()

    def test_rounds_and_messages_accounting(self):
        engine = RoundEngine(SimConfig(n=100, seed=1))
        rd = engine.next_round()
        rd.peers()
        assert engine.rounds == 1
        assert engine.messages == 100
        rd = engine.next_round()
        actors = np.zeros(100, dtype=bool)
        actors[:10] = True
        rd.peers(actors=actors)
        assert engine.messages == 110

    def test_failed_ops_not_counted(self):
        config = SimConfig(
            n=1000, seed=2, failure=FailureModel(mode="uniform", mu=0.5)
        )
        engine = RoundEngine(config)
        rd = engine.next_round()
        rd.peers()
        assert engine.messages == 1000 - int(rd.failed.sum())

    def test_trial_determinism(self):
        def trial(seed):
            engine = RoundEngine(SimConfig(n=64, seed=seed))
            acc = []
            for _ in range(5):
                rd = engine.next_round()
                acc.append(rd.peers())
            return np.concatenate(acc)

        assert np.array_equal(trial(5), trial(5))
        assert not np.array_equal(trial(5), trial(6))


class TestKeyedRounds:
    """Engine generators against the SeedSequence reference keying."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from(_SEED_EDGES),
                       st.integers(-2**63, 2**64 - 1)),
        tag=st.integers(1, 4),
        block=st.integers(1, 2**24 - 1),
    )
    def test_block_states_equal_seed_sequence(self, seed, tag, block):
        keys = _RoundKeys(seed, tag)
        edge = 256 * block
        for index in (0, 255, 256, 257, edge - 1, edge, 2**32 - 1, 1):
            reference = np.random.SeedSequence(
                (seed & (2**64 - 1), tag, index)
            ).generate_state(4, np.uint64)
            assert np.array_equal(keys.state(index), reference)

    @pytest.mark.parametrize("seed", [3, 2**40 + 1])
    def test_rounds_across_blocks_match_reference(self, seed):
        n = 40
        model = FailureModel(mode="uniform", mu=0.3)
        engine = RoundEngine(SimConfig(n=n, seed=seed, failure=model))
        for index in range(601):
            rd = engine.next_round()
            assert rd.index == index
            expected = derive_rng(seed, STREAM_ROUND, index).integers(0, n, size=n)
            assert np.array_equal(rd.peers(), expected)
            assert np.array_equal(rd.failed, draw_failures(model, index, n, seed))

    def test_held_round_keeps_its_stream(self):
        # phase I draws from an earlier round after later rounds exist
        engine = RoundEngine(SimConfig(n=16, seed=9))
        held = engine.next_round()
        later = [engine.next_round() for _ in range(300)]
        assert np.array_equal(later[-1].rng.random(8),
                              derive_rng(9, STREAM_ROUND, 300).random(8))
        assert np.array_equal(held.rng.random(8),
                              derive_rng(9, STREAM_ROUND, 0).random(8))

    def test_index_beyond_32_bits_falls_back(self, monkeypatch):
        calls = []
        reference = engine_module.derive_rng

        def recording(seed, *key):
            calls.append((seed, *key))
            return reference(seed, *key)

        monkeypatch.setattr(engine_module, "derive_rng", recording)
        index = 2**32 + 5
        rng = _RoundKeys(7, STREAM_FAILURE).rng(index)
        assert calls == [(7, STREAM_FAILURE, index)]
        draws = rng.random(8)
        assert np.array_equal(draws, reference(7, STREAM_FAILURE, index).random(8))
        # a truncated index would have reused round 5's stream
        assert not np.array_equal(draws, reference(7, STREAM_FAILURE, 5).random(8))


class TestCanonicalIds:
    def test_permutation_is_identity(self):
        values = np.array([3, 0, 2, 1])
        ids, by_rank = canonical_ids(values)
        assert list(ids) == [3, 0, 2, 1]
        assert list(by_rank) == [0, 1, 2, 3]

    def test_ties_broken_by_node_index(self):
        values = np.array([5.0, 5.0, 1.0])
        ids, by_rank = canonical_ids(values)
        assert list(ids) == [1, 2, 0]
        assert list(by_rank) == [1.0, 5.0, 5.0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=60))
    def test_ids_are_a_permutation_in_sorted_order(self, values):
        arr = np.array(values)
        ids, by_rank = canonical_ids(arr)
        assert sorted(ids) == list(range(len(arr)))
        assert np.array_equal(by_rank[ids], arr)
        # id order agrees with value order up to tiebreaks
        order = np.argsort(ids)
        assert (np.diff(arr[order]) >= 0).all()
