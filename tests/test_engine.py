"""Round engine: RNG substreams, failure draws, snapshot iteration."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gossipq.engine import (
    BudgetExceededError,
    FailureModel,
    RoundEngine,
    SimConfig,
    canonical_ids,
    derive_rng,
    draw_failures,
    run_iteration,
    uniform_peer,
)


class TestUniformPeer:
    def test_single_node_always_zero(self):
        rng = derive_rng(1, 0)
        assert all(uniform_peer(rng, 1) == 0 for _ in range(50))

    def test_chi_square_uniformity(self):
        # 1e6 draws over n=1e4 bins; the draw really is uniform, so the
        # chi-square p-value should not be tiny
        n, draws = 10_000, 1_000_000
        rng = derive_rng(42, 0)
        sample = rng.integers(0, n, size=draws)
        counts = np.bincount(sample, minlength=n)
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_same_seed_same_sequence(self):
        a = [uniform_peer(derive_rng(9, 5, i), 1000) for i in range(20)]
        b = [uniform_peer(derive_rng(9, 5, i), 1000) for i in range(20)]
        assert a == b

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            uniform_peer(derive_rng(0, 0), 0)


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


class TestRunIteration:
    def test_identity_step(self):
        states = np.arange(10)
        out = run_iteration(states, lambda s: s.copy())
        assert np.array_equal(out, states)

    def test_copy_peer_forced_to_node_zero(self):
        states = np.array([7, 1, 2, 3])
        out = run_iteration(states, lambda s: s[np.zeros(4, dtype=int)])
        assert (out == 7).all()

    def test_snapshot_chain(self):
        # A copies from B while B copies from C: A must see B's pre-round
        # value, not C's
        states = np.array([10, 20, 30])
        peers = np.array([1, 2, 2])
        out = run_iteration(states, lambda s: s[peers])
        assert list(out) == [20, 30, 30]

    def test_failed_nodes_keep_state(self):
        states = np.array([1, 2, 3, 4])
        failures = np.array([True, False, True, False])
        out = run_iteration(states, lambda s: s + 100, failures)
        assert list(out) == [1, 102, 3, 104]


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
