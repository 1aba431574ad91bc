"""Round engine: RNG substreams, failure draws, snapshot iteration."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gossipq import engine as engine_module, harness
from gossipq.engine import (
    STREAM_FAILURE,
    STREAM_ROUND,
    STREAM_SCHEDULE,
    STREAM_VALUES,
    BudgetExceededError,
    FailureModel,
    RoundEngine,
    SimConfig,
    canonical_ids,
    derive_rng,
    draw_failures,
)
from gossipq.schedules import binomial_below
from gossipq.exact import exact_quantile
from gossipq.tournament import approx_quantile, robust_approx_quantile, tournament_plan

_SEED_EDGES = [0, 1, 2**32, 2**64 - 1, -1, -2**63]


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
    def test_inactive_engine_draws_no_failures(self, monkeypatch):
        # without failures the engine builds no failure stream and never
        # calls draw_failures, in plain rounds or in a batch
        calls = []
        monkeypatch.setattr(engine_module, "draw_failures",
                            lambda *args: calls.append(args))
        engine = RoundEngine(SimConfig(n=1000, seed=7))
        assert engine._failure_rng is None
        assert all(engine.next_round().failed is None for _ in range(5))
        engine.advance_batch(4, np.zeros((1, 5)), 0)
        assert calls == [] and engine.rounds == 9

    def test_uniform_half_fraction(self):
        # binomial 3-sigma band around 0.5 at n=1e6 is +-0.0015
        n = 1_000_000
        model = FailureModel(mode="uniform", mu=0.5)
        bits = draw_failures(model, n, derive_rng(11, STREAM_FAILURE), None)
        assert abs(bits.mean() - 0.5) < 0.002

    def test_reproducible_per_round(self):
        # one call is one block of n uniforms from the stream
        n = 10_000
        model = FailureModel(mode="uniform", mu=0.5)
        rng = derive_rng(3, STREAM_FAILURE)
        a = draw_failures(model, n, rng, None)
        b = draw_failures(model, n, rng, None)
        blocks = derive_rng(3, STREAM_FAILURE).random((2, n)) < 0.5
        assert np.array_equal(a, blocks[0])
        assert np.array_equal(b, blocks[1])
        assert not np.array_equal(a, b)

    def test_scheduled_probabilities_bounded(self):
        # one call reads one n-block of the failure stream and one of the
        # schedule stream: bit v fails when u[v] < p[v] = mu * U[v]
        n, mu = 1000, 0.3
        model = FailureModel(mode="scheduled", mu=mu, seed=5)
        rng, schedule = derive_rng(8, STREAM_FAILURE), derive_rng(5, STREAM_SCHEDULE)
        bits = np.array([draw_failures(model, n, rng, schedule) for _ in range(3)])
        u = derive_rng(8, STREAM_FAILURE).random((3, n))
        p = mu * derive_rng(5, STREAM_SCHEDULE).random((3, n))
        assert (p >= 0).all() and (p <= mu).all()
        assert np.array_equal(bits, u < p)
        assert not (bits & (u >= mu)).any()  # no node fails above mu

    def test_schedule_is_the_model_seed_stream_in_round_order(self):
        # plain rounds and batch rounds alike read the next n-block of one
        # schedule stream, keyed by the model seed alone: engines on other
        # trial seeds test their own failure uniforms against the same p
        n, mu, rounds = 200, 0.6, 12
        model = FailureModel(mode="scheduled", mu=mu, seed=5)
        p = mu * derive_rng(5, STREAM_SCHEDULE).random((rounds, n))
        for seed in (5, 6):
            engine = RoundEngine(SimConfig(n=n, seed=seed, failure=model))
            bits = [engine.next_round().failed for _ in range(4)]
            short = engine.advance_batch(8, np.zeros((1, 9)), 0)
            assert not short.any()
            u = derive_rng(seed, STREAM_FAILURE).random((rounds, n))
            assert np.array_equal(np.array(bits), u[:4] < p[:4])
            assert engine.messages == n * 8 - int(np.count_nonzero(u[4:] < p[4:]))

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
            FailureModel(mode="none")

    def test_every_model_at_mu_zero_is_failure_free(self):
        # the default, "uniform" at mu 0 and "scheduled" at mu 0 are one
        # model: the same trial, draw for draw
        models = [
            FailureModel(), FailureModel("uniform", 0.0), FailureModel("scheduled", 0.0, 1),
        ]

        def trials(failure):
            config = SimConfig(n=300, seed=5, failure=failure)
            approx = approx_quantile(0.3, 0.1, config)
            robust = robust_approx_quantile(0.3, 0.1, 4, config)
            exact = exact_quantile(0.5, SimConfig(n=128, seed=5, failure=failure))
            return [
                (approx.rounds, approx.messages, approx.outputs.tobytes()),
                (robust.rounds, robust.messages, robust.outputs.tobytes()),
                (exact.rounds, exact.messages, exact.value, exact.details),
            ]

        assert not any(model.active for model in models)
        first = trials(models[0])
        assert all(trials(model) == first for model in models[1:])


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


class TestBatch:
    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.8])
    def test_short_chance_is_the_thinned_binomial(self, monkeypatch, mu):
        # under "uniform" a node with good share g is short with chance
        # sum_k P(live = k) P(Bin(k, g) < need), which by binomial thinning
        # is P(Bin(batch, (1 - mu) g) < need): the very table the batch
        # sizes are derived from
        chances = []
        real_short = RoundEngine._short

        def recording(self, chance, index):
            chances.append(chance)
            return real_short(self, chance, index)

        monkeypatch.setattr(RoundEngine, "_short", recording)
        engine = RoundEngine(SimConfig(n=2, seed=1, failure=FailureModel("uniform", mu)))
        for g in (0.0, 0.2, 0.55, 0.9, 1.0):
            for need in (1, 2, 3, 31):
                for batch in (1, 2, 5, 40, 120):
                    engine.advance_batch(batch, binomial_below(g, need, batch), np.array([0, 1]))
                    expected = binomial_below((1.0 - mu) * g, need, batch)[:, batch]
                    assert np.abs(chances[-1] - expected).max() <= 1e-12

    @pytest.mark.parametrize("failure", [
        FailureModel(), FailureModel("uniform", 0.4), FailureModel("scheduled", 0.4, 1),
    ], ids=["mu0", "uniform", "scheduled"])
    def test_messages_count_the_live_pulls(self, failure):
        # with every node short regardless of its live count, the short
        # mask tells nothing, so the messages are the batch's live pulls:
        # Binomial(n * batch, 1 - mu) under "uniform", n * batch without
        # failures, and the per-round bits under "scheduled"
        n, batch, totals = 100, 8, []
        for seed in range(200):
            engine = RoundEngine(SimConfig(n=n, seed=seed, failure=failure))
            short = engine.advance_batch(batch, np.ones((1, batch + 1)), 0)
            assert short.all() and engine.rounds == batch
            totals.append(engine.messages)
        if not failure.active:
            assert set(totals) == {n * batch}
        elif failure.mode == "uniform":
            assert stats.kstest(totals, stats.binom(n * batch, 0.6).cdf).pvalue > 0.01
        else:
            engine = RoundEngine(SimConfig(n=n, seed=199, failure=failure))
            failed = sum(int(engine.next_round().failed.sum()) for _ in range(batch))
            assert totals[-1] == n * batch - failed


class TestPull:
    @pytest.mark.parametrize("mu", [0.0, 0.4])
    @pytest.mark.parametrize("shape", [(50,), (50, 3)])
    def test_pull_is_a_gather_where_the_pull_succeeded(self, mu, shape):
        n, seed = 50, 8
        values = np.arange(np.prod(shape)).reshape(shape)
        actors = np.arange(n) % 3 == 0
        failure = FailureModel(mode="uniform", mu=mu) if mu else FailureModel()
        pulling, peering, sourcing = (RoundEngine(SimConfig(n=n, seed=seed, failure=failure))
                                      for _ in range(3))
        for _ in range(4):
            rd, ref = pulling.next_round(), peering.next_round()
            pulled = rd.pull(values, actors=actors, message_weight=3)
            peers = ref.peers(actors=actors, message_weight=3)
            sources = sourcing.next_round().sources(actors=actors, message_weight=3)
            failed = np.zeros(n, dtype=bool) if mu == 0 else rd.failed
            # a failed puller is its own source
            assert np.array_equal(sources, np.where(failed, np.arange(n), peers))
            assert pulled.shape == shape
            assert np.array_equal(pulled[failed], values[failed])
            assert np.array_equal(pulled[~failed], values[peers][~failed])
            assert pulling.messages == peering.messages == sourcing.messages
        if mu:
            assert failed.any() and not failed.all()
        # the pull drew exactly what peers() draws: the streams stay aligned
        assert np.array_equal(rd.rng.random(4), ref.rng.random(4))


class TestStreams:
    """One generator per stream: failure blocks per round, protocol draws
    in call order."""

    def test_failure_bits_are_blocks_of_one_stream(self, monkeypatch):
        # plain rounds' bits are successive n-blocks of the failure stream;
        # in a mu=0.5 robust trial the pull batches draw no per-round bit,
        # so the only rounds that draw are the adoption rounds, in order
        n, seed, mu = 300, 3, 0.5
        model = FailureModel(mode="uniform", mu=mu, seed=seed)
        engine = RoundEngine(SimConfig(n=n, seed=seed, failure=model))
        bits = [engine.next_round().failed for _ in range(50)]
        blocks = derive_rng(seed, STREAM_FAILURE).random((50, n)) < mu
        assert np.array_equal(np.array(bits), blocks)

        engines, drawn = [], []
        real_init, real_draw = RoundEngine.__init__, engine_module.draw_failures

        def recording_init(self, config):
            real_init(self, config)
            engines.append(self)

        def recording_draw(*args):
            drawn.append(engines[-1].rounds - 1)  # the 0-based round drawing
            return real_draw(*args)

        monkeypatch.setattr(RoundEngine, "__init__", recording_init)
        monkeypatch.setattr(engine_module, "draw_failures", recording_draw)
        report = robust_approx_quantile(0.3, 0.05, 7, SimConfig(n=n, seed=seed, failure=model))
        plan = tournament_plan(report.details["target_rank"], 0.05, n, 30, mu)
        assert len(engines) == 1
        assert plan.rounds < report.rounds  # some adoption rounds ran
        assert drawn == list(range(plan.rounds, report.rounds))

    @pytest.mark.parametrize("seed", _SEED_EDGES)
    def test_peers_are_successive_round_stream_draws(self, seed):
        # failure draws come from their own stream and shift no peer
        n = 40
        model = FailureModel(mode="uniform", mu=0.3)
        engine = RoundEngine(SimConfig(n=n, seed=seed, failure=model))
        reference = derive_rng(seed, STREAM_ROUND)
        for index in range(300):
            rd = engine.next_round()
            assert engine.rounds == index + 1
            assert np.array_equal(rd.peers(), reference.integers(0, n, size=n))

    def test_protocol_draws_follow_call_order(self):
        # phase I draws its coins from a round it holds after later rounds
        # exist: they are the next draws of the round stream
        engine = RoundEngine(SimConfig(n=16, seed=9))
        held = engine.next_round()
        later = engine.next_round()
        reference = derive_rng(9, STREAM_ROUND)
        assert np.array_equal(later.peers(), reference.integers(0, 16, size=16))
        assert np.array_equal(held.rng.random(8), reference.random(8))

    @pytest.mark.parametrize("mu, streams", [
        (0.0, [STREAM_ROUND]), (0.5, [STREAM_ROUND, STREAM_FAILURE]),
    ])
    def test_each_stream_built_once(self, generators, mu, streams):
        failure = FailureModel(mode="uniform", mu=mu) if mu else FailureModel()
        engine = RoundEngine(SimConfig(n=8, seed=4, failure=failure))
        for _ in range(600):
            engine.next_round().peers()
        assert generators == [(4, tag) for tag in streams]

    def test_schedule_stream_built_once(self, generators):
        # a 200-round scheduled engine, plain rounds and a batch, builds
        # its round, failure and schedule streams and nothing per round
        model = FailureModel(mode="scheduled", mu=0.5, seed=9)
        engine = RoundEngine(SimConfig(n=50, seed=4, failure=model))
        for _ in range(150):
            engine.next_round().peers()
        engine.advance_batch(50, np.zeros((1, 51)), 0)
        assert engine.rounds == 200
        assert generators == [(4, STREAM_ROUND), (4, STREAM_FAILURE), (9, STREAM_SCHEDULE)]

    def test_self_quantile_trial_is_one_engine(self, generators):
        # its nine grid tournaments share the trial's round stream; the
        # values stream gives the default input
        harness.self_quantile(0.1, SimConfig(n=300, seed=2))
        assert generators == [(2, STREAM_ROUND), (2, STREAM_VALUES)]


@pytest.fixture
def generators(monkeypatch):
    """The ``(seed, *key)`` of every generator ``engine.derive_rng`` builds."""
    calls = []
    reference = engine_module.derive_rng

    def recording(seed, *key):
        calls.append((seed, *key))
        return reference(seed, *key)

    monkeypatch.setattr(engine_module, "derive_rng", recording)
    return calls


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

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.one_of(
            st.integers(-3, 3),  # ties
            st.integers(-2**63, 2**63 - 1),
            st.sampled_from([-2**63, 2**63 - 1, 2**53, 2**53 + 1]),
        ), max_size=40).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.one_of(
            st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0]),
            st.floats(allow_nan=True),
        ), max_size=40).map(lambda v: np.array(v, dtype=np.float64)),
    ))
    def test_same_ids_as_the_stable_argsort(self, values):
        # the unstable fast path must give the stable sort's ids, ties,
        # +-0.0 (equal, so tied) and NaN (equal to nothing) included
        order = np.argsort(values, kind="stable")
        expected = np.empty(len(values), dtype=np.int64)
        expected[order] = np.arange(len(values))
        ids, by_rank = canonical_ids(values)
        assert np.array_equal(ids, expected)
        assert np.array_equal(by_rank, values[order], equal_nan=True)
        assert np.array_equal(np.signbit(by_rank), np.signbit(values[order]))
