"""Exact quantile computation: arithmetic helpers, token distribution,
bracketing invariants and end-to-end correctness."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gossipq import exact
from gossipq.engine import FailureModel, RoundEngine, SimConfig
from gossipq.exact import (
    InvariantViolation,
    compute_m,
    distribute_tokens,
    exact_quantile,
    rank_update,
)


class TestComputeM:
    def test_worked_example(self):
        # 1024^0.99 ~ 955.4; half of it over 100 valued nodes ~ 4.78 -> 8
        assert compute_m(1024, 100) == 8

    def test_ratio_below_one(self):
        assert compute_m(1024, 2000) == 1

    def test_strictly_greater(self):
        # ratio exactly a power of two must round up
        n = 1024
        ratio = n ** 0.99 / 2.0
        v = int(math.ceil(ratio / 4.0))
        m = compute_m(n, v)
        assert m > ratio / v

    def test_duplication_meets_target(self):
        for v in (1, 3, 10, 100, 400):
            m = compute_m(4096, v)
            if m > 1:
                assert v * m >= 4096 ** 0.99 / 2.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compute_m(64, 0)


class TestRankUpdate:
    def test_examples(self):
        assert rank_update(500, 301, 4) == 800
        assert rank_update(7, 7, 3) == 3      # answer is the minimum
        assert rank_update(9, 1, 1) == 9      # no-op iteration

    def test_rejects_min_above_target(self):
        with pytest.raises(InvariantViolation):
            rank_update(5, 6, 2)
        with pytest.raises(InvariantViolation):
            rank_update(5, 0, 2)


def _valued_in_bracket(ids, min_id, max_id, real_count):
    """Ids inside [min_id, max_id] that are not sentinels, counted directly."""
    return int(np.count_nonzero((ids >= min_id) & (ids <= max_id) & (ids < real_count)))


class TestValuedCountIdentity:
    """The valued count exact_quantile derives from the two bracket counts,
    min(r(max), real_count) - r(min) + 1 with r(x) = count(ids <= x)."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_direct_count_with_sentinels(self, data):
        n = data.draw(st.integers(1, 40))
        ids = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        real_count = data.draw(st.integers(1, n))
        # either end may be a sentinel (id >= real_count), in either order
        min_id = data.draw(st.integers(0, n - 1))
        max_id = data.draw(st.integers(0, n - 1))
        r_min = int(np.count_nonzero(ids <= min_id))
        r_max = int(np.count_nonzero(ids <= max_id))
        derived = min(r_max, real_count) - r_min + 1
        direct = _valued_in_bracket(ids, min_id, max_id, real_count)
        assert (derived < 1) == (direct == 0)
        if direct:
            assert derived == direct

    @pytest.mark.parametrize("seed", range(4))
    def test_sentinel_upper_end_counts_only_valued_ids(self, monkeypatch, seed):
        # widen the second bracket up to the top id, a sentinel by then:
        # the bracket still holds rank k, and the derived count must leave
        # the sentinels out
        original = exact.narrow_window
        direct = []

        def widened(state, *args):
            min_id, max_id, r_min, r_max, attempts = original(state, *args)
            if len(direct) == 1:
                assert state.real_count < len(state.ids)
                max_id = len(state.ids) - 1
                r_max = max_id + 1
            direct.append(_valued_in_bracket(state.ids, min_id, max_id, state.real_count))
            return min_id, max_id, r_min, r_max, attempts

        monkeypatch.setattr(exact, "narrow_window", widened)
        cfg = SimConfig(n=256, seed=seed)
        values = RoundEngine(cfg).values_rng().permutation(256)
        res = exact_quantile(0.5, cfg, values=values)
        assert res.value == float(np.sort(values)[127])
        assert len(res.details["m_trace"]) >= 2
        assert res.details["v_trace"] == direct

    @pytest.mark.parametrize("mu, seed", [(0.0, s) for s in range(4)] + [(0.5, 0), (0.5, 1)])
    def test_every_iteration_keeps_the_direct_count(self, monkeypatch, mu, seed):
        # each iteration's v_trace entry equals the direct count over the
        # bracket narrow_window returned, and the rebuilt state holds m
        # copies of each of those values
        original, original_rebuild = exact.narrow_window, exact._rebuild_state
        direct, real_counts = [], []

        def recording(state, *args):
            out = original(state, *args)
            direct.append(_valued_in_bracket(state.ids, out[0], out[1], state.real_count))
            return out

        def rebuilding(*args):
            state = original_rebuild(*args)
            real_counts.append(state.real_count)
            return state

        monkeypatch.setattr(exact, "narrow_window", recording)
        monkeypatch.setattr(exact, "_rebuild_state", rebuilding)
        failure = FailureModel(mode="uniform", mu=mu, seed=seed) if mu else FailureModel()
        res = exact_quantile(0.5, SimConfig(n=256, seed=seed, failure=failure))
        assert len(res.details["m_trace"]) >= 1
        assert res.details["v_trace"] == direct
        assert real_counts == [
            m * v for m, v in zip(res.details["m_trace"], res.details["v_trace"])
        ]


def _reference_distribute_tokens(origin_holders, m, engine):
    """The two-loop distribution the one phase loop replaced, kept as the
    reference its draws must match without failures: splitting phases move
    only the heavy tokens until all weights are 1, then relocation phases
    push every token but the first of each pile."""
    v_count = len(origin_holders)
    n = engine.n
    ids = np.full(n, -1, dtype=np.int64)
    holder = np.asarray(origin_holders, dtype=np.int64).copy()
    token = np.arange(v_count, dtype=np.int64) * m
    weight = np.full(v_count, m, dtype=np.int64)
    split_phases = 0
    while bool((weight > 1).any()):
        split = np.nonzero(weight > 1)[0]
        targets, failed = exact._push_token_rounds(holder[split], engine)
        done = split[~failed]
        half = weight[done] // 2
        pushed = token[done]
        weight[done] = half
        token[done] = pushed + half
        token = np.concatenate([token, pushed])
        weight = np.concatenate([weight, half])
        holder = np.concatenate([holder, targets[~failed]])
        split_phases += 1
    relocate_phases = 0
    while int(np.bincount(holder, minlength=n).max()) > 1:
        movers = np.flatnonzero(exact._pile_positions(holder) > 0)
        targets, failed = exact._push_token_rounds(holder[movers], engine)
        holder[movers[~failed]] = targets[~failed]
        relocate_phases += 1
    ids[holder] = token
    return ids, split_phases, relocate_phases


def _check_copies(dist, holders, m):
    """Exactly m copies of each key, with copy ranks 0..m-1, on distinct
    nodes, and each origin holder keeps its key's top copy."""
    placed = dist.ids >= 0
    assert placed.sum() == m * len(holders)
    key, copy_rank = dist.ids[placed] // m, dist.ids[placed] % m
    order = np.lexsort((copy_rank, key))
    assert np.array_equal(key[order], np.repeat(np.arange(len(holders)), m))
    assert np.array_equal(copy_rank[order], np.tile(np.arange(m), len(holders)))
    assert np.array_equal(dist.ids[holders], np.arange(len(holders)) * m + m - 1)


class TestDistributeTokens:
    @pytest.mark.parametrize("n, v_count, m", [
        (64, 1, 4), (256, 20, 8), (512, 22, 16), (1024, 3, 128), (1024, 90, 4),
        (4096, 1, 2048),
    ])
    def test_matches_the_two_loop_reference_without_failures(self, n, v_count, m):
        for seed in range(4):
            cfg = SimConfig(n=n, seed=seed)
            holders = RoundEngine(cfg).values_rng().choice(n, size=v_count, replace=False)
            a, b = RoundEngine(cfg), RoundEngine(cfg)
            dist = distribute_tokens(holders, m, a)
            ids, split_phases, relocate_phases = _reference_distribute_tokens(holders, m, b)
            assert np.array_equal(dist.ids, ids)
            assert (dist.split_phases, dist.relocate_phases) == (split_phases, relocate_phases)
            assert dist.split_phases == int(math.log2(m))
            assert (a.rounds, a.messages) == (b.rounds, b.messages)

    @pytest.mark.parametrize("mode", ["uniform", "scheduled"])
    @pytest.mark.parametrize("mu", [0.2, 0.5, 0.75])
    def test_copies_under_failures(self, mode, mu):
        for seed in range(4):
            cfg = SimConfig(n=512, seed=seed,
                            failure=FailureModel(mode=mode, mu=mu, seed=seed))
            engine = RoundEngine(cfg)
            holders = engine.values_rng().choice(512, size=22, replace=False)
            dist = distribute_tokens(holders, 16, engine)
            _check_copies(dist, holders, 16)
            assert dist.split_phases >= 4

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_rounds_are_the_largest_mover_pile_of_each_phase(self, monkeypatch, mu):
        # a phase pushes each node's movers in consecutive rounds, so a
        # call's rounds are the sum over its phases of the most movers on
        # one node, and its phases are split plus relocation phases
        piles = []
        original = exact._push_token_rounds

        def recording(holders, engine):
            piles.append(int(np.bincount(holders).max()))
            return original(holders, engine)

        monkeypatch.setattr(exact, "_push_token_rounds", recording)
        for seed in range(4):
            failure = FailureModel(mode="uniform", mu=mu, seed=seed) if mu else FailureModel()
            engine = RoundEngine(SimConfig(n=1024, seed=seed, failure=failure))
            holders = engine.values_rng().choice(1024, size=40, replace=False)
            piles.clear()
            dist = distribute_tokens(holders, 16, engine)
            assert engine.rounds == sum(piles)
            assert len(piles) == dist.split_phases + dist.relocate_phases
            assert max(piles) > 1

    def test_m_one_is_identity(self):
        engine = RoundEngine(SimConfig(n=32, seed=1))
        holders = np.array([4, 9, 20])
        dist = distribute_tokens(holders, 1, engine)
        assert engine.rounds == 0
        assert list(dist.ids[holders] // 1) == [0, 1, 2]
        assert (dist.ids[holders] % 1 == 0).all()
        assert (np.delete(dist.ids, holders) == -1).all()

    def test_single_value_four_copies(self):
        engine = RoundEngine(SimConfig(n=64, seed=2))
        dist = distribute_tokens(np.array([10]), 4, engine)
        placed = dist.ids >= 0
        assert placed.sum() == 4
        assert sorted(dist.ids[placed] % 4) == [0, 1, 2, 3]

    def test_copy_multiplicity_and_ranks(self):
        engine = RoundEngine(SimConfig(n=256, seed=3))
        holders = engine.values_rng().choice(256, size=20, replace=False)
        dist = distribute_tokens(holders, 8, engine)
        placed = np.nonzero(dist.ids >= 0)[0]
        assert len(placed) == 160
        key, copy_rank = dist.ids[placed] // 8, dist.ids[placed] % 8
        for c in range(20):
            ranks = sorted(copy_rank[key == c])
            assert ranks == list(range(8))

    def test_original_holder_keeps_top_copy(self):
        engine = RoundEngine(SimConfig(n=128, seed=4))
        holders = np.array([5, 77])
        dist = distribute_tokens(holders, 4, engine)
        assert dist.ids[5] % 4 == 3 and dist.ids[5] // 4 == 0
        assert dist.ids[77] % 4 == 3 and dist.ids[77] // 4 == 1

    def test_weight_conservation_via_final_multiplicity(self):
        # splits preserve the per-origin weight sum, so exactly m weight-1
        # copies of every origin must exist at the end; 22 origins x 16
        # copies on 512 nodes is 69% fill, under the FILL_CAP the protocol
        # never exceeds
        engine = RoundEngine(SimConfig(n=512, seed=5))
        holders = engine.values_rng().choice(512, size=22, replace=False)
        dist = distribute_tokens(holders, 16, engine)
        placed = dist.ids >= 0
        counts = np.bincount(dist.ids[placed] // 16, minlength=22)
        assert (counts == 16).all()

    def test_overfilled_population_conserves_or_fails_cleanly(self):
        # 30 x 16 copies on 512 nodes is 94% fill, above FILL_CAP:
        # the distribution may run out of phases, but it must then raise its own
        # failure, never return a wrong multiplicity
        from gossipq.exact import TrialFailure
        for seed in range(60):
            engine = RoundEngine(SimConfig(n=512, seed=seed))
            holders = engine.values_rng().choice(512, size=30, replace=False)
            try:
                dist = distribute_tokens(holders, 16, engine)
            except TrialFailure as exc:
                assert str(exc) == "token distribution exceeded its phase cap"
                continue
            placed = dist.ids >= 0
            counts = np.bincount(dist.ids[placed] // 16, minlength=30)
            assert (counts == 16).all()

    def test_refuses_overfull_population(self):
        engine = RoundEngine(SimConfig(n=16, seed=1))
        from gossipq.exact import TrialFailure
        with pytest.raises(TrialFailure):
            distribute_tokens(np.arange(9), 2, engine)

    def test_robust_mu_zero_identical(self):
        # a mu=0 failure model and phi tracking leave every draw unchanged
        cfg = SimConfig(n=512, seed=6)
        h = RoundEngine(cfg).values_rng().choice(512, size=40, replace=False)
        d1 = distribute_tokens(h, 4, RoundEngine(cfg))
        cfg0 = SimConfig(n=512, seed=6,
                         failure=FailureModel(mode="uniform", mu=0.0, seed=6))
        d2 = distribute_tokens(h, 4, RoundEngine(cfg0), track_phi=True)
        assert np.array_equal(d1.ids // 4, d2.ids // 4)
        assert np.array_equal(d1.ids % 4, d2.ids % 4)

    def test_potential_decay_under_failures(self):
        # E[Phi(i+1) | Phi(i)] <= (1 - (1-mu)/2) Phi(i) = 0.75 Phi(i)
        ratios = []
        for seed in range(20):
            cfg = SimConfig(
                n=2048, seed=seed,
                failure=FailureModel(mode="uniform", mu=0.5, seed=seed),
            )
            engine = RoundEngine(cfg)
            holders = engine.values_rng().choice(2048, size=256, replace=False)
            dist = distribute_tokens(holders, 4, engine, track_phi=True)
            tr = dist.phi_trace
            ratios += [b / a for a, b in zip(tr, tr[1:]) if a > 0 and b > 0]
        ratios = np.array(ratios)
        sigma = ratios.std() / math.sqrt(len(ratios))
        assert ratios.mean() <= 0.75 + 3 * sigma

    def test_deterministic(self):
        cfg = SimConfig(n=256, seed=9)
        h = RoundEngine(cfg).values_rng().choice(256, size=10, replace=False)
        a = distribute_tokens(h, 8, RoundEngine(cfg))
        b = distribute_tokens(h, 8, RoundEngine(cfg))
        assert np.array_equal(a.ids // 8, b.ids // 8)
        assert np.array_equal(a.ids % 8, b.ids % 8)


class TestExactQuantile:
    def test_worked_example_n8(self):
        values = np.array([14, 10, 17, 12, 13, 16, 11, 15])
        res = exact_quantile(0.5, SimConfig(n=8, seed=3), values=values)
        assert res.value == 13.0

    def test_single_node(self):
        # one node is an all-equal valued range: answered in no round
        res = exact_quantile(0.9, SimConfig(n=1, seed=1), values=np.array([42]))
        assert res.value == 42.0 and res.rounds == 0
        assert res.details["exit"] == "all-equal"

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_tiny_n_stops_when_an_iteration_changes_nothing(self, n):
        # an iteration that keeps every survivor at one copy leaves the
        # state unchanged, so the trial goes to the final run at once
        cfg = SimConfig(n=n, seed=1)
        values = RoundEngine(cfg).values_rng().permutation(n)
        res = exact_quantile(0.0, cfg, values=values)
        assert len(res.details["m_trace"]) < exact.MAX_ITERATIONS
        assert res.details["m_trace"][-1] == 1
        assert res.value == float(np.sort(values)[0])

    def test_all_values_equal_input(self):
        res = exact_quantile(0.5, SimConfig(n=64, seed=2), values=np.full(64, 7.0))
        assert res.value == 7.0
        assert res.details.get("exit") == "all-equal"

    def test_extreme_quantiles(self):
        values = np.arange(100) * 3
        for phi, expect in ((0.0, 0.0), (1.0, 297.0), (0.01, 0.0)):
            res = exact_quantile(phi, SimConfig(n=100, seed=7), values=values)
            assert res.value == expect

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9])
    def test_matches_sort_oracle(self, n, phi):
        for seed in range(5):
            cfg = SimConfig(n=n, seed=seed)
            values = RoundEngine(cfg).values_rng().permutation(n)
            oracle = float(np.sort(values)[math.ceil(phi * n) - 1])
            res = exact_quantile(phi, cfg, values=values)
            assert res.value == oracle

    def test_deterministic(self):
        cfg = SimConfig(n=512, seed=31)
        a = exact_quantile(0.4, cfg)
        b = exact_quantile(0.4, cfg)
        assert a.value == b.value and a.rounds == b.rounds

    def test_answer_block_invariant(self, monkeypatch):
        # after every iteration the oracle-sorted state has all ranks in
        # (k - copies, k] equal to the true answer
        cfg = SimConfig(n=1024, seed=12)
        values = RoundEngine(cfg).values_rng().permutation(1024)
        ans = float(np.sort(values)[math.ceil(0.5 * 1024) - 1])
        value_by_rank = np.sort(values).astype(float)
        rebuild, update = exact._rebuild_state, exact.rank_update
        states, ks = [], []
        monkeypatch.setattr(exact, "_rebuild_state",
                            lambda *args: states.append(rebuild(*args)) or states[-1])
        monkeypatch.setattr(exact, "rank_update", lambda *args: ks.append(update(*args)) or ks[-1])

        res = exact_quantile(0.5, cfg, values=values)
        assert res.value == ans
        copies_trace = res.details["copies_trace"]
        assert states and len(states) == len(ks) == len(copies_trace)
        for state, k, copies in zip(states, ks, copies_trace):
            assert (value_by_rank[state.rank_by_id[k - copies:k]] == ans).all()

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_state_is_canonical_after_every_iteration(self, monkeypatch, mu):
        # ids stay a permutation of 0..n-1, the rank table stays sorted, and
        # the sentinel ids sit exactly on the nodes the tokens left empty
        original, rebuild = exact.distribute_tokens, exact._rebuild_state
        dists, checked = [], []

        def recording(*args, **kwargs):
            dists.append(original(*args, **kwargs))
            return dists[-1]

        def check(*args):
            state = rebuild(*args)
            n = len(state.ids)
            assert np.array_equal(np.sort(state.ids), np.arange(n))
            assert (np.diff(state.rank_by_id) >= 0).all()
            assert np.array_equal(state.ids >= state.real_count, dists[-1].ids < 0)
            checked.append(state.real_count)
            return state

        monkeypatch.setattr(exact, "distribute_tokens", recording)
        monkeypatch.setattr(exact, "_rebuild_state", check)
        for seed in range(3):
            failure = FailureModel(mode="uniform", mu=mu, seed=seed) if mu else FailureModel()
            cfg = SimConfig(n=512, seed=seed, failure=failure)
            values = RoundEngine(cfg).values_rng().integers(0, 64, size=512)
            res = exact_quantile(0.5, cfg, values=values)
            assert res.value == float(np.sort(values)[255])
        assert len(checked) >= 3 and min(checked) < 512

    @pytest.mark.xfail(strict=True, reason="keys compare in float64 (ROADMAP: carry keys end to end)")
    @pytest.mark.parametrize("seed", range(10))
    def test_int64_keys_above_2_pow_53(self, seed):
        cfg = SimConfig(n=256, seed=seed)
        values = 2**60 + 3 * RoundEngine(cfg).values_rng().permutation(256).astype(np.int64)
        res = exact_quantile(0.5, cfg, values=values)
        assert int(res.value) == int(np.sort(values)[128 - 1])

    def test_window_size_within_derived_bound(self):
        # for iterations bracketed on the first attempt, the surviving
        # window holds at most 2 eps n + 2 M values
        cfg = SimConfig(n=4096, seed=2)
        res = exact_quantile(0.5, cfg)
        eps = exact.NARROW_EPS
        copies_before = [1] + res.details["copies_trace"][:-1]
        for v, attempts, m_prev in zip(
            res.details["v_trace"], res.details["attempts_trace"], copies_before
        ):
            if attempts == 1:
                assert v <= 2 * eps * 4096 + 2 * m_prev + 2

    def test_trial_report_counters_accumulate(self):
        res = exact_quantile(0.5, SimConfig(n=256, seed=3))
        assert res.rounds > 0 and res.messages > 0


def test_widest_eps_runs(monkeypatch):
    # the brackets run at eps/2 = 1/8, the tournaments' widest accuracy
    monkeypatch.setattr(exact, "NARROW_EPS", 0.25)
    values = np.random.default_rng(3).permutation(256)
    res = exact_quantile(0.5, SimConfig(n=256, seed=3), values=values)
    assert res.value == np.sort(values)[127]


class TestRobustExact:
    def test_mu_zero_identical(self):
        cfg = SimConfig(n=512, seed=5)
        a = exact_quantile(0.3, cfg)
        b = exact_quantile(0.3, cfg)
        assert a.value == b.value and a.rounds == b.rounds

    def test_adoption_without_failures_is_a_no_op(self, monkeypatch):
        # adoption closes every trial; without failures every node already
        # answers after the final run, so it runs no round and draws nothing
        real, seen = exact.adoption_rounds, []

        def recording(outputs, has_output, t_extra, engine):
            before = (engine.rounds, engine.messages, engine.rng.bit_generator.state)
            result = real(outputs, has_output, t_extra, engine)
            seen.append((before, (engine.rounds, engine.messages,
                                  engine.rng.bit_generator.state), bool(has_output.all())))
            return result

        monkeypatch.setattr(exact, "adoption_rounds", recording)
        res = exact_quantile(0.3, SimConfig(n=512, seed=5))
        assert len(seen) == 1
        before, after, all_answered = seen[0]
        assert all_answered and before == after
        assert res.details["nodes_with_answer"] == 512

    def test_heavy_failures_still_exact(self):
        for seed in range(5):
            cfg = SimConfig(
                n=1024, seed=seed,
                failure=FailureModel(mode="uniform", mu=0.5, seed=seed),
            )
            values = RoundEngine(cfg).values_rng().permutation(1024)
            oracle = float(np.sort(values)[512 - 1])
            res = exact_quantile(0.5, cfg, values=values)
            assert res.value == oracle
            assert res.details["nodes_with_answer"] >= 1024 // 2
