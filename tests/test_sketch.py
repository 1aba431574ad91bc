"""Compacting buffer, its deterministic error bound, uniform sampling."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gossipq.engine import RoundEngine, SimConfig
from gossipq.schedules import choose_buffer_size, compaction_error_bound
from gossipq.sketch import (
    CompactedBuffer,
    compaction_error_check,
    deserialize_buffer,
    doubling_gossip_estimate,
    doubling_update,
    quantile_query,
    rank_query,
    sample_size,
    serialize_buffer,
    uniform_sample_quantile,
)


class TestDoublingUpdate:
    def test_two_singletons_merge(self):
        a = CompactedBuffer.singleton(4, 4)
        b = CompactedBuffer.singleton(9, 4)
        out = doubling_update(a, b)
        assert list(out.elements) == [4, 9]
        assert out.weight == 1

    def test_two_full_buffers_compact_once(self):
        a = CompactedBuffer(np.array([1, 3, 5, 7]), 1, 4)
        b = CompactedBuffer(np.array([2, 4, 6, 8]), 1, 4)
        out = doubling_update(a, b)
        assert len(out.elements) == 4
        assert out.weight == 2
        assert list(out.elements) == [2, 4, 6, 8]

    def test_weighted_size_additive(self):
        a = CompactedBuffer(np.array([1, 3, 5, 7]), 2, 4)
        b = CompactedBuffer(np.array([2, 4, 6, 8]), 2, 4)
        out = doubling_update(a, b)
        assert out.weighted_size == a.weighted_size + b.weighted_size

    def test_mismatched_weights_rejected(self):
        a = CompactedBuffer(np.array([1]), 1, 4)
        b = CompactedBuffer(np.array([2]), 2, 4)
        with pytest.raises(ValueError):
            doubling_update(a, b)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=32),
           st.integers(1, 16), st.integers(0, 2**30))
    def test_depends_only_on_merged_multiset(self, items, k, shuffle_seed):
        # any split of the same multiset into two buffers merges alike
        shuffled = list(items)
        np.random.default_rng(shuffle_seed).shuffle(shuffled)
        outs = []
        for seq in (items, shuffled):
            half = len(seq) // 2
            a = CompactedBuffer(np.sort(seq[:half]), 1, k)
            b = CompactedBuffer(np.sort(seq[half:]), 1, k)
            outs.append(doubling_update(a, b))
        assert np.array_equal(outs[0].elements, outs[1].elements)
        assert outs[0].weight == outs[1].weight

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30), st.integers(1, 5))
    def test_weighted_size_conserved_through_tree(self, seed, levels):
        # 2^levels singletons merged pairwise keep total weighted size
        rng = np.random.default_rng(seed)
        k = 4
        bufs = [CompactedBuffer.singleton(int(x), k)
                for x in rng.integers(0, 10**6, size=2 ** levels)]
        while len(bufs) > 1:
            bufs = [doubling_update(bufs[i], bufs[i + 1])
                    for i in range(0, len(bufs), 2)]
        assert bufs[0].weighted_size == 2 ** levels


class TestQueries:
    def test_rank_examples(self):
        b = CompactedBuffer(np.array([3, 7]), 2, 2)
        assert rank_query(b, 2) == 0
        assert rank_query(b, 5) == 2
        assert rank_query(b, 9) == 4
        assert quantile_query(b, 5) == 0.5

    def test_compaction_rank_parity(self):
        # z=4 over {1,3,5,7} w=1: rank 2 (even) is preserved; z=5: rank 3
        # (odd) loses exactly the old weight
        pre = CompactedBuffer(np.array([1, 3, 5, 7]), 1, 2)
        post = CompactedBuffer(np.array([3, 7]), 2, 2)
        assert rank_query(pre, 4) == 2 and rank_query(post, 4) == 2
        assert rank_query(pre, 5) == 3 and rank_query(post, 5) == 2

    def test_empty_buffer_query_error(self):
        empty = CompactedBuffer(np.array([], dtype=np.int64), 1, 4)
        with pytest.raises(ValueError):
            rank_query(empty, 3)


class TestSerialization:
    def test_round_trip(self):
        buf = CompactedBuffer(np.array([2, 4, 6, 8]), 2, 4)
        again = deserialize_buffer(serialize_buffer(buf))
        assert np.array_equal(again.elements, buf.elements)
        assert again.weight == 2 and again.capacity == 4

    def test_golden_bytes(self):
        buf = CompactedBuffer(np.array([1, 300]), 4, 8)
        expected = (
            (2).to_bytes(8, "little")
            + (1).to_bytes(8, "little")
            + (300).to_bytes(8, "little")
            + (4).to_bytes(8, "little")
            + (8).to_bytes(8, "little")
        )
        assert serialize_buffer(buf) == expected


class TestErrorBoundCheck:
    def test_no_compaction_no_error(self):
        data = np.random.default_rng(1).permutation(64)
        assert compaction_error_check(64, 64, data) == 0

    def test_random_datasets_stay_bounded(self):
        rng = np.random.default_rng(7)
        for n_prime, k in ((1024, 64), (512, 32)):
            for _ in range(20):
                data = rng.permutation(n_prime).astype(np.int64)
                err = compaction_error_check(n_prime, k, data)
                assert err <= compaction_error_bound(n_prime, k)

    def test_adversarial_sorted_input(self):
        err = compaction_error_check(4096, 64, np.arange(4096))
        assert err <= compaction_error_bound(4096, 64)

    def test_full_z_sweep_beyond_data(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 10**6, size=1024).astype(np.int64)
        zs = np.concatenate([data, data - 1, data + 1, [-10**9, 10**9]])
        err = compaction_error_check(1024, 32, data, z_values=zs)
        assert err <= compaction_error_bound(1024, 32)

    def test_vectorized_tree_matches_buffer_objects(self):
        # same merge tree built from CompactedBuffer objects gives the
        # same compacted summary as the level-vectorized engine
        rng = np.random.default_rng(5)
        data = rng.permutation(64).astype(np.int64)
        k = 8
        bufs = [CompactedBuffer.singleton(int(x), k) for x in data]
        while len(bufs) > 1:
            bufs = [doubling_update(bufs[i], bufs[i + 1])
                    for i in range(0, len(bufs), 2)]
        from gossipq.sketch import _tree_levels
        elements, weight = _tree_levels(data, k)
        assert np.array_equal(bufs[0].elements, elements)
        assert bufs[0].weight == weight


class TestUniformSampleQuantile:
    def test_all_values_equal(self):
        engine = RoundEngine(SimConfig(n=64, seed=2))
        out = uniform_sample_quantile(0.5, 0.3, engine, np.full(64, 5))
        assert (out == 5).all()

    def test_exhaustive_mode_is_exact(self):
        engine = RoundEngine(SimConfig(n=100, seed=1))
        ids = engine.values_rng().permutation(100)
        out = uniform_sample_quantile(0.37, 0.1, engine, ids, exhaustive=True)
        assert (out == 36).all()  # 0-based id of rank 37

    def test_sample_size_rule(self):
        assert sample_size(10_000, 0.1, c=8) == int(np.ceil(8 * np.log(10_000) / 0.01))

    def test_outputs_within_window_small(self):
        n, eps, phi = 2000, 0.2, 0.5
        hits = 0
        for seed in range(5):
            engine = RoundEngine(SimConfig(n=n, seed=seed))
            ids = engine.values_rng().permutation(n)
            out = uniform_sample_quantile(phi, eps, engine, ids, c=8)
            lo, hi = (phi - 2 * eps) * n, (phi + 2 * eps) * n
            hits += int(out.min() + 1 >= lo and out.max() + 1 <= hi)
        assert hits == 5

    @pytest.mark.slow
    def test_outputs_within_window_full_scale(self):
        # n=1e4, eps=0.1, c=8: every node within phi n +- 2 eps n in >= 99
        # of 100 seeded trials
        n, eps, phi = 10_000, 0.1, 0.5
        hits = 0
        for seed in range(100):
            engine = RoundEngine(SimConfig(n=n, seed=seed))
            ids = engine.values_rng().permutation(n)
            out = uniform_sample_quantile(phi, eps, engine, ids, c=8)
            lo, hi = (phi - 2 * eps) * n, (phi + 2 * eps) * n
            hits += int(out.min() + 1 >= lo and out.max() + 1 <= hi)
        assert hits >= 99


class TestDoublingGossip:
    def test_weighted_size_and_shape(self):
        engine = RoundEngine(SimConfig(n=256, seed=4))
        ids = engine.values_rng().permutation(256)
        buffers, weight = doubling_gossip_estimate(engine, ids, 64, 16)
        assert buffers.shape == (256, 16)
        assert weight * buffers.shape[1] == 64

    def test_end_to_end_quantile_accuracy_smoke(self):
        # reduced-scale version of the full-scale slow test below
        n, eps = 4096, 0.2
        k = choose_buffer_size(eps / 2, n)
        n_prime = 1
        while n_prime < sample_size(n, eps, c=8):
            n_prime *= 2
        hits = 0
        for seed in range(20):
            engine = RoundEngine(SimConfig(n=n, seed=seed))
            ids = engine.values_rng().permutation(n)
            buffers, weight = doubling_gossip_estimate(engine, ids, n_prime, k)
            z = n // 2  # oracle-chosen probe: the median key
            true_q = (z + 1) / n
            est_q = (
                weight * np.sum(buffers <= z, axis=1) / (weight * buffers.shape[1])
            )
            hits += int(np.abs(est_q - true_q).max() <= eps)
        assert hits >= 19

    @pytest.mark.slow
    def test_end_to_end_quantile_accuracy_full_scale(self):
        from concurrent.futures import ThreadPoolExecutor

        n, eps = 100_000, 0.1
        k = choose_buffer_size(eps / 2, n)
        n_prime = 1
        while n_prime < sample_size(n, eps, c=8):
            n_prime *= 2

        def one_trial(seed):
            engine = RoundEngine(SimConfig(n=n, seed=seed))
            ids = engine.values_rng().permutation(n)
            buffers, weight = doubling_gossip_estimate(
                engine, ids, n_prime, k, dtype=np.int32
            )
            z = n // 2
            true_q = (z + 1) / n
            est_q = (
                weight * np.sum(buffers <= z, axis=1)
                / (weight * buffers.shape[1])
            )
            return int(np.abs(est_q - true_q).max() <= eps)

        with ThreadPoolExecutor(max_workers=2) as pool:
            hits = sum(pool.map(one_trial, range(100)))
        assert hits >= 99
