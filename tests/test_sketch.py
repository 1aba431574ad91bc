"""Compacting buffer, its deterministic error bound, doubling gossip."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gossipq import sketch
from gossipq.engine import FailureModel, RoundEngine, SimConfig
from gossipq.schedules import choose_buffer_size, compaction_error_bound
from gossipq.sketch import (
    CompactedBuffer,
    _tree_levels,
    compaction_error_check,
    deserialize_buffer,
    doubling_gossip_estimate,
    doubling_update,
    quantile_query,
    rank_query,
    sample_size,
    serialize_buffer,
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
        elements, weight = _tree_levels(data, k)
        assert np.array_equal(bufs[0].elements, elements)
        assert bufs[0].weight == weight


class TestKeyTypes:
    def test_float_data_rejected(self):
        data = np.random.default_rng(0).random(64)
        with pytest.raises(ValueError):
            compaction_error_check(64, 8, data)

    def test_float_z_values_rejected(self):
        data = np.random.default_rng(0).permutation(64)
        with pytest.raises(ValueError):
            compaction_error_check(64, 8, data, z_values=[2.5])

    def test_float_buffer_rejected(self):
        with pytest.raises(ValueError):
            CompactedBuffer([0.9, 1.5], 1, 4)
        with pytest.raises(ValueError):
            CompactedBuffer.singleton(0.5, 4)

    def test_float_gossip_ids_rejected(self):
        engine = RoundEngine(SimConfig(n=64, seed=1))
        with pytest.raises(ValueError):
            doubling_gossip_estimate(engine, np.arange(64) + 0.75, 8, 4)

    def test_uint64_beyond_int64_rejected(self):
        with pytest.raises(ValueError):
            CompactedBuffer(np.array([1, 2**63], dtype=np.uint64), 1, 4)

    def test_narrow_integer_dtypes_accepted(self):
        data = np.random.default_rng(2).permutation(256)
        want = compaction_error_check(256, 16, data)
        for dtype in (np.int32, np.uint16, np.uint64):
            assert compaction_error_check(256, 16, data.astype(dtype)) == want
        buf = CompactedBuffer(np.array([3, 9], dtype=np.uint8), 1, 4)
        assert buf.elements.dtype == np.int64
        assert CompactedBuffer([], 1, 4).elements.dtype == np.int64


def _reference_tree_levels(data, k):
    """The level-by-level merge tree _tree_levels replaced, starting from
    width 1 (and never compacting without a capacity), kept as the
    reference its output must match."""
    n_prime = len(data)
    level = np.sort(np.asarray(data, dtype=np.int64).reshape(n_prime, 1), axis=1)
    weight = 1
    while level.shape[0] > 1:
        merged = np.concatenate([level[0::2], level[1::2]], axis=1)
        merged.sort(axis=1)
        if k is not None and merged.shape[1] > k:
            merged = merged[:, 1::2]
            weight *= 2
        level = merged
    return level[0], weight


def _reference_error(n_prime, k, data, z_values=None):
    """The two-tree, full-sweep compaction_error_check replaced: the rank
    error at every data element (or at ``z_values``), without the bound."""
    data = np.asarray(data, dtype=np.int64)
    full, w_full = _reference_tree_levels(data, None)
    tilde, w_tilde = _reference_tree_levels(data, k)
    assert w_full == 1 and len(tilde) * w_tilde == n_prime
    zs = data if z_values is None else np.asarray(z_values, dtype=np.int64)
    r_full = np.searchsorted(full, zs, side="right")
    r_tilde = w_tilde * np.searchsorted(tilde, zs, side="right")
    return int(np.abs(r_full - r_tilde).max())


def _reference_doubling_update(buf_a, buf_b):
    """The one-dimensional merge doubling_update replaced."""
    k = buf_a.capacity
    merged = np.concatenate([buf_a.elements, buf_b.elements])
    merged.sort()
    if len(merged) <= k:
        return merged, buf_a.weight
    return merged[1::2], buf_a.weight * 2


def _reference_gossip_estimate(engine, ids, n_prime, k, dtype):
    """The three-branch doubling_gossip_estimate replaced, with its
    caller-chosen id dtype (int32 by default there)."""
    n = engine.n
    rounds = int(math.log2(n_prime)) + 1
    rd = engine.next_round()
    seed_peers = rd.peers()
    buffers = np.asarray(ids, dtype=dtype)[seed_peers].reshape(n, 1)
    weight = 1
    scratch = None
    for _ in range(rounds - 1):
        rd = engine.next_round()
        size = buffers.shape[1]
        peers = rd.peers(message_weight=size)
        if 2 * size > k:
            if scratch is None or scratch.shape[1] != 2 * size:
                scratch = np.empty((n, 2 * size), dtype=dtype)
            scratch[:, :size] = buffers
            scratch[:, size:] = buffers[peers]
            scratch.sort(axis=1)
            if size == k:
                np.copyto(buffers, scratch[:, 1::2])
            else:
                buffers = scratch[:, 1::2].copy()
            weight *= 2
        else:
            merged = np.concatenate([buffers, buffers[peers]], axis=1)
            merged.sort(axis=1)
            buffers = merged
    return buffers, weight


INT64_EDGES = np.array(
    [-(2**63 - 1), -(2**63 - 2), -(2**53) - 1, -1, 0, 1, 2**53 + 1, 2**63 - 2, 2**63 - 1],
    dtype=np.int64,
)


@st.composite
def merge_tree_inputs(draw):
    """(n', k, data): n' = 2^1..2^12, every power-of-two k <= n', and data
    that is a permutation, heavily tied, sorted, reversed or int64 edges."""
    levels = draw(st.integers(1, 12))
    n_prime = 2**levels
    k = 2 ** draw(st.integers(0, levels))
    shape = draw(st.sampled_from(["permutation", "ties", "sorted", "reversed", "edges"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "permutation":
        data = rng.permutation(n_prime)
    elif shape == "ties":
        data = rng.integers(0, draw(st.integers(1, 4)), size=n_prime)
    elif shape == "edges":
        data = rng.choice(INT64_EDGES, size=n_prime)
    else:
        data = np.sort(rng.integers(-(10**6), 10**6, size=n_prime))
        if shape == "reversed":
            data = data[::-1]
    return n_prime, k, np.ascontiguousarray(data, dtype=np.int64)


class TestErrorCheckMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(merge_tree_inputs())
    def test_error_tilde_and_weight(self, case):
        n_prime, k, data = case
        want = _reference_error(n_prime, k, data)
        assert compaction_error_check(n_prime, k, data) == want
        tilde, weight = _tree_levels(data, k)
        ref_tilde, ref_weight = _reference_tree_levels(data, k)
        assert np.array_equal(tilde, ref_tilde)
        assert weight == ref_weight

    @settings(max_examples=100, deadline=None)
    @given(merge_tree_inputs())
    def test_raise_exactly_when_error_exceeds_bound(self, case):
        # the real bound is never exceeded, so the check runs against a
        # cap just below and at the reference error
        n_prime, k, data = case
        want = _reference_error(n_prime, k, data)
        for cap in (want - 1, want):
            with mock.patch.object(sketch, "compaction_error_bound", lambda n, c: cap):
                if cap < want:
                    with pytest.raises(AssertionError, match=f"error {want} exceeded"):
                        compaction_error_check(n_prime, k, data)
                else:
                    assert compaction_error_check(n_prime, k, data) == want

    @settings(max_examples=100, deadline=None)
    @given(merge_tree_inputs(), st.integers(0, 2**32 - 1))
    def test_explicit_z_values_sweep_every_point(self, case, seed):
        n_prime, k, data = case
        rng = np.random.default_rng(seed)
        zs = np.concatenate([
            rng.choice(data, size=32),
            rng.choice(INT64_EDGES, size=8),
            rng.integers(-(2**63), 2**63 - 1, size=8, endpoint=True),
        ])
        want = _reference_error(n_prime, k, data, zs)
        assert compaction_error_check(n_prime, k, data, z_values=zs) == want


class TestMergeFormsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(INT64_EDGES.tolist()) | st.integers(-50, 50),
                    max_size=20),
           st.lists(st.integers(-50, 50), max_size=20),
           st.integers(0, 5), st.integers(0, 5))
    def test_doubling_update(self, left, right, log_k, log_w):
        k, weight = 2**log_k, 2**log_w
        a = CompactedBuffer(np.sort(np.array(left, dtype=np.int64)), weight, k)
        b = CompactedBuffer(np.sort(np.array(right, dtype=np.int64)), weight, k)
        out = doubling_update(a, b)
        want, want_weight = _reference_doubling_update(a, b)
        assert np.array_equal(out.elements, want)
        assert out.weight == want_weight and out.capacity == k

    @pytest.mark.parametrize("n_prime,k", [(2, 1), (64, 1), (64, 3), (64, 16),
                                           (64, 64), (64, 1000), (256, 6)])
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_doubling_gossip_estimate(self, n_prime, k, mu):
        n, seed = 300, 5
        failure = FailureModel(mode="uniform", mu=mu, seed=seed) if mu else FailureModel()
        ids = np.random.default_rng(seed).permutation(n)
        runs = []
        for call in (lambda e: doubling_gossip_estimate(e, ids, n_prime, k),
                     lambda e: _reference_gossip_estimate(e, ids, n_prime, k, np.int32)):
            engine = RoundEngine(SimConfig(n=n, seed=seed, failure=failure))
            buffers, weight = call(engine)
            runs.append((buffers, weight, engine.rounds, engine.messages))
        (b_new, w_new, r_new, m_new), (b_ref, w_ref, r_ref, m_ref) = runs
        assert b_new.dtype == b_ref.dtype == np.int32
        assert np.array_equal(b_new, b_ref)
        assert w_new == w_ref and r_new == r_ref and m_new == m_ref

    @pytest.mark.parametrize("ids", [2**40 + np.arange(64), -(2**31) - 1 - np.arange(64)])
    def test_doubling_gossip_keeps_wide_ids(self, ids):
        runs = []
        for call in (lambda e: doubling_gossip_estimate(e, ids, 16, 4),
                     lambda e: _reference_gossip_estimate(e, ids, 16, 4, np.int64)):
            engine = RoundEngine(SimConfig(n=64, seed=3))
            buffers, weight = call(engine)
            runs.append((buffers, weight, engine.messages))
        (b_new, w_new, m_new), (b_ref, w_ref, m_ref) = runs
        assert b_new.dtype == np.int64
        assert np.isin(b_new, ids).all()
        assert np.array_equal(b_new, b_ref)
        assert w_new == w_ref and m_new == m_ref


class TestSampleSize:
    def test_sample_size_rule(self):
        assert sample_size(10_000, 0.1, c=8) == int(np.ceil(8 * np.log(10_000) / 0.01))


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
            buffers, weight = doubling_gossip_estimate(engine, ids, n_prime, k)
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
