"""Compaction kernel, its deterministic error bound, doubling gossip."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gossipq import sketch
from gossipq.engine import STREAM_FAILURE, FailureModel, RoundEngine, SimConfig, derive_rng
from gossipq.schedules import choose_buffer_size, compaction_error_bound
from gossipq.sketch import (
    _merge_compact,
    _tree_levels,
    compaction_error_check,
    doubling_gossip_estimate,
    sample_size,
)


class TestMergeCompact:
    def test_two_singletons_merge(self):
        block, factor = _merge_compact(np.array([[9]]), np.array([[4]]), 4)
        assert block.tolist() == [[4, 9]]
        assert factor == 1

    def test_two_full_buffers_compact_once(self):
        left, right = np.array([[1, 3, 5, 7]]), np.array([[2, 4, 6, 8]])
        block, factor = _merge_compact(left, right, 4)
        assert block.tolist() == [[2, 4, 6, 8]]
        assert factor == 2

    def test_compaction_rank_parity(self):
        # z=4 over {1,3,5,7} at weight 1: rank 2 (even) is kept; z=5: rank 3
        # (odd) loses exactly the old weight
        full = np.array([1, 3, 5, 7])
        block, factor = _merge_compact(np.array([[1, 5]]), np.array([[3, 7]]), 2)
        assert block.tolist() == [[3, 7]] and factor == 2
        for z, want_full, want_tilde in ((4, 2, 2), (5, 3, 2), (0, 0, 0), (9, 4, 4)):
            assert np.searchsorted(full, z, side="right") == want_full
            assert factor * np.searchsorted(block[0], z, side="right") == want_tilde

    def test_rows_merge_independently(self):
        rng = np.random.default_rng(4)
        left = np.sort(rng.integers(0, 100, size=(5, 4)), axis=1)
        right = np.sort(rng.integers(0, 100, size=(5, 4)), axis=1)
        block, factor = _merge_compact(left, right, 4)
        assert factor == 2
        for row in range(5):
            want = np.sort(np.concatenate([left[row], right[row]]))[1::2]
            assert np.array_equal(block[row], want)

    @pytest.mark.parametrize("k", [8, 4])
    def test_merges_into_the_given_block(self, k):
        left, right = np.array([[1, 3, 5, 7]]), np.array([[2, 4, 6, 8]])
        out = np.empty((1, 8), dtype=left.dtype)
        block, _ = _merge_compact(left, right, k, out)
        assert np.shares_memory(block, out)
        assert out.tolist() == [[1, 2, 3, 4, 5, 6, 7, 8]]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=32),
           st.integers(1, 16), st.integers(0, 2**30))
    def test_depends_only_on_merged_multiset(self, items, k, shuffle_seed):
        # any split of the same multiset into two halves merges alike
        shuffled = list(items)
        np.random.default_rng(shuffle_seed).shuffle(shuffled)
        outs = []
        for seq in (items, shuffled):
            half = len(seq) // 2
            left = np.sort(seq[:half]).reshape(1, -1)
            right = np.sort(seq[half:]).reshape(1, -1)
            outs.append(_merge_compact(left, right, k))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]


class TestTreeLevels:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30), st.integers(1, 10), st.integers(0, 10))
    def test_weighted_size_conserved_through_tree(self, seed, levels, k_levels):
        # 2^levels keys merged pairwise keep their total weighted size
        n_prime, k = 2**levels, 2 ** min(k_levels, levels)
        data = np.random.default_rng(seed).integers(0, 10**6, size=n_prime)
        tilde, weight = _tree_levels(data, k)
        assert len(tilde) * weight == n_prime
        assert len(tilde) == min(k, n_prime)
        assert np.all(np.diff(tilde) >= 0)


class TestInputChecks:
    def test_error_check_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="n_prime"):
            compaction_error_check(64, 8, np.arange(32))

    @pytest.mark.parametrize("n_prime", [0, 1, 3, 12])
    def test_gossip_rejects_n_prime_not_a_power_of_two(self, n_prime):
        engine = RoundEngine(SimConfig(n=64, seed=1))
        with pytest.raises(ValueError, match="power of two"):
            doubling_gossip_estimate(engine, np.arange(64), n_prime, 4)
        assert engine.rounds == 0


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
        # the bound holds at every point, not only at the data elements
        rng = np.random.default_rng(3)
        data = rng.integers(0, 10**6, size=1024).astype(np.int64)
        zs = np.concatenate([data, data - 1, data + 1, [-10**9, 10**9]])
        err = _tree_error(32, data, zs)
        assert err == _reference_error(1024, 32, data, zs)
        assert err <= compaction_error_bound(1024, 32)


class TestKeyTypes:
    def test_float_data_rejected(self):
        data = np.random.default_rng(0).random(64)
        with pytest.raises(ValueError):
            compaction_error_check(64, 8, data)

    def test_integral_floats_rejected(self):
        # the dtype, not the values, decides: whole-number floats raise too
        keys = np.arange(64, dtype=np.float64)
        with pytest.raises(ValueError):
            compaction_error_check(64, 8, keys)
        with pytest.raises(ValueError):
            doubling_gossip_estimate(RoundEngine(SimConfig(n=64, seed=1)), keys, 8, 4)

    def test_float_gossip_ids_rejected(self):
        engine = RoundEngine(SimConfig(n=64, seed=1))
        with pytest.raises(ValueError):
            doubling_gossip_estimate(engine, np.arange(64) + 0.75, 8, 4)

    def test_uint64_beyond_int64_rejected(self):
        keys = np.arange(64, dtype=np.uint64)
        keys[5] = 2**63
        with pytest.raises(ValueError):
            compaction_error_check(64, 8, keys)
        with pytest.raises(ValueError):
            doubling_gossip_estimate(RoundEngine(SimConfig(n=64, seed=1)), keys, 8, 4)

    def test_narrow_integer_dtypes_accepted(self):
        data = np.random.default_rng(2).permutation(256)
        want = compaction_error_check(256, 16, data)
        for dtype in (np.int32, np.uint16, np.uint64):
            assert compaction_error_check(256, 16, data.astype(dtype)) == want
        ids = data[:200]
        runs = []
        for dtype in (np.int64, np.uint8, np.int16, np.uint64):
            engine = RoundEngine(SimConfig(n=200, seed=2))
            runs.append(doubling_gossip_estimate(engine, ids.astype(dtype), 16, 4))
        for buffers, weight in runs:
            assert buffers.dtype == np.int32
            assert np.array_equal(buffers, runs[0][0]) and weight == runs[0][1]


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


def _tree_error(k, data, zs):
    """The rank error of ``_tree_levels``' compacted output at each of ``zs``."""
    tilde, w_tilde = _tree_levels(np.asarray(data, dtype=np.int64), k)
    r_full = np.searchsorted(np.sort(data), zs, side="right")
    r_tilde = w_tilde * np.searchsorted(tilde, zs, side="right")
    return int(np.abs(r_full - r_tilde).max())


def _reference_gossip_estimate(engine, ids, n_prime, k, dtype):
    """The three-branch doubling_gossip_estimate replaced, with its
    caller-chosen id dtype (int32 by default there). A node whose pull
    failed contacts itself: it samples its own id, or merges its own
    buffer."""
    n = engine.n
    rounds = int(math.log2(n_prime)) + 1

    def contacts(rd, size):
        peers = rd.peers(message_weight=size)
        return peers if rd.failed is None else np.where(rd.failed, np.arange(n), peers)

    ids = np.asarray(ids, dtype=dtype)
    buffers = ids[contacts(engine.next_round(), 1)].reshape(n, 1)
    weight = 1
    scratch = None
    for _ in range(rounds - 1):
        size = buffers.shape[1]
        peers = contacts(engine.next_round(), size)
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
    def test_error_bounded_at_every_point(self, case, seed):
        n_prime, k, data = case
        rng = np.random.default_rng(seed)
        zs = np.concatenate([
            rng.choice(data, size=32),
            rng.choice(INT64_EDGES, size=8),
            rng.integers(-(2**63), 2**63 - 1, size=8, endpoint=True),
        ])
        err = _tree_error(k, data, zs)
        assert err == _reference_error(n_prime, k, data, zs)
        assert err <= compaction_error_bound(n_prime, k)


class TestMergeFormsMatchReference:
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


class TestGossipFailures:
    def test_failed_pulls_merge_the_own_buffer(self):
        # failures draw on their own stream and shift no peer, so only the
        # failed-pull rule tells a mu=0.3 run from a failure-free one
        n, seed, mu = 300, 5, 0.3
        ids = np.random.default_rng(seed).permutation(n)
        runs = []
        for failure in (FailureModel(), FailureModel(mode="uniform", mu=mu, seed=seed)):
            engine = RoundEngine(SimConfig(n=n, seed=seed, failure=failure))
            runs.append(doubling_gossip_estimate(engine, ids, 2, 4)[0])
        free, failing = runs
        assert not np.array_equal(free, failing)
        # n' = 2 is a seed round and one merge round: a node failing both
        # sampled its own id and then merged its own buffer
        failed = derive_rng(seed, STREAM_FAILURE).random((2, n)) < mu
        both = failed.all(axis=0)
        assert both.any()
        assert np.array_equal(failing[both], np.repeat(ids[both, None], 2, axis=1))


class TestSampleSize:
    def test_sample_size_rule(self):
        assert sample_size(10_000, 0.1) == int(np.ceil(8 * np.log(10_000) / 0.01))


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
        while n_prime < sample_size(n, eps):
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
        while n_prime < sample_size(n, eps):
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
