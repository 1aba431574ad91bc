"""Compacting sample buffers, as rows of one array, and their error bound.

The doubling algorithm merges equal-weight buffers each round; once a
buffer would exceed its capacity it is compacted: sorted ascending and
thinned to the 1-indexed even positions while its weight doubles. The
rank error this introduces is deterministic: over T = log2(n') + 1 rounds
on n' effective samples it never exceeds (n'/2k) * log2(n'/k).

One row-wise kernel, ``_merge_compact``, does every merge. The error
check sweeps 2 * len(tilde) points, not n': the compacted rank is flat
between compacted elements while the full rank rises, so over the data
the error peaks at a compacted element or the data element just below.

Elements are int64 keys (distinct totally-ordered ids; duplicate raw
values get distinct keys upstream, in node order, from
``engine.canonical_ids``); other input types are rejected.
"""
from __future__ import annotations

import math

import numpy as np

from .engine import RoundEngine
from .schedules import compaction_error_bound


def _int64_keys(values) -> np.ndarray:
    """``values`` as int64 keys; ValueError where a cast would truncate or wrap."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if arr.size and (kind not in "iu" or kind == "u" and arr.max() >= 2**63):
        raise ValueError(f"keys must be int64-range integers, not {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _merge_compact(left, right, k, out=None):
    """Row-wise merge of two sorted (rows, size) blocks, into ``out`` if given,
    compacted to ``[:, 1::2]`` past width k. Returns (block, weight factor)."""
    merged = np.concatenate([left, right], axis=1, out=out)
    merged.sort(axis=1)
    if merged.shape[1] > k:
        return merged[:, 1::2], 2
    return merged, 1


# ---------------------------------------------------------------------------
# sizing


def sample_size(n: int, eps: float) -> int:
    """Per-node sample count: ceil(8 ln(n) / eps^2)."""
    return int(math.ceil(8.0 * math.log(n) / (eps * eps)))


# ---------------------------------------------------------------------------
# deterministic error-bound checking (synchronous merge tree)


def _tree_levels(data: np.ndarray, k: int):
    """Run the synchronous pairwise doubling schedule over ``data``.

    Level j holds n'/2^j buffers of equal size; rows stay sorted. Every
    merge beyond size k (a power of two) compacts once, doubling the level
    weight, so the levels up to width 2k are one sort of contiguous blocks.
    Returns (final sorted elements, final weight).
    """
    level = np.sort(np.reshape(data, (-1, min(len(data), 2 * k))), axis=1)
    level, weight = (level[:, 1::2], 2) if level.shape[1] > k else (level, 1)
    while level.shape[0] > 1:
        level, factor = _merge_compact(level[0::2], level[1::2], k)
        weight *= factor
    return level[0], weight


def compaction_error_check(n_prime: int, k: int, data: np.ndarray) -> int:
    """Max weighted-rank error between the sorted data and its compacted
    merge tree over every data element, asserted against the
    deterministic bound.

    The sweep reads the 2 * len(tilde) points where the error can peak:
    each compacted element and the data element just below it (see the
    module docstring).
    """
    data = _int64_keys(data)
    if len(data) != n_prime:
        raise ValueError("data length must equal n_prime")
    bound = compaction_error_bound(n_prime, k)
    # the tree first: its blocks are freed before the full sort allocates
    tilde, w_tilde = _tree_levels(data, k)
    full = np.sort(data)
    if len(tilde) * w_tilde != n_prime:
        raise AssertionError("weighted size was not conserved")
    zs = np.concatenate([tilde, full[np.searchsorted(full, tilde) - 1]])
    r_full = np.searchsorted(full, zs, side="right")
    r_tilde = w_tilde * np.searchsorted(tilde, zs, side="right")
    err = int(np.abs(r_full - r_tilde).max())
    if err > bound:
        raise AssertionError(
            f"compaction error {err} exceeded deterministic bound {bound}"
        )
    return err


def doubling_gossip_estimate(
    engine: RoundEngine,
    ids: np.ndarray,
    n_prime: int,
    k: int,
) -> tuple[np.ndarray, int]:
    """Population-level doubling with compaction: every node's buffer after
    T = log2(n') + 1 rounds.

    Round 0 seeds each node's buffer with one uniformly sampled value;
    each later round merges in the contacted node's buffer (compacting at
    capacity k). Every round is a ``Round.pull``, so a node whose pull
    failed samples its own id, or merges its own buffer. Returns (buffers
    sorted row-wise, weight); all buffers share one size and weight on the
    synchronous schedule, and hold int32 when every id fits in it, int64
    otherwise. Ids that are not int64-range integers raise ValueError.
    """
    n = engine.n
    if n_prime < 2 or n_prime & (n_prime - 1):
        raise ValueError("n_prime must be a power of two >= 2")
    rounds = int(math.log2(n_prime)) + 1
    ids = _int64_keys(ids)
    wide = ids.size and (ids.min() < -(2**31) or ids.max() >= 2**31)
    ids = ids.astype(np.int64 if wide else np.int32)
    buffers = engine.next_round().pull(ids).reshape(n, 1)
    scratch = None
    for _ in range(rounds - 1):
        size = buffers.shape[1]
        pulled = engine.next_round().pull(buffers, message_weight=size)
        if 2 * size > k and scratch is None:
            # every later round compacts back to this size
            scratch = np.empty((n, 2 * size), dtype=buffers.dtype)
        merged, factor = _merge_compact(buffers, pulled, k, scratch)
        if factor == 1:
            buffers = merged
        else:
            np.copyto(buffers, merged)
    return buffers, n_prime // buffers.shape[1]  # weighted size is n'
