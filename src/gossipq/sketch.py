"""The compacting buffer and its deterministic error bound.

The doubling algorithm merges equal-weight buffers each round; once a
buffer would exceed its capacity it is compacted: sorted ascending and
thinned to the 1-indexed even positions while its weight doubles. The
rank error this introduces is deterministic: over T = log2(n') + 1 rounds
on n' effective samples it never exceeds (n'/2k) * log2(n'/k).

One row-wise kernel, ``_merge_compact``, does every merge. The error
check sweeps 2 * len(tilde) points, not n': the compacted rank is flat
between compacted elements while the full rank rises, so over the data
the error peaks at a compacted element or the data element just below.

Buffers are value-like: merging consumes both inputs. Elements are stored
as int64 keys (distinct totally-ordered ids; duplicate raw values get
distinct keys upstream, in node order, from ``engine.canonical_ids``);
other input types are rejected.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .engine import RoundEngine
from .schedules import compaction_error_bound


@dataclass(frozen=True)
class CompactedBuffer:
    """Sorted weighted sample: each element stands for ``weight`` copies."""

    elements: np.ndarray      # sorted int64 keys
    weight: int               # power of two
    capacity: int             # power of two

    def __post_init__(self):
        object.__setattr__(self, "elements", _int64_keys(self.elements))

    @property
    def weighted_size(self) -> int:
        return self.weight * len(self.elements)

    @staticmethod
    def singleton(key: int, capacity: int) -> "CompactedBuffer":
        return CompactedBuffer([key], 1, capacity)


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


def doubling_update(buf_a: CompactedBuffer, buf_b: CompactedBuffer) -> CompactedBuffer:
    """Merge two equal-weight buffers, compacting once if over capacity."""
    if buf_a.weight != buf_b.weight:
        raise ValueError("equal-round merge requires equal weights")
    if buf_a.capacity != buf_b.capacity:
        raise ValueError("buffers must share a capacity")
    k = buf_a.capacity
    merged, factor = _merge_compact(buf_a.elements[None], buf_b.elements[None], k)
    return CompactedBuffer(merged[0], buf_a.weight * factor, k)


def rank_query(buffer: CompactedBuffer, z) -> int:
    """Weighted count of buffer elements at or below z."""
    if len(buffer.elements) == 0:
        raise ValueError("rank query on an empty buffer")
    return buffer.weight * int(
        np.searchsorted(buffer.elements, z, side="right")
    )


def quantile_query(buffer: CompactedBuffer, z) -> float:
    """rank_query normalised by the buffer's weighted size."""
    return rank_query(buffer, z) / buffer.weighted_size


# ---------------------------------------------------------------------------
# serialization: little-endian int64s, length-prefixed element list


def serialize_buffer(buffer: CompactedBuffer) -> bytes:
    head = struct.pack("<q", len(buffer.elements))
    body = buffer.elements.astype("<i8").tobytes()
    tail = struct.pack("<qq", buffer.weight, buffer.capacity)
    return head + body + tail


def deserialize_buffer(data: bytes) -> CompactedBuffer:
    (count,) = struct.unpack_from("<q", data, 0)
    elements = np.frombuffer(data, dtype="<i8", count=count, offset=8).copy()
    weight, capacity = struct.unpack_from("<qq", data, 8 + 8 * count)
    return CompactedBuffer(elements, weight, capacity)


# ---------------------------------------------------------------------------
# sizing


def sample_size(n: int, eps: float, c: float = 8.0) -> int:
    """Per-node sample count: ceil(c * ln(n) / eps^2)."""
    return int(math.ceil(c * math.log(n) / (eps * eps)))


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


def compaction_error_check(
    n_prime: int,
    k: int,
    data: np.ndarray,
    *,
    z_values: np.ndarray | None = None,
) -> int:
    """Max weighted-rank error between the sorted data and its compacted
    merge tree, asserted against the deterministic bound.

    The sweep defaults to every data element, at the 2 * len(tilde)
    points where the error can peak (see the module docstring).
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
    if z_values is None:  # each compacted element and the element below it
        zs = np.concatenate([tilde, full[np.searchsorted(full, tilde) - 1]])
    else:
        zs = _int64_keys(z_values)
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
    capacity k). Returns (buffers sorted row-wise, weight); all buffers
    share one size and weight on the synchronous schedule, and hold int32
    when every id fits in it, int64 otherwise. Ids that are not int64-range
    integers raise ValueError.
    """
    n = engine.n
    if n_prime < 2 or n_prime & (n_prime - 1):
        raise ValueError("n_prime must be a power of two >= 2")
    rounds = int(math.log2(n_prime)) + 1
    ids = _int64_keys(ids)
    wide = ids.size and (ids.min() < -(2**31) or ids.max() >= 2**31)
    rd = engine.next_round()
    seed_peers = rd.peers()
    buffers = ids.astype(np.int64 if wide else np.int32)[seed_peers].reshape(n, 1)
    scratch = None
    for _ in range(rounds - 1):
        rd = engine.next_round()
        size = buffers.shape[1]
        peers = rd.peers(message_weight=size)
        if 2 * size > k and scratch is None:
            # every later round compacts back to this size
            scratch = np.empty((n, 2 * size), dtype=buffers.dtype)
        merged, factor = _merge_compact(buffers, buffers[peers], k, scratch)
        if factor == 1:
            buffers = merged
        else:
            np.copyto(buffers, merged)
    return buffers, n_prime // buffers.shape[1]  # weighted size is n'
