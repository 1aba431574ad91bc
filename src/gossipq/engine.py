"""Deterministic synchronous round engine for uniform-gossip trials.

A trial is a pure function of its :class:`SimConfig`. Every random draw
comes from a PCG64 generator keyed by ``(seed, stream tag, round index)``
through :func:`numpy.random.SeedSequence`, so node ``v``'s draw in a given
round is element ``v`` of that round's vector draw. Failure bits live on a
separate stream keyed the same way, which makes them fixed ahead of the
protocol's own randomness.

:func:`derive_rng` is the reference keying. The engine derives its
per-round generators without building a ``SeedSequence`` per round: the
SeedSequence entropy hash and ``generate_state`` are fixed integer hashes,
so :class:`_RoundKeys` runs them in numpy uint32 arithmetic over a block of
256 round indices at once and seeds each round's PCG64 from its row. Every
generator equals ``derive_rng(seed, tag, index)`` draw for draw.

One engine round corresponds to one push or pull of a single value per
node. Protocols that perform ``k`` pulls per iteration advance the engine
``k`` times, so reported rounds count per-node sequential communication
steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream tags keeping protocol draws, failure draws, input generation and
# the scheduled failure probabilities on disjoint substreams of a seed.
STREAM_ROUND = 1
STREAM_FAILURE = 2
STREAM_VALUES = 3
STREAM_SCHEDULE = 4

_MASK64 = (1 << 64) - 1


class BudgetExceededError(RuntimeError):
    """Raised when a trial consumes more rounds than ``max_rounds``."""


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for the substream identified by ``(seed, *key)``."""
    entropy = tuple(int(k) & _MASK64 for k in (seed, *key))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# The hash of numpy's SeedSequence (``numpy.random.bit_generator``), which
# is fixed and public: ``hashmix`` fills a pool of four uint32 words from
# the entropy words and then mixes every ordered pair of distinct pool
# words; ``generate_state`` hashes the pool cyclically into output words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_KEY_BLOCK = 256


def _hash_constants(init: int, mult: int, count: int) -> list:
    """(xor, multiplier) pairs of ``count`` successive hashes."""
    pairs = []
    for _ in range(count):
        nxt = (init * mult) & 0xFFFFFFFF
        pairs.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return pairs


# one hashmix per pool word, then one per ordered pair of distinct words
_POOL_HASHES = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
# generate_state(4, uint64) produces eight uint32 words
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _uint32_words(value: int) -> list[int]:
    """Little-endian uint32 words of ``value >= 0``, one word for zero."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _seed_states(prefix: list[int], indices: np.ndarray) -> np.ndarray:
    """``SeedSequence((*key, i)).generate_state(4, uint64)`` for each index.

    ``prefix`` holds the entropy words of ``key``; ``indices`` is a uint32
    array, so each index is one entropy word. The whole key must fit the
    pool, which holds for a 64-bit seed and a tag below 2**32. Returns one
    row of four uint64 per index.
    """
    if len(prefix) >= _POOL_SIZE:
        raise ValueError("key does not fit the SeedSequence pool")
    hashes = iter(_POOL_HASHES)

    def hashmix(value):
        xor, mult = next(hashes)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    words = [np.array([w], dtype=np.uint32) for w in prefix] + [indices]
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(words))
    pool = [hashmix(w) for w in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    out = np.empty((len(indices), 2 * _POOL_SIZE), dtype=np.uint32)
    for j, (xor, mult) in enumerate(_STATE_HASHES):
        value = (pool[j % _POOL_SIZE] ^ xor) * mult
        out[:, j] = value ^ (value >> _XSHIFT)
    # pairs of words read as little-endian uint64, as generate_state does
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _FixedState(ISeedSequence):
    """Hands a bit generator one precomputed ``generate_state(4, uint64)``."""

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


class _RoundKeys:
    """Per-round generators of one ``(seed, tag)`` stream.

    ``rng(index)`` equals ``derive_rng(seed, tag, index)`` draw for draw.
    Seed states are hashed for a block of 256 consecutive indices at once,
    and the last block is kept. An index of 2**32 or more has two entropy
    words and goes through :func:`derive_rng`.
    """

    __slots__ = ("_seed", "_tag", "_prefix", "_start", "_states")

    def __init__(self, seed: int, tag: int) -> None:
        self._seed = seed
        self._tag = tag
        self._prefix = _uint32_words(int(seed) & _MASK64) + _uint32_words(tag)
        self._start = -1
        self._states = None

    def state(self, index: int) -> np.ndarray:
        """The four-uint64 seed state of round ``index < 2**32``."""
        start = index - index % _KEY_BLOCK
        if start != self._start:
            block = np.arange(start, start + _KEY_BLOCK, dtype=np.uint32)
            self._states = _seed_states(self._prefix, block)
            self._start = start
        return self._states[index - start]

    def rng(self, index: int) -> np.random.Generator:
        if index >= 1 << 32:
            return derive_rng(self._seed, self._tag, index)
        return np.random.Generator(np.random.PCG64(_FixedState(self.state(index))))


@dataclass(frozen=True)
class FailureModel:
    """Per-node per-round failure probabilities, bounded by ``mu``.

    mode "none"      : nothing ever fails.
    mode "uniform"   : every node fails each round with probability ``mu``.
    mode "scheduled" : p[v, round] = mu * U(v, round) with U derived from
                       ``seed`` on its own stream, fixed before execution;
                       the failure bits drawn against p stay independent
                       of U even when ``seed`` equals the trial seed.
    """

    mode: str = "none"
    mu: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("none", "uniform", "scheduled"):
            raise ValueError(f"unknown failure mode {self.mode!r}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")
        if self.mode == "none" and self.mu != 0.0:
            raise ValueError("mode 'none' requires mu == 0")

    @property
    def active(self) -> bool:
        return self.mode != "none" and self.mu > 0.0

    def probabilities(self, round_index: int, n: int) -> np.ndarray:
        """The vector ``p[v] = p_{v, round}`` for one round."""
        if self.mode == "uniform":
            return np.full(n, self.mu)
        if self.mode == "scheduled":
            u = derive_rng(self.seed, STREAM_SCHEDULE, round_index).random(n)
            return self.mu * u
        return np.zeros(n)


def draw_failures(
    model: FailureModel, round_index: int, n: int, seed: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Failure bits for one round, reproducible from ``(seed, round)``.

    ``rng`` is the round's failure-stream generator, equal to
    ``derive_rng(seed, STREAM_FAILURE, round_index)``; it is derived here
    when not given.
    """
    if not model.active:
        return np.zeros(n, dtype=bool)
    if rng is None:
        rng = derive_rng(seed, STREAM_FAILURE, round_index)
    u = rng.random(n)
    if model.mode == "uniform":
        return u < model.mu
    return u < model.probabilities(round_index, n)


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a trial bit-for-bit."""

    n: int
    seed: int = 0
    failure: FailureModel = field(default_factory=FailureModel)
    max_rounds: int = 2_000_000

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")


class Round:
    """Handle for one communication round: its RNG, failure bits, counters.

    Peer vectors must be drawn before any extra protocol randomness so the
    draw order within a round is fixed.
    """

    __slots__ = ("index", "rng", "failed", "_engine", "_n")

    def __init__(self, index: int, rng: np.random.Generator,
                 failed: np.ndarray | None, engine: "RoundEngine") -> None:
        self.index = index
        self.rng = rng
        self.failed = failed
        self._engine = engine
        self._n = engine.n

    def ok(self) -> np.ndarray | None:
        """Mask of nodes whose operation succeeds this round (None = all)."""
        if self.failed is None:
            return None
        return ~self.failed

    def peers(self, actors: np.ndarray | None = None,
              message_weight: int = 1) -> np.ndarray:
        """Uniform contact for every node; counts messages for acting nodes.

        The full length-n vector is always drawn to keep streams aligned;
        ``actors`` only restricts message accounting to the nodes that
        perform an operation this round.
        """
        n = self._n
        targets = self.rng.integers(0, n, size=n)
        if actors is None:
            performed = n if self.failed is None else n - int(np.count_nonzero(self.failed))
        else:
            acting = actors if self.failed is None else (actors & ~self.failed)
            performed = int(np.count_nonzero(acting))
        self._engine.messages += message_weight * performed
        return targets

    def count_messages(self, count: int) -> None:
        self._engine.messages += int(count)


class RoundEngine:
    """Advances a trial one round at a time, enforcing the round budget."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.n = config.n
        self.rounds = 0
        self.messages = 0
        self._round_keys = _RoundKeys(config.seed, STREAM_ROUND)
        self._failure_keys = _RoundKeys(config.seed, STREAM_FAILURE)

    def next_round(self) -> Round:
        if self.rounds >= self.config.max_rounds:
            raise BudgetExceededError(
                f"round budget {self.config.max_rounds} exceeded"
            )
        index = self.rounds
        self.rounds += 1
        rng = self._round_keys.rng(index)
        failed = None
        if self.config.failure.active:
            failed = draw_failures(
                self.config.failure, index, self.n, self.config.seed,
                rng=self._failure_keys.rng(index),
            )
        return Round(index, rng, failed, self)

    def values_rng(self) -> np.random.Generator:
        """Stream for generating the trial's input values."""
        return derive_rng(self.config.seed, STREAM_VALUES)


def canonical_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks (0-based) of per-node values, ties in node-index order.

    Returns ``(ids, value_by_rank)``: ``ids`` is a permutation of
    ``0..n-1`` where id ``r`` names the key of rank ``r + 1``, and
    ``value_by_rank[r]`` is that key's raw value. Equal values keep their
    node order (a stable sort), so every key is distinct. Protocols compare
    keys, so running them on ids is order-isomorphic to running them on
    the raw (value, node index) pairs.
    """
    values = np.asarray(values)
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    ids = np.empty(n, dtype=np.int64)
    ids[order] = np.arange(n)
    return ids, values[order]


@dataclass
class TrialReport:
    """Outcome of one seeded trial.

    ``outputs`` holds per-node output values (NaN where a node produced
    none); ``output_ranks`` the matching 1-based initial ranks (0 = none).
    ``details["lmh_phase1"]`` and ``details["lmh_phase2"]`` record
    (|L|, |M|, |H|) after each tournament iteration when asked to.
    """

    rounds: int = 0
    messages: int = 0
    outputs: np.ndarray | None = None
    output_ranks: np.ndarray | None = None
    max_rank_error: int = 0
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    details: dict = field(default_factory=dict)
