"""Deterministic synchronous round engine for uniform-gossip trials.

A trial is a pure function of its :class:`SimConfig`. Every random draw
comes from a PCG64 generator keyed by ``(seed, stream tag, round index)``
through :func:`numpy.random.SeedSequence`, so node ``v``'s draw in a given
round is element ``v`` of that round's vector draw. Failure bits live on a
separate stream keyed the same way, which makes them fixed ahead of the
protocol's own randomness.

One engine round corresponds to one push or pull of a single value per
node. Protocols that perform ``k`` pulls per iteration advance the engine
``k`` times, so reported rounds count per-node sequential communication
steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def uniform_peer(rng: np.random.Generator, n: int) -> int:
    """One uniform node id in ``[0, n)``, consuming one draw.

    Sampling includes the caller: contact probabilities are ``1/n`` for
    every node, matching the expectations the tournament recurrences use.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return int(rng.integers(0, n))


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
    model: FailureModel, round_index: int, n: int, seed: int
) -> np.ndarray:
    """Failure bits for one round, reproducible from ``(seed, round)``."""
    if not model.active:
        return np.zeros(n, dtype=bool)
    u = derive_rng(seed, STREAM_FAILURE, round_index).random(n)
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

    def next_round(self) -> Round:
        if self.rounds >= self.config.max_rounds:
            raise BudgetExceededError(
                f"round budget {self.config.max_rounds} exceeded"
            )
        index = self.rounds
        self.rounds += 1
        rng = derive_rng(self.config.seed, STREAM_ROUND, index)
        failed = None
        if self.config.failure.active:
            failed = draw_failures(
                self.config.failure, index, self.n, self.config.seed
            )
        return Round(index, rng, failed, self)

    def values_rng(self) -> np.random.Generator:
        """Stream for generating the trial's input values."""
        return derive_rng(self.config.seed, STREAM_VALUES)


def run_iteration(states: np.ndarray, node_step, failures: np.ndarray | None = None) -> np.ndarray:
    """One synchronous double-buffered iteration.

    ``node_step`` maps the previous-iteration snapshot to a full vector of
    new states and must not mutate its argument; nodes flagged in
    ``failures`` keep their previous state (skip pull / no push).
    """
    snapshot = states
    new = np.asarray(node_step(snapshot))
    if new.shape != snapshot.shape:
        raise ValueError("node_step must return one state per node")
    if failures is not None:
        new = np.where(failures, snapshot, new)
    return new


def canonical_ids(values: np.ndarray, tiebreaks: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks (0-based) of per-node values, ties broken by tiebreak.

    Returns ``(ids, value_by_rank)``: ``ids`` is a permutation of
    ``0..n-1`` where id ``r`` names the key of rank ``r + 1``, and
    ``value_by_rank[r]`` is that key's raw value. Protocols compare keys,
    so running them on ids is order-isomorphic to running them on the raw
    (value, tiebreak) pairs.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if tiebreaks is None:
        tiebreaks = np.arange(n)
    order = np.lexsort((tiebreaks, values))
    ids = np.empty(n, dtype=np.int64)
    ids[order] = np.arange(n)
    return ids, values[order]


@dataclass
class TrialReport:
    """Outcome of one seeded trial.

    ``outputs`` holds per-node output values (NaN where a node produced
    none); ``output_ranks`` the matching 1-based initial ranks (0 = none).
    ``per_iteration_lmh`` records (|L|, |M|, |H|) after each tournament
    iteration, each triple summing to n.
    """

    rounds: int = 0
    messages: int = 0
    per_iteration_lmh: list[tuple[int, int, int]] = field(default_factory=list)
    outputs: np.ndarray | None = None
    output_ranks: np.ndarray | None = None
    max_rank_error: int = 0
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    details: dict = field(default_factory=dict)
