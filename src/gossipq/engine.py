"""Deterministic synchronous round engine for uniform-gossip trials.

A trial is a pure function of its :class:`SimConfig`. Every random draw
comes from a PCG64 generator keyed by ``(seed, stream tag)`` through
:func:`numpy.random.SeedSequence`, and an engine builds one generator per
stream, once, in its constructor: the round stream always, the failure
stream when failures are on, and under ``scheduled`` the schedule stream.

Failures are fixed ahead of the protocol, on the failure stream: an
oblivious adversary's choice, made before execution. A plain round
(:meth:`RoundEngine.next_round`) draws n uniforms from it for its failure
bits, so a run of plain rounds reads successive n-blocks of the stream,
and :meth:`RoundEngine.plain_rounds` draws such a run, with its contacts,
as one block. A pull batch (:meth:`RoundEngine.advance_batch`) uses only
each node's count of rounds whose pull did not fail, and under
``uniform`` it draws no per-round bit: the counts are i.i.d. binomial,
so the engine draws, in law, which nodes are short of good pulls and the
batch's message total.
``scheduled`` gives each node and round its own probability, so its
batches still draw per-round bits. Its probabilities are the schedule
stream read in round order, n uniforms per round, by plain rounds and
batch rounds alike, so a run of R rounds tests the failure stream's
``(R, n)`` block against ``mu`` times the schedule stream's.

Protocol draws follow call order. Peer vectors and the protocol's own
coins come from the round stream in the order the protocol asks for
them, not one block per round: a protocol may draw for several rounds
at once (``tournament.robust_pull_batch`` draws its coins, its short
mask and its picks once per batch), draw contacts for only the nodes
whose contact can matter (``harness.spread_experiment``), or draw
nothing in a round, and every later draw follows deterministically.
Messages are counted per round or per batch.

One engine round corresponds to one contact per node: one push or one
pull. A message may carry several values, and ``message_weight`` counts
them (push-sum's and a tournament's channels, both extremes of min/max
spreading).
:meth:`Round.pull` is the one plain pull, and a node whose pull fails
keeps its own value (:meth:`Round.sources`). Protocols that perform ``k``
pulls per iteration advance the engine by ``k`` rounds, so reported
rounds count per-node sequential communication steps.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Stream tags keeping protocol draws, failure draws, input generation and
# the scheduled failure probabilities on disjoint substreams of a seed.
STREAM_ROUND = 1
STREAM_FAILURE = 2
STREAM_VALUES = 3
STREAM_SCHEDULE = 4

_MASK64 = (1 << 64) - 1
# The most contacts a caller asks of one RoundEngine.plain_rounds call
# (8 MB of int64): a longer run is drawn ROUND_BLOCK // n rounds at a time.
ROUND_BLOCK = 1 << 20


class BudgetExceededError(RuntimeError):
    """Raised when a trial consumes more rounds than ``max_rounds``."""


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for the substream identified by ``(seed, *key)``."""
    entropy = tuple(int(k) & _MASK64 for k in (seed, *key))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class FailureModel:
    """Per-node per-round failure probabilities, bounded by ``mu``.

    Nothing fails at mu 0, in either mode (``active`` is ``mu > 0``); the
    default, "uniform" at mu 0, is the failure-free model.

    mode "uniform"   : every node fails each round with probability ``mu``.
    mode "scheduled" : p[v, round] = mu * U(v, round), fixed before
                       execution: each round, in order, takes its n values
                       U(., round) from the next n uniforms of one schedule
                       stream, ``derive_rng(seed, STREAM_SCHEDULE)``. That
                       stream is not the failure stream, so the failure
                       bits drawn against p stay independent of U even
                       when ``seed`` equals the trial seed.
    """

    mode: str = "uniform"
    mu: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("uniform", "scheduled"):
            raise ValueError(f"unknown failure mode {self.mode!r}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")

    @property
    def active(self) -> bool:
        return self.mu > 0.0


def draw_failures(
    model: FailureModel, n, rng: np.random.Generator,
    schedule: np.random.Generator | None,
) -> np.ndarray:
    """Failure bits for one round of an active model, or for a block of
    rounds when ``n`` is the shape ``(rounds, n)``.

    Draws exactly ``n`` uniforms from ``rng``, the failure stream, and
    tests them against ``mu`` (``uniform``) or against this round's
    ``mu * U``, U being the next ``n`` uniforms of ``schedule``, the
    schedule stream (``scheduled``; None under ``uniform``).
    """
    u = rng.random(n)
    if model.mode == "uniform":
        return u < model.mu
    return u < model.mu * schedule.random(n)


@functools.lru_cache(maxsize=256)
def _live_pmf(batch: int, mu: float) -> np.ndarray:
    """``pmf[k] = P(Binomial(batch, 1 - mu) = k)`` for k = 0..batch, read-only:
    the law of a node's live rounds in a batch under ``uniform``, 0 < mu < 1.

    Each term is exp(log C(batch, k) + k log(1 - mu) + (batch - k) log mu),
    log C(batch, k) being the running sum of log((batch - i + 1) / i).
    """
    k = np.arange(batch + 1)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log(batch - k[:-1]) - np.log(k[1:]))))
    pmf = np.exp(log_choose + k * math.log1p(-mu) + (batch - k) * math.log(mu))
    pmf.flags.writeable = False
    return pmf


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
    """Handle for one communication round: its failure bits and counters.

    ``rng`` is the engine's round stream, shared by every round of the
    trial, so a round's draws are the next ones in call order.
    """

    __slots__ = ("rng", "failed", "_engine", "_n")

    def __init__(self, rng: np.random.Generator,
                 failed: np.ndarray | None, engine: "RoundEngine") -> None:
        self.rng = rng
        self.failed = failed
        self._engine = engine
        self._n = engine.n

    def peers(self, actors: np.ndarray | None = None,
              message_weight: int = 1) -> np.ndarray:
        """Uniform contact for every node; counts messages for acting nodes.

        The full length-n vector is drawn from the round stream, whose
        draws follow call order: a protocol that needs fewer contacts
        draws them from ``rng`` itself (``harness.spread_experiment``).
        ``actors`` only restricts message accounting to the nodes that
        perform an operation this round. A message may carry several
        values; ``message_weight`` counts them.
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

    def sources(self, actors: np.ndarray | None = None,
                message_weight: int = 1) -> np.ndarray:
        """Each node's pull source: its contact, drawn and counted by
        :meth:`peers`, or itself where its pull failed (the one failure rule
        of every plain pull). Arrays indexed by one vector share its contacts."""
        sources = self.peers(actors, message_weight)
        if self.failed is None:
            return sources
        return np.where(self.failed, np.arange(self._n), sources)

    def pull(self, values: np.ndarray, actors: np.ndarray | None = None,
             message_weight: int = 1) -> np.ndarray:
        """Each node's pull of ``values`` (indexed by node, 1-D or
        ``(n, size)``) from its :meth:`sources` entry."""
        return values[self.sources(actors, message_weight)]

    def count_messages(self, count: int) -> None:
        self._engine.messages += int(count)


class RoundEngine:
    """Advances a trial one round at a time, enforcing the round budget."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.n = config.n
        self.rounds = 0
        self.messages = 0
        self.rng = derive_rng(config.seed, STREAM_ROUND)
        self._failure_rng = self._schedule_rng = None
        if config.failure.active:
            self._failure_rng = derive_rng(config.seed, STREAM_FAILURE)
            if config.failure.mode == "scheduled":
                self._schedule_rng = derive_rng(config.failure.seed, STREAM_SCHEDULE)

    def next_round(self) -> Round:
        self._charge(1)
        failed = None
        if self._failure_rng is not None:
            failed = draw_failures(self.config.failure, self.n, self._failure_rng,
                                   self._schedule_rng)
        return Round(self.rng, failed, self)

    def plain_rounds(self, count: int, actors: np.ndarray | None = None,
                     message_weight: int = 1) -> tuple[np.ndarray, np.ndarray | None]:
        """Charge ``count`` plain rounds at once; return their ``(count, n)``
        contacts and failure bits (None without failures).

        The streams are read exactly as ``count`` :meth:`next_round` calls,
        each followed by one :meth:`Round.peers`, would read them: the
        failure stream (and under ``scheduled`` the schedule stream) one
        n-block per round, the round stream one n-vector of contacts per
        round. The rounds are charged under :meth:`next_round`'s budget
        rule, except that a block that would cross ``max_rounds`` stops the
        engine at ``max_rounds`` and raises before drawing. Messages are
        counted as :meth:`Round.peers` counts them, ``actors`` being one
        ``(count, n)`` mask of the nodes that act in each round.
        """
        self._charge(count)
        failed = None
        if self._failure_rng is not None:
            failed = draw_failures(self.config.failure, (count, self.n), self._failure_rng,
                                   self._schedule_rng)
            actors = ~failed if actors is None else actors & ~failed
        targets = self.rng.integers(0, self.n, size=(count, self.n))
        performed = count * self.n if actors is None else int(np.count_nonzero(actors))
        self.messages += message_weight * performed
        return targets, failed

    def _charge(self, count: int) -> None:
        """Charge ``count`` rounds, or stop at ``max_rounds`` and raise."""
        if self.rounds + count > self.config.max_rounds:
            self.rounds = self.config.max_rounds
            raise BudgetExceededError(
                f"round budget {self.config.max_rounds} exceeded"
            )
        self.rounds += count

    def advance_batch(self, batch: int, short_given_live, rows) -> np.ndarray:
        """Charge ``batch`` pull rounds at once for C channels in lockstep;
        return the ``(C, n)`` mask of each channel's nodes short of good pulls.

        Channel c's ``short_given_live[c][r, m]`` is the chance that its
        node of row ``r`` is short when the node's pull did not fail in m of
        the batch's rounds (its live count); ``rows[c]`` is one row for
        every node, or one per node. The channels share every round's
        contact and failure bit, so a node has one live count for all of
        them, and each live round counts one message carrying one id per
        channel (C message units). Given the live counts, the channels'
        masks are independent. The rounds are charged under
        :meth:`next_round`'s budget rule: a batch that would cross
        ``max_rounds`` stops the engine at ``max_rounds`` and raises.

        Without failures every live count is ``batch``. ``scheduled`` gives
        every node and round its own probability, so its per-round bits are
        drawn from the failure and schedule streams by :func:`draw_failures`,
        round by round as :meth:`next_round` draws them, and summed into
        live counts. Under ``uniform`` the live counts are i.i.d.
        Binomial(batch, 1 - mu), so the first channel's node is short with
        probability ``p[row] = sum_k pmf[k] short_given_live[0][row, k]``,
        and given that mask the live counts within each (row, short) class
        are i.i.d. with pmf proportional to pmf * short_given_live[0][row]
        (or pmf * (1 - short_given_live[0][row])): the message total is
        drawn from the failure stream as one multinomial per class, and no
        per-round bit is drawn. When more channels follow, each node then
        takes one of its class's drawn live counts, in an order drawn from
        the failure stream (one uniform per node), which makes the counts
        i.i.d. draws from the class's law, and the other channels' masks are
        drawn given them. A mask is one uniform per node from the round
        stream, drawn only when the entry picked for all, or some entry of
        the chances in play, lies strictly between 0 and 1.
        """
        self._charge(batch)
        model, n, weight = self.config.failure, self.n, len(short_given_live)
        if not model.active:
            self.messages += weight * n * batch
            return np.array([self._short(table[:, batch], row)
                             for table, row in zip(short_given_live, rows)])
        shorts = []
        if model.mode == "scheduled":
            live = np.full(n, batch, dtype=np.min_scalar_type(batch))
            for _ in range(batch):
                live -= draw_failures(model, n, self._failure_rng, self._schedule_rng)
            self.messages += weight * int(live.sum())
        else:
            pmf = _live_pmf(batch, model.mu)
            lacking = pmf * short_given_live[0]
            row0, short0 = rows[0], self._short(lacking.sum(axis=1), rows[0])
            shorts.append(short0)
            # each class's law of the live count: kept, then short, row by row
            law = np.maximum(np.stack((pmf - lacking, lacking), axis=1), 0.0).reshape(
                -1, batch + 1)
            # the nodes of each (row, short) class, class 2 * row + short
            if np.ndim(row0):
                sizes = np.bincount(2 * row0 + short0, minlength=len(law))
            else:  # one row for every node: counting costs less than a bincount
                sizes = np.zeros(len(law), dtype=np.int64)
                sizes[2 * row0 + 1] = np.count_nonzero(short0)
                sizes[2 * row0] = n - sizes[2 * row0 + 1]
            counts = np.zeros(law.shape, dtype=np.int64)
            for cls, size in enumerate(sizes):
                if size:
                    counts[cls] = self._failure_rng.multinomial(
                        size, law[cls] / law[cls].sum())
                    self.messages += weight * int(np.arange(batch + 1) @ counts[cls])
            if weight > 1:
                order = np.argsort(2 * row0 + short0 + self._failure_rng.random(n))
                live = np.empty(n, dtype=np.intp)
                live[order] = np.repeat(np.tile(np.arange(batch + 1), len(law)), counts.ravel())
        for table, row in zip(short_given_live[len(shorts):], rows[len(shorts):]):
            shorts.append(self._short(table, (row, live)))
        return np.array(shorts)

    def _short(self, chance: np.ndarray, index) -> np.ndarray:
        """Nodes short of good pulls, node v with chance ``chance[index]``:
        an index of ints picks one entry for every node, an array or a
        tuple holding arrays one entry per node.

        One uniform per node is drawn from the round stream, and only when
        the entry picked for all, or some entry of ``chance``, lies
        strictly between 0 and 1.
        """
        if not any(np.ndim(part) for part in (index if isinstance(index, tuple) else (index,))):
            p = float(chance[index])  # one chance: a float test costs less than array ops
            return self.rng.random(self.n) < p if 0.0 < p < 1.0 else np.full(self.n, p >= 1.0)
        if ((chance > 0.0) & (chance < 1.0)).any():
            return self.rng.random(self.n) < chance[index]
        return (chance >= 1.0)[index]

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

    Distinct values have one sorted order, so the ids come from the faster
    unstable sort, and the stable one runs only when the sorted values
    hold equal neighbours or a NaN (which sorts last and equals nothing,
    itself included, so the neighbour test cannot see NaN ties).
    """
    values = np.asarray(values)
    n = values.shape[0]
    order = np.argsort(values)
    ordered = values[order]
    if n and (ordered[-1] != ordered[-1] or (ordered[1:] == ordered[:-1]).any()):
        order = np.argsort(values, kind="stable")
        ordered = values[order]
    ids = np.empty(n, dtype=np.int64)
    ids[order] = np.arange(n)
    return ids, ordered


@dataclass
class TrialReport:
    """Outcome of one seeded trial.

    ``outputs`` holds per-node output values (NaN where a node produced
    none); ``output_ranks`` the matching 1-based initial ranks (0 = none).
    """

    rounds: int = 0
    messages: int = 0
    outputs: np.ndarray | None = None
    output_ranks: np.ndarray | None = None
    max_rank_error: int = 0
    details: dict = field(default_factory=dict)
