"""Deterministic synchronous round engine for uniform-gossip trials.

A trial is a pure function of its :class:`SimConfig`. Every random draw
comes from a PCG64 generator keyed by ``(seed, stream tag)`` through
:func:`numpy.random.SeedSequence`, and an engine builds one generator per
stream, once.

Failures are fixed ahead of the protocol, on the failure stream: an
oblivious adversary's choice, made before execution. A plain round
(:meth:`RoundEngine.next_round`) draws n uniforms from it for its failure
bits, so a run of plain rounds reads successive n-blocks of the stream.
A pull batch (:meth:`RoundEngine.advance_batch`) uses only each node's
count of rounds whose pull did not fail, and under ``uniform`` (and
``none``) it draws no per-round bit: the counts are i.i.d. binomial, so
the engine draws, in law, which nodes are short of good pulls and the
batch's message total. ``scheduled`` gives each node and round its own
probability, so its batches still draw per-round bits.

Protocol draws follow call order. Peer vectors and the protocol's own
coins come from the round stream in the order the protocol asks for
them, not one block per round: a protocol may draw for several rounds
at once (``tournament.robust_pull_batch`` draws its coins, its short
mask and its picks once per batch), draw contacts for only the nodes
whose contact can matter (``harness.spread_experiment``), or draw
nothing in a round, and every later draw follows deterministically.
Messages are counted per round or per batch.

One engine round corresponds to one push or pull of a single value per
node; :meth:`Round.pull` is the one plain pull, and a node whose pull
fails keeps its own value. Protocols that perform ``k`` pulls per
iteration advance the engine by ``k`` rounds, so reported rounds count
per-node sequential communication steps.
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


class BudgetExceededError(RuntimeError):
    """Raised when a trial consumes more rounds than ``max_rounds``."""


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for the substream identified by ``(seed, *key)``."""
    entropy = tuple(int(k) & _MASK64 for k in (seed, *key))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


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
    model: FailureModel, round_index: int, n: int, rng: np.random.Generator,
) -> np.ndarray:
    """Failure bits for one round from ``rng``, the failure stream.

    An active model draws exactly ``n`` uniforms per call.
    """
    if not model.active:
        return np.zeros(n, dtype=bool)
    u = rng.random(n)
    if model.mode == "uniform":
        return u < model.mu
    return u < model.probabilities(round_index, n)


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

    def pull(self, values: np.ndarray, actors: np.ndarray | None = None,
             message_weight: int = 1) -> np.ndarray:
        """Each node's pull of ``values`` (indexed by node, 1-D or
        ``(n, size)``) from its contact, drawn and counted by :meth:`peers`.

        A node whose pull failed keeps its own row: the one failure rule
        every plain pull shares.
        """
        pulled = values[self.peers(actors, message_weight)]
        if self.failed is None:
            return pulled
        failed = self.failed.reshape((-1,) + (1,) * (values.ndim - 1))
        return np.where(failed, values, pulled)

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
        self._failure_rng = None
        if config.failure.active:
            self._failure_rng = derive_rng(config.seed, STREAM_FAILURE)

    def next_round(self) -> Round:
        if self.rounds >= self.config.max_rounds:
            raise BudgetExceededError(
                f"round budget {self.config.max_rounds} exceeded"
            )
        index = self.rounds
        self.rounds += 1
        failed = None
        if self._failure_rng is not None:
            failed = draw_failures(self.config.failure, index, self.n, self._failure_rng)
        return Round(index, self.rng, failed, self)

    def advance_batch(self, batch: int, short_given_live: np.ndarray, row) -> np.ndarray:
        """Charge ``batch`` pull rounds at once; return the mask of nodes short of good pulls.

        ``short_given_live[r, m]`` is the chance that a node of row ``r``
        is short when its pull did not fail in m of the batch's rounds
        (its live count); ``row`` is one row for every node, or one per
        node. The rounds are charged under :meth:`next_round`'s budget
        rule: a batch that would cross ``max_rounds`` stops the engine at
        ``max_rounds`` and raises. Each live round of a node counts one
        message.

        Without failures every live count is ``batch``. Under ``uniform``
        the live counts are i.i.d. Binomial(batch, 1 - mu), so a node is
        short with probability ``p[row] = sum_k pmf[k] short_given_live[row, k]``,
        and given the short mask the live counts within each (row, short)
        class are i.i.d. with pmf proportional to pmf * short_given_live[row]
        (or pmf * (1 - short_given_live[row])): the message total is drawn
        from the failure stream as one multinomial per class, and no
        per-round bit is drawn. ``scheduled`` gives every node and round
        its own probability, so its per-round bits are drawn from the
        failure stream by :func:`draw_failures` and summed into live counts.
        The short mask is one uniform per node from the round stream,
        drawn only when some chance in play lies strictly between 0 and 1.
        """
        start = self.rounds
        if start + batch > self.config.max_rounds:
            self.rounds = self.config.max_rounds
            raise BudgetExceededError(
                f"round budget {self.config.max_rounds} exceeded"
            )
        self.rounds += batch
        model, n = self.config.failure, self.n
        if not model.active:
            self.messages += n * batch
            return self._short(short_given_live[:, batch], row)
        if model.mode == "scheduled":
            live = np.full(n, batch, dtype=np.min_scalar_type(batch))
            for index in range(start, start + batch):
                live -= draw_failures(model, index, n, self._failure_rng)
            self.messages += int(live.sum())
            return self._short(short_given_live, (row, live))
        pmf = _live_pmf(batch, model.mu)
        lacking = pmf * short_given_live
        short = self._short(lacking.sum(axis=1), row)
        sizes = np.zeros((len(lacking), 2), dtype=np.int64)  # [row, short]
        if np.ndim(row):
            sizes.flat[:] = np.bincount(2 * row + short, minlength=sizes.size)
        else:
            count = int(np.count_nonzero(short))
            sizes[row] = n - count, count
        live = np.arange(batch + 1)
        for r, (kept_size, short_size) in enumerate(sizes):
            for size, weights in ((kept_size, pmf - lacking[r]), (short_size, lacking[r])):
                if size:
                    weights = np.maximum(weights, 0.0)
                    counts = self._failure_rng.multinomial(size, weights / weights.sum())
                    self.messages += int(live @ counts)
        return short

    def _short(self, chance: np.ndarray, index) -> np.ndarray:
        """Nodes short of good pulls, node v with chance ``chance[index]``:
        an int ``index`` picks one entry for every node, an array or a
        tuple of arrays one entry per node.

        One uniform per node is drawn from the round stream, and only when
        the entry picked for all, or some entry of ``chance``, lies
        strictly between 0 and 1.
        """
        if isinstance(index, int):  # one chance: a float test costs less than array ops
            p = float(chance[index])
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
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    details: dict = field(default_factory=dict)
