"""Gossip aggregation primitives: min/max dissemination and push-sum counts.

Min/max spreading runs iterations of one push round and one pull round.
Each round's message carries both the held minimum and the held maximum
on the node's one contact, counted as two values by ``message_weight``;
the pull reads its contact's state after the push round, so a pull
forwards what its contact received one round earlier. Each node's held
minimum never increases and its held maximum never decreases, so the
simulator may stop early once every node holds the global extremes.

Push-sum follows the classic mass-conserving dynamic: each round a node
halves its (sum, weight) pair, keeps one half and pushes the other to a
uniform peer; incoming shares accumulate. A node that fails a round keeps
both halves, so global mass is conserved under failures too. It is one
lockstep routine, :func:`push_sum_multi`, over a (channels + 1, n) state
whose channels share the contact draws and the weight row, with one retry
loop, :func:`exact_count_multi`; the single-channel names call them.

Both budgets (``SPREAD_C`` for spreading; ``PUSH_SUM_C`` and
``PUSH_SUM_EXTRA`` per push-sum attempt, of at most ``COUNT_ATTEMPTS``),
and the exact protocol's token phase cap, are failure-free round counts
``base`` run for ceil(base / (1 - mu)) rounds, mu read from the engine's
failure model by :func:`failure_budget`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import RoundEngine

# Spreading budget: SPREAD_C * ceil(log2 n) iterations (through
# failure_budget). Push-pull spreading of one value completes in
# log2 n + O(log n) rounds w.h.p., so 4x leaves an overrun vanishingly rare.
SPREAD_C = 4
# Push-sum budget: ceil(PUSH_SUM_C * log2 n) + PUSH_SUM_EXTRA rounds (through
# failure_budget). Push-sum reaches relative error delta in O(log n +
# log 1/delta) rounds w.h.p., and an exact count needs delta below 1/(4n).
PUSH_SUM_C = 4
PUSH_SUM_EXTRA = 30
# An exact count runs push-sum up to COUNT_ATTEMPTS times, doubling the
# extra rounds each time, before the caller sees a failure.
COUNT_ATTEMPTS = 3
# A push-sum estimate n*s/w is flagged when its distance to the nearest
# integer exceeds 0.5 - AMBIGUITY = 0.25, halfway between an exact count
# (distance 0) and a tie between two counts (distance 0.5).
AMBIGUITY = 0.25


@dataclass
class SpreadResult:
    minimum: int | float       # the values' own extremes, as Python scalars
    maximum: int | float
    converged: bool
    iterations: int


@dataclass
class CountResult:
    estimates: np.ndarray          # per-node integer estimates
    flagged: np.ndarray            # per-node ambiguity flags
    rounds: int
    mass_trace: list[float] = field(default_factory=list)

    @property
    def any_flagged(self) -> bool:
        return bool(self.flagged.any())

    @property
    def unanimous(self) -> bool:
        return bool((self.estimates == self.estimates[0]).all())


def failure_budget(engine: RoundEngine, base: float) -> int:
    """ceil(base / (1 - mu)), mu the engine's failure bound: a node acts in
    a round with probability at least 1 - mu, so this many rounds keep at
    least ``base``, a failure-free budget, live rounds per node in
    expectation. The quotient is rounded to 9 decimals first, so float
    noise in 1 - mu (0.7 for mu = 0.3) cannot add a round."""
    return math.ceil(round(base / (1.0 - engine.config.failure.mu), 9))


def _gossip_exchange(lo: np.ndarray, hi: np.ndarray,
                     engine: RoundEngine) -> tuple[np.ndarray, np.ndarray]:
    """One push round and one pull round, each carrying both extremes on
    one contact per node; the pull reads the state the push left."""
    rd = engine.next_round()
    targets = rd.peers(message_weight=2)
    senders = slice(None) if rd.failed is None else ~rd.failed
    new_lo, new_hi = lo.copy(), hi.copy()
    # two 1-D ufunc.at calls: one over an (n, 2) state runs several times slower
    np.minimum.at(new_lo, targets[senders], lo[senders])
    np.maximum.at(new_hi, targets[senders], hi[senders])
    sources = engine.next_round().sources(message_weight=2)
    return np.minimum(new_lo, new_lo[sources]), np.maximum(new_hi, new_hi[sources])


def spread_min_max(
    values: np.ndarray,
    engine: RoundEngine,
    *,
    max_values: np.ndarray | None = None,
) -> SpreadResult:
    """Spread the global minimum and maximum to every node.

    ``values`` seeds the minimum pool; ``max_values`` (defaulting to the
    same array) seeds the maximum pool. The budget is
    ``ceil(SPREAD_C * ceil(log2 n) / (1 - mu))`` iterations of two rounds
    each; convergence before that is reported, running out is a per-trial
    failure the caller decides how to treat.
    """
    n = engine.n
    lo = np.asarray(values).copy()
    hi = lo.copy() if max_values is None else np.asarray(max_values).copy()
    true_min = lo.min().item()
    true_max = hi.max().item()
    budget = failure_budget(engine, SPREAD_C * math.ceil(math.log2(max(2, n))))
    iterations = 0
    converged = bool((lo == true_min).all() and (hi == true_max).all())
    while not converged and iterations < budget:
        lo, hi = _gossip_exchange(lo, hi, engine)
        iterations += 1
        converged = bool((lo == true_min).all() and (hi == true_max).all())
    return SpreadResult(true_min, true_max, converged, iterations)


def push_sum_count(
    indicator_bits: np.ndarray,
    engine: RoundEngine,
    *,
    track_mass: bool = False,
) -> CountResult:
    """Count set indicator bits by push-sum: :func:`push_sum_multi` on one channel."""
    bits = np.asarray(indicator_bits)
    return push_sum_multi(bits[np.newaxis, :], engine, track_mass=track_mass)[0]


def push_sum_multi(
    indicator_matrix: np.ndarray,
    engine: RoundEngine,
    *,
    attempt: int = 0,
    track_mass: bool = False,
) -> list[CountResult]:
    """Count the set 0/1 bits of each channel by push-sum, in lockstep.

    Runs ``ceil((ceil(PUSH_SUM_C * log2 n) + PUSH_SUM_EXTRA * 2**attempt)
    / (1 - mu))`` push rounds; each node then outputs ``round(n * s/w)``
    per channel. Estimates whose fractional part is within ``AMBIGUITY``
    of one half are flagged as ambiguous so callers can retry with more
    rounds. All channels share the contact draws and the weight
    component, so k counts cost the same number of rounds as one; each
    pushed share is a (k+1)-number message and is accounted as k message
    units. ``track_mass`` records each channel's total sum after every
    round.
    """
    mat = np.asarray(indicator_matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("indicator_matrix must be 2-d (channels, n)")
    if ((mat != 0.0) & (mat != 1.0)).any():
        raise ValueError("indicator bits must be 0/1")
    channels, n = mat.shape
    # rows 0..channels-1 hold the sums, the last row the shared weight
    state = np.empty((channels + 1, n), dtype=np.float64)
    state[:channels] = mat
    state[channels] = 1.0
    base = math.ceil(PUSH_SUM_C * math.log2(max(2, n))) + PUSH_SUM_EXTRA * 2**attempt
    rounds = failure_budget(engine, base)
    traces: list[list[float]] = [[] for _ in range(channels)]
    for _ in range(rounds):
        rd = engine.next_round()
        targets = rd.peers(message_weight=channels)
        send = state * 0.5
        if rd.failed is not None:
            # a failed node keeps both halves
            send = np.where(rd.failed, 0.0, send)
        state -= send
        for row, share in zip(state, send):
            row += np.bincount(targets, weights=share, minlength=n)
        if track_mass:
            for ch in range(channels):
                traces[ch].append(float(state[ch].sum()))
    results = []
    for ch in range(channels):
        raw = n * state[ch] / state[channels]
        estimates = np.rint(raw).astype(np.int64)
        flagged = np.abs(raw - estimates) > (0.5 - AMBIGUITY)
        results.append(CountResult(estimates, flagged, rounds, traces[ch]))
    return results


def exact_count(indicator_bits: np.ndarray, engine: RoundEngine) -> int | None:
    """One-channel :func:`exact_count_multi`: the count, or None."""
    counts = exact_count_multi(np.asarray(indicator_bits)[np.newaxis, :], engine)
    return None if counts is None else counts[0]


def exact_count_multi(indicator_matrix: np.ndarray, engine: RoundEngine) -> list[int] | None:
    """Lockstep push-sum counts retried until all are exact, else None.

    A count is exact when no node flags it and all nodes agree. Each of
    the ``COUNT_ATTEMPTS`` attempts doubles the extra rounds; the
    protocol-level consumers treat ``None`` as a trial failure.
    """
    for attempt in range(COUNT_ATTEMPTS):
        results = push_sum_multi(indicator_matrix, engine, attempt=attempt)
        if all(not r.any_flagged and r.unanimous for r in results):
            return [int(r.estimates[0]) for r in results]
    return None
