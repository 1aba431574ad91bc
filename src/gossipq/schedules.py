"""Closed-form recurrences, iteration-count bounds and sizing rules.

Pure functions: this module is the oracle layer for the protocol tests and
the schedule generator the tournaments run from, their pull-batch sizes
under failures included. All reals are double precision; a recurrence
that fails to cross its threshold within 200 steps raises, since every
legal input converges in far fewer.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_MAX_STEPS = 200

SHRINK_HIGH = "shrink-high"
SHRINK_LOW = "shrink-low"


@dataclass(frozen=True)
class Phase1Schedule:
    """Driving sequence for the two-pull quantile-shifting phase.

    ``h`` tracks the shrinking side's expected fraction (the above-target
    mass for ``shrink-high``, the below-target mass for ``shrink-low``):
    h[0] is the starting fraction, h[i+1] = h[i]^2, and the loop stops at
    the first entry at or below T = 1/2 - eps. ``delta[i]`` is the
    per-node probability of performing the two-pull step in iteration i;
    it is 1 for every iteration except possibly the last.
    """

    phi: float
    eps: float
    direction: str
    h: tuple[float, ...]
    delta: tuple[float, ...]
    t: int
    threshold: float


@dataclass(frozen=True)
class Phase2Schedule:
    """Driving sequence for the three-pull median-amplification phase.

    l[0] = 1/2 - eps, l[i+1] = 3 l[i]^2 - 2 l[i]^3, stopping at the first
    entry at or below T2 = n^(-1/3).
    """

    eps: float
    n: int
    l: tuple[float, ...]
    t: int
    threshold: float


def two_tournament_schedule(phi: float, eps: float) -> Phase1Schedule:
    """Schedule for shifting the quantiles around ``phi`` to the median.

    Requires 0 <= phi <= 1 and 0 < eps < 1/8. When the below-target mass
    exceeds the above-target mass the schedule is generated on the
    symmetric side and marked ``shrink-low`` (protocols then keep the max
    of their two pulls instead of the min).
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError("phi must lie in [0, 1]")
    if not 0.0 < eps <= 0.125:
        raise ValueError("eps must lie in (0, 1/8]")
    h0 = 1.0 - (phi + eps)
    l0 = phi - eps
    direction = SHRINK_HIGH if h0 >= l0 else SHRINK_LOW
    x = h0 if direction == SHRINK_HIGH else l0
    threshold = 0.5 - eps
    seq = [x]
    delta: list[float] = []
    while x > threshold:
        if len(delta) >= _MAX_STEPS:
            raise RuntimeError("phase-1 recurrence failed to converge")
        nxt = x * x
        delta.append(min(1.0, (x - threshold) / (x - nxt)))
        seq.append(nxt)
        x = nxt
    return Phase1Schedule(
        phi=phi, eps=eps, direction=direction,
        h=tuple(seq), delta=tuple(delta), t=len(delta), threshold=threshold,
    )


def three_tournament_schedule(eps: float, n: int) -> Phase2Schedule:
    """Schedule for concentrating mass at the median.

    Requires 0 < eps < 1/2 and n >= 2. The recurrence strictly decreases
    below the repelling fixed point 1/2, so it always terminates.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if n < 2:
        raise ValueError("n must be >= 2")
    threshold = n ** (-1.0 / 3.0)
    x = 0.5 - eps
    seq = [x]
    while x > threshold:
        if len(seq) > _MAX_STEPS:
            raise RuntimeError("phase-2 recurrence failed to converge")
        x = 3.0 * x * x - 2.0 * x * x * x
        seq.append(x)
    return Phase2Schedule(
        eps=eps, n=n, l=tuple(seq), t=len(seq) - 1, threshold=threshold,
    )


def shift_bound(eps: float) -> float:
    """Upper bound on the phase-1 iteration count: log_{7/4}(4/eps) + 2."""
    if not 0.0 < eps <= 0.125:
        raise ValueError("eps must lie in (0, 1/8]")
    return math.log(4.0 / eps, 7.0 / 4.0) + 2.0


def tournament_bound_steps(eps: float, n: int) -> int:
    """Integer phase-2 iteration bound: each derivation stage rounded up.

    ceil(log_{11/8}(1/(4 eps))) + ceil(log2 log4 n).
    """
    if not 0.0 < eps < 0.25:
        raise ValueError("eps must lie in (0, 1/4)")
    if n < 16:
        raise ValueError("n must be >= 16")
    return math.ceil(math.log(1.0 / (4.0 * eps), 11.0 / 8.0)) + math.ceil(
        math.log2(math.log(n, 4.0))
    )


# ---------------------------------------------------------------------------
# pull-batch sizes under failures

# The bad fraction the derived batches keep at every tournament iteration.
BAD_FRACTION_CAP = 1.0 / 32.0


@functools.lru_cache(maxsize=256)
def _binomial_grid(need: int, batch: int):
    """``m = 0..batch``, log(i) at index need + i (-inf for i <= 0), and
    the tables at q = 0 and q = 1, where an entry is a comparison of the
    success counts (need - 1, need) with 0 or with m; read-only."""
    m = np.arange(batch + 1)
    below = np.array([[need - 1], [need]])
    log_i = np.concatenate((np.full(need + 1, -np.inf), np.log(m[1:])))
    edges = np.array([np.broadcast_to(below > 0, (2, batch + 1)), m < below], dtype=float)
    for a in (m, log_i, edges):
        a.flags.writeable = False
    return m, log_i, edges


def binomial_below(q, need: int, batch: int) -> np.ndarray:
    """``table[i, m] = P(Binomial(m, q) < need - 1 + i)`` for i in (0, 1), m <= batch.

    ``q`` is one success probability, or one per m (a vector of length
    batch + 1). Row 1 is the chance of fewer than ``need`` successes in m
    trials, row 0 of fewer than ``need - 1`` (a phase-I node without its
    tournament coin needs one pull fewer). Sums the terms over j < need in
    log space, one vector over m per term, so it costs O(need) numpy
    operations and O(batch) memory: from j - 1 to j, a term's log grows by
    log((m - j + 1) / j) + log(q / (1 - q)), and stays -inf once j > m.
    At q = 0 or 1 the entry is a comparison.
    """
    m, log_i, edges = _binomial_grid(need, batch)
    if np.ndim(q) == 0 and not 0.0 < q < 1.0:
        return edges[int(q >= 1.0)].copy()
    q = np.asarray(q, dtype=float)
    edge = (q <= 0.0) | (q >= 1.0)
    if edge.all():
        return np.where(q >= 1.0, edges[1], edges[0])
    q_in = np.where(edge, 0.5, q)
    log_p = np.log1p(-q_in)
    log_ratio = np.log(q_in) - log_p
    log_term = m * log_p  # j = 0: (1 - q)^m
    table = np.zeros((2, batch + 1))
    for j in range(need):
        if j:
            log_term += log_i[need + 1 - j:need + 2 - j + batch]
            log_term += log_ratio - math.log(j)
        if j == need - 1:
            table[0] = table[1]
        table[1] += np.exp(log_term)
    if edge.any():
        table = np.where(edge, np.where(q >= 1.0, edges[1], edges[0]), table)
    return table


def _phase_trace(b, mu: float, batch: int, need: int, deltas) -> np.ndarray:
    """Bad fractions through one phase, for every batch size m <= batch.

    Row 0 is the starting bad fraction b (one value, or one per m), row
    i + 1 the bad fraction after iteration i when each iteration pulls
    over m rounds. A pull is good with probability (1 - mu)(1 - b); a node
    turns bad when its batch holds fewer good pulls than it needs:
    ``need``, or one fewer with probability 1 - delta (the phase-I copy
    branch).
    """
    trace = np.empty((len(deltas) + 1, batch + 1))
    trace[0] = b
    for i, delta in enumerate(deltas):
        if i and delta == deltas[i - 1] and (trace[i] == trace[i - 1]).all():
            trace[i + 1] = trace[i]  # the same step from the same fractions
            continue
        fewer, short = binomial_below((1.0 - mu) * (1.0 - trace[i]), need, batch)
        trace[i + 1] = delta * short + (1.0 - delta) * fewer
    return trace


def bad_fraction_trace(
    mu: float,
    sched1: Phase1Schedule,
    sched2: Phase2Schedule,
    batch1: int,
    batch2: int,
) -> tuple[float, ...]:
    """Expected bad fraction after each phase-I, then phase-II iteration.

    Iterates b' = delta P(Bin(batch1, q) < 2) + (1 - delta) P(Bin(batch1, q) < 1)
    over phase I and b' = P(Bin(batch2, q) < 3) over phase II, with
    q = (1 - mu)(1 - b) and b = 0 before the first iteration.
    """
    first = _phase_trace(0.0, mu, batch1, 2, sched1.delta)[:, batch1]
    second = _phase_trace(first[-1], mu, batch2, 3, (1.0,) * sched2.t)[:, batch2]
    return tuple(float(b) for b in (*first[1:], *second[1:]))


def _least_batch(lo: int, trace_upto) -> tuple[int, float]:
    """Least batch m >= lo whose trace stays at most ``BAD_FRACTION_CAP``,
    and the bad fraction it ends with.

    ``trace_upto(top)`` is a phase's trace for every batch size up to
    ``top``; top doubles from 4 lo until some column qualifies.
    """
    top = 4 * lo
    while True:
        trace = trace_upto(top)
        ok = (trace[:, lo:] <= BAD_FRACTION_CAP).all(axis=0)
        if ok.any():
            m = lo + int(ok.argmax())
            return m, float(trace[-1, m])
        top *= 2


@functools.lru_cache(maxsize=4096)
def pull_batch_sizes(
    mu: float,
    sched1: Phase1Schedule,
    sched2: Phase2Schedule,
    k: int,
    n: int,
) -> tuple[int, int, int]:
    """Rounds per phase-I batch, phase-II batch and K-sample batch at failure bound mu.

    The phase batches are the least that keep the bad fraction of
    :func:`bad_fraction_trace` at most ``BAD_FRACTION_CAP`` after every
    iteration, phase I first. The K-sample batch is the least sb with
    P(Bin(sb, (1 - mu)(1 - b_end)) < k) <= 1/n, b_end being the bad
    fraction after phase II, so that on average at most one node is short
    of its k good pulls. At mu = 0 the sizes are exactly 2, 3 and k. Each
    search evaluates every candidate size at once, one
    :func:`binomial_below` table per iteration.
    """
    phase2 = (1.0,) * sched2.t
    batch1, b = _least_batch(2, lambda top: _phase_trace(0.0, mu, top, 2, sched1.delta))
    batch2, b_end = _least_batch(3, lambda top: _phase_trace(b, mu, top, 3, phase2))
    q = (1.0 - mu) * (1.0 - b_end)
    top = 4 * k
    while not (ok := binomial_below(q, k, top)[1, k:] <= 1.0 / n).any():
        top *= 2
    return batch1, batch2, k + int(ok.argmax())


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def compaction_error_bound(n_prime: int, k: int) -> int:
    """Deterministic rank-error cap of the compacting buffer.

    (n'/2k) * log2(n'/k) for powers of two n' >= k >= 1; zero when no
    compaction ever happens (n' == k).
    """
    if not (_is_power_of_two(n_prime) and _is_power_of_two(k)):
        raise ValueError("n_prime and k must be powers of two")
    if n_prime < k:
        raise ValueError("n_prime must be >= k")
    if n_prime == k:
        return 0
    ratio = n_prime // k
    return (n_prime // (2 * k)) * int(math.log2(ratio))


def choose_buffer_size(eps: float, n: int, c: float = 4.0) -> int:
    """Compacted-buffer capacity: next power of two of the sizing rule.

    k = smallest power of two >= c * (1/eps) * (log2 log2 n + log2(1/eps)),
    never below 2.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if n < 4:
        raise ValueError("n must be >= 4")
    raw = c * (1.0 / eps) * (math.log2(math.log2(n)) + math.log2(1.0 / eps))
    k = 2
    while k < raw:
        k *= 2
    return k
