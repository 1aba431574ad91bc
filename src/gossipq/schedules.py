"""Closed-form recurrences, iteration-count bounds and sizing rules.

Pure functions: this module is the oracle layer for the protocol tests and
the schedule generator the tournaments run from. All reals are double
precision; a recurrence that fails to cross its threshold within 200 steps
raises, since every legal input converges in far fewer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
