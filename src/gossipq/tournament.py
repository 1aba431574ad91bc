"""Tournament protocols for approximate quantile computation.

Phase I shifts the quantiles around the target to the median: each node
pulls two uniform peers and keeps the smaller (or larger) of their
previous-iteration values, performing the step only with probability
``delta`` in the last iteration. Phase II amplifies the median: each node
pulls three peers and keeps the median value. A final round of K pulls
lets every node output the median of a uniform sample.

Every step pulls through one good-pull batch, ``robust_pull_batch``: a
node uses its first "good" pulls of the batch, a pull being good when it
neither failed nor contacted a node that was bad at the end of the
previous iteration; a node with too few keeps its value and turns bad
(in the K-sample, it outputs nothing). ``_tournament_core`` takes the
batch sizes from ``schedules.pull_batch_sizes``, derived from the
failure bound mu and the trial's schedules: the least that keep the
expected bad fraction at most 1/32 through both phases, and leave on
average at most one node short in the K-sample. At mu = 0 they are
exactly the pulls each step needs (2, 3 and K); every pull is good and
this is the plain protocol.

The batch samples in distribution rather than drawing a contact per
node per round, and the engine (``RoundEngine.advance_batch``) holds
the failure model: it charges the batch's rounds, draws which nodes are
short of the good pulls they need, one uniform per node against a
binomial table (nothing is drawn when every node is good and nothing
fails), and counts the messages. Under ``uniform`` failures the short
mask and the message total are drawn in law, with the joint law of the
per-round loop, and no per-round failure bit is drawn; ``scheduled``
failures still draw their per-round bits. Phases I and II then draw
uniform picks from the good nodes, and the K-sample draws its median as
one order statistic of the sorted good values. With no failures a
phase-I or phase-II step draws the contacts of one plain pull per node
per round, after the phase-I coins if it has any.

States are vectors of canonical key ids (see ``engine.canonical_ids``);
all comparisons are id comparisons. Ids lie in ``[0, n)``, so
``_tournament_core`` converts its state once, to the dtype ``_id_dtype``
picks (the one place it is chosen): int32 whenever ``n <= 2**31 - 1``.
Every pull then gathers, and every pull batch holds, half the bytes of
int64. The outputs it returns are int64 again, so callers never see the
narrow state. The combining steps use comparisons only and the K-sample
indexes the sorted good values, so they are exact for any dtype.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    RoundEngine,
    SimConfig,
    TrialReport,
    canonical_ids,
)
from .schedules import (
    SHRINK_HIGH,
    Phase1Schedule,
    Phase2Schedule,
    binomial_below,
    pull_batch_sizes,
    three_tournament_schedule,
    two_tournament_schedule,
)

# ---------------------------------------------------------------------------
# quantile-region bookkeeping


def quantile_cuts(n: int, lo_q: float, hi_q: float) -> tuple[int, int]:
    """Integer id cuts for the regions L (< lo_q), M, H (> hi_q).

    A key of 0-based id r has quantile (r + 1) / n. Returns
    ``(lo_cut, hi_start)``: ids below ``lo_cut`` are L, ids at or above
    ``hi_start`` are H.
    """
    lo_cut = max(0, min(n, math.ceil(lo_q * n - 1e-9) - 1))
    hi_start = max(0, min(n, math.floor(hi_q * n + 1e-9)))
    return lo_cut, max(hi_start, lo_cut)


def lmh_counts(ids: np.ndarray, lo_cut: int, hi_start: int) -> tuple[int, int, int]:
    low = int(np.count_nonzero(ids < lo_cut))
    high = int(np.count_nonzero(ids >= hi_start))
    return low, ids.shape[0] - low - high, high


# ---------------------------------------------------------------------------
# pure combining steps (forced-contact testable)


def phase1_step(
    v_first: np.ndarray,
    v_second: np.ndarray,
    direction: str,
    do_tournament: np.ndarray | None = None,
) -> np.ndarray:
    """Combine two pulled values: min (shrink-high) or max (shrink-low).

    Nodes with ``do_tournament`` False copy their first pull instead.
    """
    two = np.minimum(v_first, v_second) if direction == SHRINK_HIGH else np.maximum(v_first, v_second)
    if do_tournament is None:
        return two
    return np.where(do_tournament, two, v_first)


def phase2_step(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
    """Median of three pulled values: max(min(v1, v2), min(max(v1, v2), v3)).

    Comparisons only, no arithmetic, so no sum can round or overflow.
    """
    return np.maximum(np.minimum(v1, v2), np.minimum(np.maximum(v1, v2), v3))


# ---------------------------------------------------------------------------
# the good-pull batch and the steps that pull through it


def _odd(k: int) -> int:
    return k if k % 2 == 1 else k + 1


# Pick indices drawn per call: a block of rows draws exactly what its rows
# would one at a time, and this bounds a block's int64 indices to 512 KB.
_PICK_BLOCK = 1 << 16


def robust_pull_batch(
    values: np.ndarray,
    good_prev: np.ndarray | None,
    need: int,
    batch: int,
    engine: RoundEngine,
    delta: float = 1.0,
    median: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Each node's first ``need`` good pulls over ``batch`` rounds, sampled in distribution.

    ``good_prev`` masks the good nodes; None means every node is good.
    Returns ``(picked, used, coins)``. ``coins`` is each node's phase-I
    tournament coin, True with probability ``delta``, or None at
    ``delta >= 1``; a node whose coin is False needs one good pull fewer.
    ``used[v]`` is the number of good pulls v needs when its batch holds
    that many, else 0 (v is short). ``picked[j, v]`` is the value of v's
    (j+1)-th good pull; with ``median`` (``need`` odd), ``picked`` is
    instead one vector, the median of each node's first ``need``.
    Entries of a short node are undefined.

    The batch is ``batch`` engine rounds, charged and counted by
    :meth:`RoundEngine.advance_batch`, which holds the failure model. A
    pull that did not fail contacts a uniform node, which is good with
    probability g = |good_prev| / n, and a good contact's value is
    uniform over the good nodes, independently across rounds and nodes.
    So instead of a contact per node per round, the round stream draws,
    in this order: the coins; the short mask, v being short with chance
    P(Binomial(live[v], g) < need[v]) given the rounds ``live[v]`` in
    which v's pull did not fail (the engine draws one uniform per node,
    and nothing when every chance is 0 or 1, as at g = 1 without
    failures); then ``need`` rows of uniform picks from the good nodes'
    values, a block of rows at a time. With ``median`` the last draw is
    one Beta((need+1)/2, (need+1)/2) variate B per node instead, the
    median being ``sorted_good[floor(size * B)]``: the median of ``need``
    i.i.d. uniform indices into the sorted good values is that order
    statistic.
    """
    if batch < 1:
        raise ValueError("a pull batch needs at least one round")
    n = engine.n
    rng = engine.rng
    coins = rng.random(n) < delta if delta < 1.0 else None
    row = 1 if coins is None else coins.astype(np.intp)
    good_values = values if good_prev is None else values[good_prev]
    size = good_values.size
    short = engine.advance_batch(batch, binomial_below(size / n, need, batch), row)
    used = np.where(short, 0, need - 1 + row)
    if not size:
        return np.zeros((n,) if median else (need, n), dtype=values.dtype), used, coins
    if median:
        ordered = np.sort(good_values)
        half = (need + 1) / 2
        index = (size * rng.beta(half, half, size=n)).astype(np.intp)
        return ordered.take(np.minimum(index, size - 1, out=index)), used, coins
    picked = np.empty((need, n), dtype=values.dtype)
    step = max(1, _PICK_BLOCK // n)
    for start in range(0, need, step):
        block = picked[start:start + step]
        # the indices are in range, so "clip" clips nothing; it only spares
        # the copy of ``out`` that the default "raise" makes
        good_values.take(rng.integers(0, size, size=block.shape), out=block, mode="clip")
    return picked, used, coins


def _keep_short(stepped: np.ndarray, values: np.ndarray, good: np.ndarray):
    """A node short of good pulls keeps its value and turns bad.

    Returns ``(new values, good)``, with ``good`` None when every node is.
    """
    if good.all():
        return stepped, None
    return np.where(good, stepped, values), good


def robust_phase1_iteration(
    values: np.ndarray,
    good_prev: np.ndarray | None,
    delta: float,
    direction: str,
    batch: int,
    engine: RoundEngine,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Two-pull iteration over a batch; returns (new values, new good flags).

    A node needs two good pulls for the tournament branch and one for the
    copy branch; with fewer it keeps its value and turns bad.
    """
    picked, used, coins = robust_pull_batch(values, good_prev, 2, batch, engine, delta)
    stepped = phase1_step(picked[0], picked[1], direction, coins)
    return _keep_short(stepped, values, used > 0)


def robust_phase2_iteration(
    values: np.ndarray,
    good_prev: np.ndarray | None,
    batch: int,
    engine: RoundEngine,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Three-pull median iteration over a batch."""
    picked, used, _ = robust_pull_batch(values, good_prev, 3, batch, engine)
    return _keep_short(phase2_step(picked[0], picked[1], picked[2]), values, used > 0)


def robust_final_median_sample(
    values: np.ndarray,
    good_prev: np.ndarray | None,
    k_sample: int,
    batch: int,
    engine: RoundEngine,
) -> tuple[np.ndarray, np.ndarray]:
    """K-sample over a batch: nodes with K good pulls output the median of
    the first K, the rest output nothing (returned mask False).

    K is rounded up to the next odd number so the median is an element.
    """
    medians, used, _ = robust_pull_batch(
        values, good_prev, _odd(k_sample), batch, engine, median=True
    )
    return medians, used > 0


# ---------------------------------------------------------------------------
# failure-free entry points
#
# Each is the step above with every node good and a batch exactly as long
# as its pulls, so without failures every pull is good. Called under
# failures, a node short of good pulls keeps its value.


def phase1_iteration(
    values: np.ndarray,
    delta: float,
    direction: str,
    engine: RoundEngine,
) -> np.ndarray:
    """One two-pull iteration; costs 2 rounds regardless of the branch."""
    return robust_phase1_iteration(values, None, delta, direction, 2, engine)[0]


def phase2_iteration(values: np.ndarray, engine: RoundEngine) -> np.ndarray:
    """One three-pull median iteration; costs 3 rounds."""
    return robust_phase2_iteration(values, None, 3, engine)[0]


def final_median_sample(values: np.ndarray, k_sample: int, engine: RoundEngine) -> np.ndarray:
    """Each node pulls K peers over K rounds and outputs their median."""
    k = _odd(k_sample)
    outputs, has_output = robust_final_median_sample(values, None, k, k, engine)
    return _keep_short(outputs, values, has_output)[0]


def adoption_rounds(
    outputs: np.ndarray,
    has_output: np.ndarray,
    t_extra: int,
    engine: RoundEngine,
) -> tuple[np.ndarray, np.ndarray]:
    """Let answer-less nodes pull for t_extra rounds and adopt any answer.

    Rounds where no node lacks an answer are skipped entirely (nothing
    would be transmitted), so a failure-free robust trial consumes exactly
    the plain trial's rounds.
    """
    outputs = outputs.copy()
    has_output = has_output.copy()
    for _ in range(t_extra):
        if bool(has_output.all()):
            break
        rd = engine.next_round()
        missing = ~has_output
        # answers are ids >= 0; -1 marks none, which a failed pull keeps
        pulled = rd.pull(np.where(has_output, outputs, -1), actors=missing)
        can = missing & (pulled >= 0)
        outputs[can] = pulled[can]
        has_output |= can
    return outputs, has_output


# ---------------------------------------------------------------------------
# full protocol runs

# Phase II runs its schedule at eps / 4: phase I leaves every quantile within
# 1/2 +- eps/4 of its end state inside the target window [phi - eps, phi + eps]
# (see TestPhaseOneComposition), so the median band to amplify has half-width
# eps/4.
PHASE2_EPS_FACTOR = 4
# K, the final sample's pulls (rounded up to odd), read at call time.
K_SAMPLE = 30


def _id_dtype(n: int):
    """Dtype of an id state over ids in [0, n): int32 whenever they fit."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class TournamentPlan:
    """How one tournament runs: its two schedules, the odd K of its final
    sample, and the rounds per phase-I, phase-II and K-sample batch."""

    sched1: Phase1Schedule
    sched2: Phase2Schedule
    k: int
    batch1: int
    batch2: int
    sample_batch: int

    @property
    def rounds(self) -> int:
        """The tournament's rounds: t1 phase-I batches, t2 phase-II batches, one K-sample."""
        return self.sched1.t * self.batch1 + self.sched2.t * self.batch2 + self.sample_batch


def tournament_plan(
    target_rank: int, eps: float, n: int, k_sample: int, mu: float
) -> TournamentPlan:
    """The plan :func:`_tournament_core` runs for 1-based ``target_rank``.

    Phase I shifts quantile target_rank / n at accuracy eps, phase II runs
    at eps / ``PHASE2_EPS_FACTOR``, K is ``k_sample`` rounded up to odd,
    and the batch sizes are ``schedules.pull_batch_sizes`` at failure
    bound mu (2, 3 and K at mu = 0).
    """
    sched1 = two_tournament_schedule(target_rank / n, eps)
    sched2 = three_tournament_schedule(eps / PHASE2_EPS_FACTOR, n)
    k = _odd(k_sample)
    return TournamentPlan(sched1, sched2, k, *pull_batch_sizes(mu, sched1, sched2, k, n))


def _tournament_core(ids: np.ndarray, target_rank: int, eps: float, engine: RoundEngine):
    """Run Phase I + Phase II + a ``K_SAMPLE`` final sample over an id state.

    Returns ``(outputs, has_output, good_trace)``: per-node int64 output
    ids, the answered mask and the good-node count after each phase-I and
    phase-II iteration. The state runs as int32 when every id fits (see the
    module docstring). Every step pulls through the good-pull batch; the
    failure model only sizes the batches (see :func:`tournament_plan`).
    A lone node answers its own id in no round.
    """
    n = engine.n
    if n == 1:  # phase II's schedule needs n >= 2
        return ids.astype(np.int64), np.ones(1, dtype=bool), []
    plan = tournament_plan(target_rank, eps, n, K_SAMPLE, engine.config.failure.mu)
    sched1, sched2 = plan.sched1, plan.sched2
    values = ids.astype(_id_dtype(n), copy=False)
    good = None
    good_trace: list[int] = []
    for delta in sched1.delta:
        values, good = robust_phase1_iteration(
            values, good, delta, sched1.direction, plan.batch1, engine
        )
        good_trace.append(n if good is None else int(np.count_nonzero(good)))
    for _ in range(sched2.t):
        values, good = robust_phase2_iteration(values, good, plan.batch2, engine)
        good_trace.append(n if good is None else int(np.count_nonzero(good)))
    outputs, has_output = robust_final_median_sample(
        values, good, plan.k, plan.sample_batch, engine
    )
    return outputs.astype(np.int64), has_output, good_trace


def clamped_rank(rank: float, n: int) -> int:
    """ceil(rank) clamped to the 1-based ranks [1, n].

    The 1e-9 slack keeps a product such as phi * n that lands a rounding
    error above an integer from moving up one rank.
    """
    return max(1, min(n, math.ceil(rank - 1e-9)))


def target_rank(phi: float, n: int) -> int:
    """The rank a phi-quantile targets; a phi outside [0, 1] raises ``ValueError``."""
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must lie in [0, 1], got {phi!r}")
    return clamped_rank(phi * n, n)


def _make_state(config: SimConfig, values):
    """The trial's engine, canonical ids and sorted raw values. Values of a
    dtype other than bool, int, uint or float (str, datetime64, complex,
    object), or holding a NaN (no rank; a report's "no answer"), raise
    ``ValueError`` before the engine exists."""
    if values is not None:
        values = np.asarray(values)
        if values.dtype.kind not in "biuf":
            raise ValueError(f"values must be bool, integer or float, not {values.dtype}")
        if values.dtype.kind == "f" and np.isnan(values).any():
            raise ValueError("values must not hold NaN")
        if values.shape[0] != config.n:
            raise ValueError("values length must equal config.n")
    engine = RoundEngine(config)
    if values is None:
        values = engine.values_rng().permutation(config.n)
    ids, value_by_rank = canonical_ids(values)
    return engine, ids, value_by_rank


def _finish_report(
    engine: RoundEngine,
    report: TrialReport,
    outputs_ids: np.ndarray,
    has_output: np.ndarray,
    value_by_rank: np.ndarray,
    target_rank: int,
) -> TrialReport:
    out_vals = np.where(has_output, value_by_rank[outputs_ids].astype(float), np.nan)
    ranks = np.where(has_output, outputs_ids + 1, 0)
    report.rounds = engine.rounds
    report.messages = engine.messages
    report.outputs = out_vals
    report.output_ranks = ranks
    if has_output.any():
        report.max_rank_error = int(np.abs(ranks[has_output] - target_rank).max())
    report.details["target_rank"] = target_rank
    return report


def _approx_trial(phi, eps, t_extra, config, values) -> TrialReport:
    """One approximate-quantile trial: the tournaments, then ``t_extra``
    adoption rounds for nodes without an answer."""
    if t_extra < 0:
        raise ValueError("t_extra must be >= 0")
    rank = target_rank(phi, config.n)
    engine, ids, value_by_rank = _make_state(config, values)
    report = TrialReport()
    outputs, has_output, good_trace = _tournament_core(ids, rank, eps, engine)
    report.details["missing_before_adoption"] = int(np.count_nonzero(~has_output))
    report.details["good_trace"] = good_trace
    outputs, has_output = adoption_rounds(outputs, has_output, t_extra, engine)
    return _finish_report(engine, report, outputs, has_output, value_by_rank, rank)


def approx_quantile(phi: float, eps: float, config: SimConfig, values=None) -> TrialReport:
    """The epsilon-approximate phi-quantile protocol, one full trial.

    Every node ends up holding an output whose initial rank should lie in
    [(phi - eps) n, (phi + eps) n]. Input values default to a seeded
    permutation; pass an array to run on specific data. Under an active
    failure model the batches grow with mu, and a node without K good
    sample pulls outputs nothing (NaN, rank 0): the trial is
    :func:`robust_approx_quantile` with ``t_extra=0``.
    """
    return _approx_trial(phi, eps, 0, config, values)


def robust_approx_quantile(
    phi: float, eps: float, t_extra: int, config: SimConfig, values=None
) -> TrialReport:
    """Failure-robust approximate quantile with t_extra adoption rounds.

    With mu == 0 every node has an answer after the tournaments, so no
    adoption round runs and this is :func:`approx_quantile` draw for draw.
    A negative ``t_extra`` raises ``ValueError``.
    """
    return _approx_trial(phi, eps, t_extra, config, values)
