"""Tournament protocols for approximate quantile computation.

Phase I shifts the quantiles around the target to the median: each node
pulls two uniform peers and keeps the smaller (or larger) of their
previous-iteration values, performing the step only with probability
``delta`` in the last iteration. Phase II amplifies the median: each node
pulls three peers and keeps the median value. A final round of K pulls
lets every node output the median of a uniform sample.

The failure-robust variants spend a larger batch of rounds per iteration
and use each node's first "good" pulls, a pull being good when it
neither failed nor contacted a node that was bad at the end of the
previous iteration; a node with too few turns bad. ``_tournament_core``
takes them exactly when the engine's failure model is active, with batch
sizes from its bound mu. ``robust_pull_batch`` samples a batch's good
pulls in distribution (a binomial count per node, then uniform picks
from the good nodes) rather than drawing a contact per node per round;
the failure bits and message counts stay those of the per-round loop.

States are vectors of canonical key ids (see ``engine.canonical_ids``);
all comparisons are id comparisons. Ids lie in ``[0, n)``, so
``_tournament_core`` converts its state once, to the dtype ``_id_dtype``
picks (the one place it is chosen): int32 whenever ``n <= 2**31 - 1``.
Every pull then gathers, and every pull batch and K-sample matrix
holds, half the bytes of int64. The outputs it returns are int64 again,
so callers never see the narrow state. The combining steps and the
K-sample use comparisons only, so they are exact for any dtype.
"""
from __future__ import annotations

import math

import numpy as np

from .engine import (
    RoundEngine,
    SimConfig,
    TrialReport,
    canonical_ids,
)
from .schedules import (
    SHRINK_HIGH,
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
# plain (failure-oblivious) iterations
#
# ``_tournament_core`` runs these only while the failure model is
# inactive, and the good-pull variants below whenever it is active. Called
# directly under failures, a failed pull keeps the puller's own previous
# value (``Round.pull``).


def _pull_values(values: np.ndarray, engine: RoundEngine) -> tuple[np.ndarray, "object"]:
    rd = engine.next_round()
    return rd.pull(values), rd


def phase1_iteration(
    values: np.ndarray,
    delta: float,
    direction: str,
    engine: RoundEngine,
) -> np.ndarray:
    """One two-pull iteration; costs 2 rounds regardless of the branch."""
    v1, rd1 = _pull_values(values, engine)
    do_t = None
    if delta < 1.0:
        do_t = rd1.rng.random(engine.n) < delta
    v2, _ = _pull_values(values, engine)
    return phase1_step(v1, v2, direction, do_t)


def phase2_iteration(values: np.ndarray, engine: RoundEngine) -> np.ndarray:
    """One three-pull median iteration; costs 3 rounds."""
    v1, _ = _pull_values(values, engine)
    v2, _ = _pull_values(values, engine)
    v3, _ = _pull_values(values, engine)
    return phase2_step(v1, v2, v3)


def _odd(k: int) -> int:
    return k if k % 2 == 1 else k + 1


def final_median_sample(values: np.ndarray, k_sample: int, engine: RoundEngine) -> np.ndarray:
    """Each node pulls K peers over K rounds and outputs their median.

    K is rounded up to the next odd number so the median is an element.
    """
    k = _odd(max(1, k_sample))
    picked = np.empty((k, engine.n), dtype=values.dtype)
    for j in range(k):
        picked[j], _ = _pull_values(values, engine)
    picked.partition(k // 2, axis=0)  # private scratch: no copy
    return picked[k // 2]


# ---------------------------------------------------------------------------
# failure-robust machinery


def phase_batch_size(mu: float) -> int:
    """Pulls per robust tournament iteration: ceil((4/(1-mu)) * log2(4/(1-mu))) + 1."""
    base = 4.0 / (1.0 - mu)
    return int(math.ceil(base * math.log2(base))) + 1


def sample_batch_size(mu: float, k_sample: int) -> int:
    """Pulls backing the final K-sample under failures: ceil(4K/(1-mu)) + 1."""
    return int(math.ceil(4.0 * k_sample / (1.0 - mu))) + 1


def robust_pull_batch(
    values: np.ndarray,
    good_prev: np.ndarray,
    need: int,
    batch: int,
    engine: RoundEngine,
    first_round_hook=None,
) -> tuple[np.ndarray, np.ndarray, object]:
    """Each node's good pulls over ``batch`` rounds, sampled in distribution.

    Returns ``(picked, counts, hook_result)`` where ``counts[v]`` is v's
    number of good pulls in the batch and ``picked[j, v]`` the value of
    its (j+1)-th (undefined past ``counts[v]``). A count never exceeds
    ``batch``, so a batch shorter than ``need`` leaves every node short.

    Every batch round is an engine round: it checks the budget, draws its
    failure bits and counts a message for each puller that did not fail.
    Such a pull contacts a uniform node, which is good with probability
    g = |good_prev| / n, and a good contact's value is uniform over the
    good nodes, independently across rounds and nodes. So instead of a
    contact per node per round, the round stream draws, in this order:
    the hook's coins (``first_round_hook`` runs once, on the last batch
    round's handle), ``counts ~ Binomial(live, g)`` where ``live[v]``
    counts the rounds v's pull did not fail, and ``need`` rows of uniform
    picks from the good nodes' values, one row at a time to bound memory.
    """
    if batch < 1:
        raise ValueError("a pull batch needs at least one round")
    n = engine.n
    live = np.full(n, batch, dtype=np.int32)
    for _ in range(batch):
        rd = engine.next_round()
        if rd.failed is None:
            rd.count_messages(n)
        else:
            rd.count_messages(n - np.count_nonzero(rd.failed))
            live -= rd.failed
    hook_result = None if first_round_hook is None else first_round_hook(rd)
    good_values = values[good_prev]
    counts = rd.rng.binomial(live, good_values.size / n)
    picked = np.zeros((need, n), dtype=values.dtype)
    if good_values.size:
        for row in picked:
            np.take(good_values, rd.rng.integers(0, good_values.size, size=n), out=row)
    return picked, counts, hook_result


def robust_phase1_iteration(
    values: np.ndarray,
    good_prev: np.ndarray,
    delta: float,
    direction: str,
    batch: int,
    engine: RoundEngine,
) -> tuple[np.ndarray, np.ndarray]:
    """Robust two-pull iteration; returns (new values, new good flags).

    A node needs two good pulls for the tournament branch and one for the
    copy branch; with fewer it keeps its value and turns bad.
    """
    n = engine.n
    hook = None
    if delta < 1.0:
        hook = lambda rd: rd.rng.random(n) < delta  # noqa: E731
    picked, counts, do_t = robust_pull_batch(
        values, good_prev, 2, batch, engine, first_round_hook=hook
    )
    required = np.full(n, 2) if do_t is None else np.where(do_t, 2, 1)
    good = counts >= required
    stepped = phase1_step(picked[0], picked[1], direction, do_t)
    return np.where(good, stepped, values), good


def robust_phase2_iteration(
    values: np.ndarray,
    good_prev: np.ndarray,
    batch: int,
    engine: RoundEngine,
) -> tuple[np.ndarray, np.ndarray]:
    """Robust three-pull median iteration."""
    picked, counts, _ = robust_pull_batch(values, good_prev, 3, batch, engine)
    good = counts >= 3
    stepped = phase2_step(picked[0], picked[1], picked[2])
    return np.where(good, stepped, values), good


def robust_final_median_sample(
    values: np.ndarray,
    good_prev: np.ndarray,
    k_sample: int,
    batch: int,
    engine: RoundEngine,
) -> tuple[np.ndarray, np.ndarray]:
    """Robust K-sample: nodes with K good pulls output the median of the
    first K, the rest output nothing (returned mask False)."""
    k = _odd(max(1, k_sample))
    picked, counts, _ = robust_pull_batch(values, good_prev, k, batch, engine)
    has_output = counts >= k
    picked.partition(k // 2, axis=0)  # private scratch: no copy
    return picked[k // 2], has_output


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


def _id_dtype(n: int):
    """Dtype of an id state over ids in [0, n): int32 whenever they fit."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _tournament_core(
    ids: np.ndarray,
    target_rank: int,
    eps: float,
    engine: RoundEngine,
    k_sample: int,
):
    """Run Phase I + Phase II + final sample over an id state.

    Returns ``(outputs, has_output, info)`` with per-node int64 output
    ids. The state runs as int32 when every id fits (see the module
    docstring). Every pull uses the good-pull batch machinery exactly
    when the engine's failure model is active, with batch sizes derived
    from its bound mu.
    """
    n = engine.n
    phi_eff = target_rank / n
    sched1 = two_tournament_schedule(phi_eff, eps)
    sched2 = three_tournament_schedule(eps / PHASE2_EPS_FACTOR, n)
    robust = engine.config.failure.active
    mu = engine.config.failure.mu
    batch = phase_batch_size(mu)
    values = ids.astype(_id_dtype(n), copy=False)
    good = np.ones(n, dtype=bool)
    good_trace: list[int] = []
    for delta in sched1.delta:
        if robust:
            values, good = robust_phase1_iteration(
                values, good, delta, sched1.direction, batch, engine
            )
            good_trace.append(int(good.sum()))
        else:
            values = phase1_iteration(values, delta, sched1.direction, engine)
    for _ in range(sched2.t):
        if robust:
            values, good = robust_phase2_iteration(values, good, batch, engine)
            good_trace.append(int(good.sum()))
        else:
            values = phase2_iteration(values, engine)
    if robust:
        sample_batch = sample_batch_size(mu, _odd(max(1, k_sample)))
        outputs, has_output = robust_final_median_sample(
            values, good, k_sample, sample_batch, engine
        )
    else:
        outputs = final_median_sample(values, k_sample, engine)
        has_output = np.ones(n, dtype=bool)
    info = {
        "phase1_iterations": sched1.t,
        "phase2_iterations": sched2.t,
        "good_trace": good_trace,
    }
    return outputs.astype(np.int64), has_output, info


def clamped_rank(rank: float, n: int) -> int:
    """ceil(rank) clamped to the 1-based ranks [1, n].

    The 1e-9 slack keeps a product such as phi * n that lands a rounding
    error above an integer from moving up one rank.
    """
    return max(1, min(n, math.ceil(rank - 1e-9)))


def _make_state(config: SimConfig, values):
    engine = RoundEngine(config)
    if values is None:
        values = engine.values_rng().permutation(config.n)
    else:
        values = np.asarray(values)
        if values.shape[0] != config.n:
            raise ValueError("values length must equal config.n")
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
    report.details["missing_outputs"] = int(np.count_nonzero(~has_output))
    return report


def _approx_trial(phi, eps, t_extra, config, values, k_sample) -> TrialReport:
    """One approximate-quantile trial: the tournaments, then ``t_extra``
    adoption rounds for nodes without an answer."""
    engine, ids, value_by_rank = _make_state(config, values)
    n = config.n
    target_rank = clamped_rank(phi * n, n)
    report = TrialReport()
    if n == 1:
        return _finish_report(
            engine, report, np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool),
            value_by_rank, target_rank,
        )
    outputs, has_output, info = _tournament_core(ids, target_rank, eps, engine, k_sample)
    report.details["missing_before_adoption"] = int(np.count_nonzero(~has_output))
    report.details["good_trace"] = info["good_trace"]
    outputs, has_output = adoption_rounds(outputs, has_output, t_extra, engine)
    report.phase1_iterations = info["phase1_iterations"]
    report.phase2_iterations = info["phase2_iterations"]
    return _finish_report(engine, report, outputs, has_output, value_by_rank, target_rank)


def approx_quantile(
    phi: float,
    eps: float,
    config: SimConfig,
    values=None,
    *,
    k_sample: int = 30,
) -> TrialReport:
    """The epsilon-approximate phi-quantile protocol, one full trial.

    Every node ends up holding an output whose initial rank should lie in
    [(phi - eps) n, (phi + eps) n]. Input values default to a seeded
    permutation; pass an array to run on specific data. Under an active
    failure model every pull uses the good-pull batch, and a node without
    K good sample pulls outputs nothing (NaN, rank 0): the trial is
    :func:`robust_approx_quantile` with ``t_extra=0``.
    """
    return _approx_trial(phi, eps, 0, config, values, k_sample)


def robust_approx_quantile(
    phi: float,
    eps: float,
    t_extra: int,
    config: SimConfig,
    values=None,
    *,
    k_sample: int = 30,
) -> TrialReport:
    """Failure-robust approximate quantile with t_extra adoption rounds.

    With mu == 0 every node has an answer after the tournaments, so no
    adoption round runs and this is :func:`approx_quantile` draw for draw.
    """
    return _approx_trial(phi, eps, t_extra, config, values, k_sample)
