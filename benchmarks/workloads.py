"""Trial plans, protocol calls and sort oracles for the four workloads.

A plan is the fixed list of trials one pass of a run executes. It is a
pure function of the workload name and the seed: the same seed gives the
same inputs, trial seeds, oracles and expected round counts. Oracles are
computed here, from the generated input in its own dtype, never from
protocol state, and before any protocol code runs (so a traced run does
not count the oracle's own schedule calls).

Every protocol call goes through a module attribute looked up at call
time (``tournament.approx_quantile``, not a name bound at import), so the
tracer's wrappers see it.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import astuple, dataclass, field

import numpy as np

from gossipq import engine, exact, harness, schedules, sketch, tournament

# Failure kinds the protocols declare; anything else raised by a trial is
# recorded under its class name and marks the run as not trustworthy.
DECLARED_FAILURES = (
    exact.TrialFailure,
    engine.BudgetExceededError,
    exact.InvariantViolation,
)


@dataclass
class Trial:
    """One protocol invocation with its input and precomputed oracle."""

    kind: str                  # approx | robust | spread | exact | sketch
    label: str                 # parameter summary, e.g. "exact n=1024 mu=0.5 big"
    n: int                     # nodes (sketch: n')
    seed: int
    params: dict
    values: np.ndarray | None = None
    oracle: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Record:
    """What a trial produced; ``failure`` is None when the oracle passed."""

    rounds: int
    messages: int
    output_hash: str
    failure: str | None


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def _odd(k: int) -> int:
    return k if k % 2 == 1 else k + 1


def _window_values(values: np.ndarray, phi: float, eps: float) -> tuple:
    """Smallest and largest acceptable output value, in the input dtype."""
    lo, hi = harness.rank_window(len(values), phi, eps)
    ordered = np.sort(values)
    return ordered[lo - 1], ordered[hi - 1]


def _in_dtype(outputs: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Outputs converted back to the input dtype, and a mask of the nodes
    whose float output converts without loss."""
    answered = ~np.isnan(outputs)
    converted = np.zeros(outputs.shape, dtype=dtype)
    converted[answered] = outputs[answered].astype(dtype)
    exact_back = np.zeros(outputs.shape, dtype=bool)
    exact_back[answered] = converted[answered].astype(np.float64) == outputs[answered]
    return converted, answered & exact_back


# ---------------------------------------------------------------------------
# trial runners: ``call`` runs the public protocol function (the timed
# part); ``check`` compares its result with the oracle


def _failure_model(t: Trial) -> engine.FailureModel:
    mu = t.params.get("mu", 0.0)
    if mu <= 0:
        return engine.FailureModel()
    return engine.FailureModel(mode="uniform", mu=mu, seed=t.seed)


def _call_approx(t: Trial):
    config = engine.SimConfig(n=t.n, seed=t.seed)
    return tournament.approx_quantile(t.params["phi"], t.params["eps"], config, values=t.values)


def _check_approx(t: Trial, report) -> Record:
    converted, clean = _in_dtype(report.outputs, t.values.dtype)
    lo_v, hi_v = t.oracle["window"]
    failure = None
    if not (clean.all() and ((converted >= lo_v) & (converted <= hi_v)).all()):
        failure = "wrong_answer"
    elif report.rounds != t.oracle["rounds"]:
        failure = "rounds_mismatch"
    return Record(report.rounds, report.messages, _hash(report.outputs), failure)


def _call_robust(t: Trial):
    p = t.params
    config = engine.SimConfig(n=t.n, seed=t.seed, failure=_failure_model(t))
    return tournament.robust_approx_quantile(
        p["phi"], p["eps"], p["t_extra"], config, values=t.values
    )


def _check_robust(t: Trial, report) -> Record:
    converted, clean = _in_dtype(report.outputs, t.values.dtype)
    lo_v, hi_v = t.oracle["window"]
    correct = clean & (converted >= lo_v) & (converted <= hi_v)
    bad = int(np.count_nonzero(~correct))
    failure = None if bad <= t.n / 2 ** t.params["t_extra"] else "wrong_answer"
    return Record(report.rounds, report.messages, _hash(report.outputs), failure)


def _call_spread(t: Trial):
    return harness.spread_experiment(t.n, t.params["eps"], t.seed)


def _check_spread(t: Trial, iterations) -> Record:
    # one iteration is a pull round and a push round of every node
    rounds = 2 * iterations
    failure = None if iterations >= t.oracle["min_iterations"] else "wrong_answer"
    return Record(rounds, t.n * rounds, _hash(iterations), failure)


def _call_exact(t: Trial):
    config = engine.SimConfig(n=t.n, seed=t.seed, failure=_failure_model(t))
    return exact.exact_quantile(t.params["phi"], config, values=t.values)


def _check_exact(t: Trial, result) -> Record:
    # Python compares int and float exactly; numpy would round the int
    # to float64 first and hide a lost low-order digit.
    failure = None if result.value == t.oracle["value"] else "wrong_answer"
    return Record(result.rounds, result.messages, _hash(result.value), failure)


def _call_sketch(t: Trial):
    try:
        return sketch.compaction_error_check(t.n, t.params["k"], t.values)
    except AssertionError:
        return None  # raised when the error exceeds the deterministic bound


def _check_sketch(t: Trial, err) -> Record:
    failure = None if err is not None and 0 <= err <= t.oracle["bound"] else "wrong_answer"
    return Record(t.oracle["rounds"], t.oracle["messages"], _hash(err), failure)


RUNNERS = {
    "approx": (_call_approx, _check_approx),
    "robust": (_call_robust, _check_robust),
    "spread": (_call_spread, _check_spread),
    "exact": (_call_exact, _check_exact),
    "sketch": (_call_sketch, _check_sketch),
}


def run_trial(t: Trial) -> tuple[Record, float]:
    """Run one trial and check it; returns the record and the call's wall
    seconds. A raised failure becomes a failed record, not an abort."""
    call, check = RUNNERS[t.kind]
    t0 = time.perf_counter()
    try:
        result = call(t)
    except DECLARED_FAILURES as exc:
        elapsed = time.perf_counter() - t0
        return Record(0, 0, _hash(type(exc).__name__), type(exc).__name__), elapsed
    except Exception as exc:  # noqa: BLE001 - one bad trial must not end the run
        elapsed = time.perf_counter() - t0
        kind = "undeclared:" + type(exc).__name__
        return Record(0, 0, _hash(kind, str(exc)), kind), elapsed
    elapsed = time.perf_counter() - t0
    return check(t, result), elapsed


# ---------------------------------------------------------------------------
# plans


def _approx_trial(rng, n, phi, eps) -> Trial:
    values = rng.permutation(n).astype(np.int64)
    target_rank = max(1, min(n, math.ceil(phi * n - 1e-9)))
    t1 = schedules.two_tournament_schedule(target_rank / n, eps).t
    t2 = schedules.three_tournament_schedule(eps / 4.0, n).t
    return Trial(
        "approx", f"approx n={n} phi={phi}", n, int(rng.integers(2**62)),
        {"phi": phi, "eps": eps}, values,
        {"window": _window_values(values, phi, eps),
         "rounds": 2 * t1 + 3 * t2 + _odd(30)},
    )


def _spread_trial(rng, n, eps) -> Trial:
    return Trial(
        "spread", f"spread n={n} eps={eps}", n, int(rng.integers(2**62)),
        {"eps": eps}, None,
        {"min_iterations": math.ceil(math.log(8.0 / eps, 4.0))},
    )


def plan_approx_wide(rng) -> list[Trial]:
    trials = []
    for _ in range(10):
        for phi in (0.1, 0.5, 0.9):
            trials.append(_approx_trial(rng, 100_000, phi, 0.05))
        trials.append(_spread_trial(rng, 1_000_000, 0.01))
    return trials


def plan_robust_wide(rng) -> list[Trial]:
    trials = []
    for _ in range(12):
        t = _approx_trial(rng, 100_000, 0.5, 0.05)
        t.kind, t.label = "robust", "robust n=100000 phi=0.5 mu=0.5"
        t.params.update(mu=0.5, t_extra=10)
        del t.oracle["rounds"]
        trials.append(t)
    return trials


# Input shapes for the exact protocol: a permutation, heavy ties (eight
# distinct values), and int64 keys above 2**53, which float64 cannot hold.
EXACT_INPUTS = ("perm", "ties", "big")


def _exact_values(rng, n, shape) -> np.ndarray:
    if shape == "perm":
        return rng.permutation(n).astype(np.int64)
    if shape == "ties":
        return rng.integers(0, 8, size=n, dtype=np.int64)
    return (2**60 + 3 * rng.permutation(n)).astype(np.int64)


def _exact_trial(rng, n, mu, shape, phi=0.5) -> Trial:
    values = _exact_values(rng, n, shape)
    k0 = max(1, min(n, math.ceil(phi * n - 1e-9)))
    return Trial(
        "exact", f"exact n={n} mu={mu} {shape}", n, int(rng.integers(2**62)),
        {"phi": phi, "mu": mu}, values,
        {"value": np.sort(values)[k0 - 1].item()},
    )


def plan_exact_narrow(rng) -> list[Trial]:
    # One cycle: plain trials at n=1024 and 4096, then a mu=0.5 trial at
    # n=1024 that takes about as long as they do together. Input shapes
    # rotate so each appears under both failure settings. The first trial,
    # which is also the warm-up, is a light plain one.
    trials = []
    for cycle in range(30):
        for j, n in enumerate((1024, 4096, 1024, 4096, 1024)):
            trials.append(_exact_trial(rng, n, 0.0, EXACT_INPUTS[(cycle + j) % 3]))
        trials.append(_exact_trial(rng, 1024, 0.5, EXACT_INPUTS[cycle % 3]))
    return trials


def _sketch_trial(rng, n_prime, k) -> Trial:
    levels = int(math.log2(n_prime))
    return Trial(
        "sketch", f"sketch n'={n_prime} k={k}", n_prime, 0,
        {"k": k}, rng.permutation(n_prime).astype(np.int64),
        {"bound": schedules.compaction_error_bound(n_prime, k),
         # as in the harness: log2 n' + 1 rounds; one buffer sent per
         # pairwise merge of the tree (computed, not simulated)
         "rounds": levels + 1, "messages": n_prime - 1},
    )


def plan_sketch_merge(rng) -> list[Trial]:
    trials = []
    for _ in range(12):
        for k in (64, 1024):
            trials.append(_sketch_trial(rng, 2**18, k))
    return trials


PLANS = {
    "approx-wide": plan_approx_wide,
    "robust-wide": plan_robust_wide,
    "exact-narrow": plan_exact_narrow,
    "sketch-merge": plan_sketch_merge,
}


def make_plan(workload: str, seed: int) -> list[Trial]:
    tag = list(PLANS).index(workload)
    return PLANS[workload](np.random.default_rng([seed, tag]))


def digest(records: list[Record]) -> str:
    """Fingerprint of a pass: each trial's rounds, messages and output."""
    return _hash(*(astuple(r) for r in records))
