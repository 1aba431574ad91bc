"""Seeded experiment harness: trial runners, oracle checks, reports.

Success columns are always computed from the sort-based rank oracle (the
initial canonical ranking), never from protocol-internal state. Re-running
a command with the same config and seeds reproduces byte-identical CSV
data rows; seed-level parallelism (``run_batch``'s ``threads``, the CLI's
``--threads``) does not affect row content or order.
"""
from __future__ import annotations

import json
import math
import os
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    STREAM_VALUES,
    BudgetExceededError,
    FailureModel,
    RoundEngine,
    SimConfig,
    derive_rng,
)
from . import exact
from .exact import InvariantViolation, TrialFailure, exact_quantile
from .schedules import three_tournament_schedule, two_tournament_schedule
from .sketch import compaction_error_check
from .tournament import (
    _make_state,
    _tournament_core,
    approx_quantile,
    clamped_rank,
    robust_approx_quantile,
    target_rank,
)

CSV_COLUMNS = (
    "experiment", "n", "phi", "eps", "mu", "seed",
    "rounds", "messages", "max_rank_error", "success",
)


def rank_window(n: int, phi: float, eps: float) -> tuple[int, int]:
    """Inclusive 1-based rank bounds of an acceptable output."""
    lo = max(1, int(math.ceil((phi - eps) * n - 1e-9)))
    hi = min(n, int(math.floor((phi + eps) * n + 1e-9)))
    return lo, hi


# ---------------------------------------------------------------------------
# trial runners
#
# Each runner takes its experiment's CLI options as keywords and returns
# (rounds, messages, max_rank_error, success, extras); ``run_trial`` builds
# the CSV row from the experiment's table key and the runner's keywords.
# ``extras`` holds the columns only the runner knows (exact's eps, the
# sketch's n) and underscore keys the CSV leaves out.


def run_approx_trial(n, phi, eps, seed):
    # failure-free: trials under failures go through run_robust_trial
    report = approx_quantile(phi, eps, SimConfig(n=n, seed=seed))
    lo, hi = rank_window(n, phi, eps)
    ranks = report.output_ranks
    ok = bool(((ranks >= lo) & (ranks <= hi)).all())
    return report.rounds, report.messages, report.max_rank_error, ok, {}


def run_robust_trial(n, phi, eps, seed, mu, t_extra):
    config = SimConfig(n=n, seed=seed, failure=FailureModel(mode="uniform", mu=mu, seed=seed))
    report = robust_approx_quantile(phi, eps, t_extra, config)
    lo, hi = rank_window(n, phi, eps)
    ranks = report.output_ranks
    answered = ranks > 0
    correct = answered & (ranks >= lo) & (ranks <= hi)
    ok = np.count_nonzero(~correct) <= n / 2 ** t_extra
    return report.rounds, report.messages, report.max_rank_error, ok, {}


def run_exact_trial(n, phi, seed, mu=0.0):
    config = SimConfig(n=n, seed=seed, failure=FailureModel(mode="uniform", mu=mu, seed=seed))
    values = derive_rng(seed, STREAM_VALUES).permutation(n)
    k0 = target_rank(phi, n)
    ordered = np.sort(values)
    extras = {"eps": exact.NARROW_EPS}  # read per trial, so a patched constant reaches the row
    try:
        result = exact_quantile(phi, config, values=values)
    except (TrialFailure, BudgetExceededError, InvariantViolation) as exc:
        # one bad trial becomes a failed row instead of aborting the batch;
        # its kind goes to the JSON summary, not to the CSV
        extras["_failure_kind"] = type(exc).__name__
        return 0, 0, n, False, extras
    # the values are distinct, so the answer's rank is its sorted index + 1
    error = abs(int(np.searchsorted(ordered, result.value)) + 1 - k0)
    return result.rounds, result.messages, error, result.value == ordered[k0 - 1], extras


def run_sketch_trial(nprime, k, seed):
    """Compaction error check over a permutation of n' keys; n' is the row's n."""
    data = derive_rng(seed, STREAM_VALUES).permutation(nprime).astype(np.int64)
    err = compaction_error_check(nprime, k, data)
    return int(math.log2(nprime)) + 1, 0, err, True, {"n": nprime}


def spread_experiment(n: int, eps: float, seed: int) -> int:
    """Iterations until an initial 2*floor(2 eps n) good set covers everyone.

    Each iteration is a pull round and a push round of every node, n
    messages each: every node pulls from one uniform peer and pushes to
    another, and a bad node turns good on contact with a node that was
    good at the start of the iteration. Only two kinds of contact can
    change a node, a bad node's pull and a good node's push, so only
    those are drawn (the bad nodes' pull targets, then the good nodes'
    push targets, uniform on the round stream); the other contacts would
    leave every node as it is. An empty initial set, from which no node
    could ever turn good, raises ``ValueError`` before any round.
    """
    if not 0 < eps < 0.125:
        raise ValueError("eps must lie in (0, 1/8)")
    initial = 2 * int(2 * eps * n)
    if not initial:
        raise ValueError(f"the initial good set 2*floor(2*eps*n) is empty at n={n}, eps={eps!r}")
    engine = RoundEngine(SimConfig(n=n, seed=seed))
    good = np.zeros(n, dtype=bool)
    good[engine.values_rng().choice(n, size=min(n, initial), replace=False)] = True
    rounds = 0
    while not bool(good.all()):
        bad = np.flatnonzero(~good)
        rd = engine.next_round()
        rd.count_messages(n)
        pulled = good[rd.rng.integers(0, n, size=bad.size)]
        rd = engine.next_round()
        rd.count_messages(n)
        pushed = rd.rng.integers(0, n, size=n - bad.size)
        good[bad[pulled]] = True
        good[pushed] = True
        rounds += 1
    return rounds


def run_spread_trial(n, eps, seed):
    rounds = spread_experiment(n, eps, seed)
    threshold = math.ceil(math.log(8.0 / eps, 4.0))
    return rounds, 2 * n * rounds, 0, rounds >= threshold, {}


def self_quantile(eps: float, config: SimConfig, values=None):
    """Every node estimates its own value's quantile to within 2 eps.

    Runs the approximate protocol's tournament at each grid quantile
    j*eps with accuracy eps/2, one after another on the trial's one
    engine, which counts the rounds and messages; ``config.max_rounds``
    bounds the whole grid. A node's estimate is eps times the number of
    grid answers it holds strictly below its own key: a grid point that
    left the node without an answer (possible only under failures)
    counts neither way; a lone node answers every grid point with its own
    key, in no round. Returns ``(estimates, ids, rounds, messages)``.
    """
    if not 0 < eps < 0.125:
        raise ValueError("eps must lie in (0, 1/8)")
    engine, ids, _ = _make_state(config, values)
    n = config.n
    below = np.zeros(n, dtype=np.int64)
    for j in range(1, math.ceil(1.0 / eps)):
        outputs, has_output, _ = _tournament_core(
            ids, clamped_rank(j * eps * n, n), eps / 2.0, engine
        )
        below += has_output & (outputs < ids)
    return eps * below, ids, engine.rounds, engine.messages


def run_selfq_trial(n, eps, seed):
    config = SimConfig(n=n, seed=seed)
    gate = 2 * eps + 1e-12
    # the least node estimates 0 against its quantile 1/n, so a trial at
    # 1/n above the gate would fail whatever the protocol draws
    if eps > 0 and 1.0 / n > gate:
        raise ValueError(f"selfq needs 1/n <= 2 eps: n={n} is too small at eps={eps!r}")
    estimates, ids, rounds, messages = self_quantile(eps, config)
    true_q = (ids + 1) / n
    worst = float(np.abs(estimates - true_q).max())
    return rounds, messages, int(round(worst * n)), worst <= gate, {}


# ---------------------------------------------------------------------------
# the experiment table: one entry per trial subcommand of the CLI

OPTION_TYPES = {
    "n": int, "phi": float, "eps": float, "mu": float, "nprime": int, "k": int,
    "t_extra": int,
}


@dataclass(frozen=True)
class Experiment:
    """How the CLI runs one trial experiment and judges its batch.

    The table key names the experiment in every row ``run_trial`` builds
    from ``runner``'s result. Options are config keys (key ``t_extra`` is
    flag ``--t-extra``) and ``runner`` takes each one under its own name;
    the protocols' constants (K, exact's narrowing eps and iteration cap)
    are no options.
    ``optional`` gives the default applied after the config merge (None:
    the runner's own). A batch of at least ``gate[1]`` trials passes at
    success rate ``gate[0]``; a smaller one only when every trial succeeds.
    """

    runner: Callable[..., tuple]
    help: str
    required: tuple[str, ...]
    optional: dict = field(default_factory=dict)
    gate: tuple[float, int] = (1.0, 1)
    fits_rounds: bool = False

    def tasks(self, cfg: dict, seeds) -> list[dict]:
        """Runner kwargs for each seed from a merged, typed config."""
        kwargs = {name: cfg[name] for name in (*self.required, *self.optional)
                  if cfg.get(name) is not None}
        return [dict(kwargs, seed=s) for s in seeds]

    def passes(self, success_rate: float, trials: int) -> bool:
        floor, from_trials = self.gate
        return success_rate >= (floor if trials >= from_trials else 1.0)


EXPERIMENTS = {
    "approx": Experiment(
        run_approx_trial, "approximate quantile trials", ("n", "phi", "eps"),
        gate=(0.99, 100), fits_rounds=True,
    ),
    "exact": Experiment(
        run_exact_trial, "exact quantile trials", ("n", "phi"), {"mu": None},
    ),
    "robust": Experiment(
        run_robust_trial, "failure-robust approximate trials",
        ("n", "phi", "eps", "mu"), {"t_extra": 10},
        gate=(0.95, 20), fits_rounds=True,
    ),
    "sketch": Experiment(
        run_sketch_trial, "compaction error-bound trials", ("nprime", "k"),
    ),
    "spread": Experiment(
        run_spread_trial, "good-set spreading experiment", ("n", "eps"),
    ),
    "selfq": Experiment(
        run_selfq_trial, "per-node self-quantile trials", ("n", "eps"),
        gate=(0.95, 20), fits_rounds=True,
    ),
}


# ---------------------------------------------------------------------------
# batch execution and reporting


def run_trial(experiment: str, **kwargs) -> dict:
    """One trial of an ``EXPERIMENTS`` entry as a CSV row dict."""
    rounds, messages, max_rank_error, success, extras = (
        EXPERIMENTS[experiment].runner(**kwargs)
    )
    row = {
        "experiment": experiment, "n": kwargs.get("n"),
        "phi": kwargs.get("phi", ""), "eps": kwargs.get("eps", ""),
        "mu": kwargs.get("mu", 0.0), "seed": kwargs["seed"],
        "rounds": rounds, "messages": messages,
        "max_rank_error": max_rank_error, "success": int(success),
    }
    row.update(extras)
    return row


def _worker(task):
    experiment, kwargs = task
    return run_trial(experiment, **kwargs)


def run_batch(experiment: str, tasks, threads: int | None = None):
    """Rows of one experiment's runner kwargs, on ``threads`` processes (default: up to 4)."""
    if threads is None:
        threads = min(4, os.cpu_count() or 1)
    if threads <= 1 or len(tasks) <= 1:
        return [run_trial(experiment, **t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_worker, [(experiment, t) for t in tasks], chunksize=1))


def fit_round_constant(rows) -> float | None:
    """Least-squares slope of rounds against log2 log2 n + log2(1/eps)."""
    xs, ys = [], []
    for row in rows:
        eps = row.get("eps")
        n = row.get("n")
        if not eps or not n or n < 4:
            continue
        xs.append(math.log2(math.log2(n)) + math.log2(1.0 / eps))
        ys.append(row["rounds"])
    if not xs:
        return None
    x = np.asarray(xs)
    y = np.asarray(ys, dtype=float)
    denom = float((x * x).sum())
    if denom == 0:
        return None
    return float((x * y).sum() / denom)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def summarize(rows, config_echo: dict) -> dict:
    by_exp: dict[str, list] = {}
    for row in rows:
        by_exp.setdefault(row["experiment"], []).append(row)
    experiments = {}
    for name, sub in by_exp.items():
        successes = sum(r["success"] for r in sub)
        rounds = [r["rounds"] for r in sub]
        kinds = Counter(r["_failure_kind"] for r in sub if "_failure_kind" in r)
        experiments[name] = {
            "trials": len(sub),
            "successes": successes,
            "success_rate": successes / len(sub),
            "rounds_mean": float(np.mean(rounds)),
            "rounds_max": int(np.max(rounds)),
            "messages_mean": float(np.mean([r["messages"] for r in sub])),
            "max_rank_error_max": int(np.max([r["max_rank_error"] for r in sub])),
            "failures_by_kind": dict(sorted(kinds.items())),
            "fitted_round_constant": (
                fit_round_constant(sub) if EXPERIMENTS[name].fits_rounds else None
            ),
        }
    # a trial's draws depend on numpy's Generator methods as well as the config
    return {"config": config_echo, "experiments": experiments, "numpy": np.__version__}


def emit_report(rows, csv_path=None, json_path=None, config_echo=None) -> dict:
    """Write CSV rows and a JSON summary; returns the summary dict."""
    summary = summarize(rows, config_echo or {})
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(rows_to_csv(rows))
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary


def schedule_text(phi: float, eps: float, n: int | None = None) -> str:
    """Human-readable schedule dump used by the CLI."""
    sched = two_tournament_schedule(phi, eps)
    lines = [
        f"phase-1 direction={sched.direction} T={sched.threshold!r}",
        "h=[" + ", ".join(repr(h) for h in sched.h) + "]",
        "delta=[" + ", ".join(repr(d) for d in sched.delta) + "]",
        f"t={sched.t}",
    ]
    if n is not None:
        s2 = three_tournament_schedule(eps, n)
        lines += [
            f"phase-2 T2={s2.threshold!r}",
            "l=[" + ", ".join(repr(v) for v in s2.l) + "]",
            f"t2={s2.t}",
        ]
    return "\n".join(lines)
