"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Every expected value is either computed by an in-test oracle (sorting,
popcount, binomial tolerances) or evaluated from the stated closed form;
tolerances are pinned here, not calibrated elsewhere. All seeds are fixed,
so the suite is deterministic.
"""
import math
import time

import numpy as np

from gossipq.aggregates import push_sum_count, spread_min_max
from gossipq.engine import FailureModel, RoundEngine, SimConfig
from gossipq.exact import distribute_tokens
from gossipq.harness import run_batch, spread_experiment
from gossipq.schedules import (
    compaction_error_bound,
    shift_bound,
    three_tournament_schedule,
    tournament_bound_steps,
    two_tournament_schedule,
)
from gossipq.sketch import compaction_error_check
from gossipq.tournament import (
    lmh_counts,
    phase1_iteration,
    phase2_iteration,
    quantile_cuts,
)


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")


def test_criterion_1_exact_quantile_correctness():
    """n in {256, 1024, 4096} x phi in {0.1, 0.5, 0.9} x 50 seeds:
    the output equals the sort oracle's value in 100% of trials, under
    60 seconds total."""
    start = time.perf_counter()
    tasks = [
        dict(n=n, phi=phi, seed=seed)
        for n in (256, 1024, 4096)
        for phi in (0.1, 0.5, 0.9)
        for seed in range(50)
    ]
    rows = run_batch("exact", tasks)
    elapsed = time.perf_counter() - start
    successes = sum(r["success"] for r in rows)
    ok = successes == len(tasks) and elapsed < 60.0
    _report("1 exact-correctness", ok,
            f"{successes}/{len(tasks)} exact in {elapsed:.1f}s")
    assert successes == len(tasks)
    assert elapsed < 60.0


def test_criterion_2_approximate_quantile():
    """n=1e5, eps=0.05, phi in {0.1, 0.5, 0.9}, 100 seeds each: every
    node's output rank inside [(phi-eps)n, (phi+eps)n] in >= 99 trials;
    rounds reported against c (log2 log2 n + log2(1/eps))."""
    n, eps = 100_000, 0.05
    all_ok = True
    scale = math.log2(math.log2(n)) + math.log2(1 / eps)
    for phi in (0.1, 0.5, 0.9):
        tasks = [dict(n=n, phi=phi, eps=eps, seed=seed) for seed in range(100)]
        rows = run_batch("approx", tasks)
        successes = sum(r["success"] for r in rows)
        mean_rounds = np.mean([r["rounds"] for r in rows])
        ok = successes >= 99
        all_ok &= ok
        _report(
            f"2 approx phi={phi}", ok,
            f"{successes}/100 in-window; rounds_mean={mean_rounds:.1f} "
            f"= {mean_rounds / scale:.2f} x (log2log2 n + log2 1/eps)",
        )
        assert successes >= 99
    assert all_ok


def test_criterion_3_one_step_expectation_laws():
    """Single-iteration laws at n=1e5 over 200 seeds: the mean measured
    high fraction after a two-pull iteration sits within 3 sigma of p^2
    (sigma of the 200-seed mean), and the mean low fraction after a
    three-pull iteration within 3 sigma of 3p^2 - 2p^3. Individual seeds
    are also checked at the per-trial 3 sigma level with the expected
    0.3% outlier allowance."""
    n, seeds = 100_000, 200
    # two-pull law at the (phi + eps) cut of a fresh permutation
    _, hi = quantile_cuts(n, 0.15, 0.35)
    p2 = (n - hi) / n
    expect2 = p2 * p2
    sigma2 = math.sqrt(expect2 * (1 - expect2) / n)
    # three-pull law at a 0.3 cut
    cut3 = int(0.3 * n)
    q3 = cut3 / n
    expect3 = 3 * q3 * q3 - 2 * q3 ** 3
    sigma3 = math.sqrt(expect3 * (1 - expect3) / n)

    obs2, obs3, outliers = [], [], 0
    for seed in range(seeds):
        engine = RoundEngine(SimConfig(n=n, seed=seed))
        ids = engine.values_rng().permutation(n)
        new = phase1_iteration(ids, 1.0, "shrink-high", engine)
        frac2 = np.count_nonzero(new >= hi) / n
        obs2.append(frac2)
        outliers += int(abs(frac2 - expect2) > 3 * sigma2)

        engine3 = RoundEngine(SimConfig(n=n, seed=seed + 10_000))
        ids3 = engine3.values_rng().permutation(n)
        new3 = phase2_iteration(ids3, engine3)
        frac3 = np.count_nonzero(new3 < cut3) / n
        obs3.append(frac3)
        outliers += int(abs(frac3 - expect3) > 3 * sigma3)

    dev2 = abs(np.mean(obs2) - expect2)
    dev3 = abs(np.mean(obs3) - expect3)
    lim2 = 3 * sigma2 / math.sqrt(seeds)
    lim3 = 3 * sigma3 / math.sqrt(seeds)
    ok = dev2 <= lim2 and dev3 <= lim3 and outliers <= 6
    _report(
        "3 one-step-laws", ok,
        f"two-pull dev={dev2:.2e} (lim {lim2:.2e}); "
        f"three-pull dev={dev3:.2e} (lim {lim3:.2e}); outliers={outliers}/400",
    )
    assert dev2 <= lim2
    assert dev3 <= lim3
    assert outliers <= 6


def test_criterion_4_phase1_endpoint():
    """eps=0.1, n=1e5, phi=0.25, 100 seeds: |H_t|/n within T +- eps/2 and
    |M_t|/n >= 7 eps / 4 in at least 95 trials."""
    n, eps, phi = 100_000, 0.1, 0.25
    sched = two_tournament_schedule(phi, eps)
    lo, hi = quantile_cuts(n, phi - eps, phi + eps)
    t_level = 0.5 - eps
    hits = 0
    for seed in range(100):
        engine = RoundEngine(SimConfig(n=n, seed=seed))
        vals = engine.values_rng().permutation(n)
        for delta in sched.delta:
            vals = phase1_iteration(vals, delta, sched.direction, engine)
        _, m_count, h_count = lmh_counts(vals, lo, hi)
        in_band = t_level - eps / 2 <= h_count / n <= t_level + eps / 2
        m_ok = m_count / n >= 7 * eps / 4
        hits += int(in_band and m_ok)
    ok = hits >= 95
    _report("4 phase1-endpoint", ok, f"{hits}/100 within band")
    assert hits >= 95


def test_criterion_5_schedule_oracles():
    """1000 fuzzed (phi, eps, n): iteration counts dominated by the
    closed-form bounds; the worked schedules match exactly."""
    rng = np.random.default_rng(12345)
    violations = 0
    for _ in range(1000):
        eps = float(rng.uniform(0.004, 0.125))
        phi = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(16, 10**7))
        if two_tournament_schedule(phi, eps).t > shift_bound(eps):
            violations += 1
        # integer-ceiling form of the phase-2 bound: the real-valued form
        # undercounts by the dropped iteration ceilings on whole regions
        if three_tournament_schedule(eps, n).t > tournament_bound_steps(eps, n):
            violations += 1
    s = two_tournament_schedule(0.25, 0.125)
    worked = (
        s.h == (0.625, 0.390625, 0.152587890625)
        and s.t == 2
        and s.delta[0] == 1.0
        and abs(s.delta[1] - 0.015625 / 0.238037109375) < 1e-15
        and three_tournament_schedule(0.125, 10**6).t == 5
    )
    ok = violations == 0 and worked
    _report("5 schedule-oracles", ok,
            f"{violations} bound violations; worked schedules match: {worked}")
    assert violations == 0
    assert worked


def test_criterion_6_compaction_determinism():
    """All n' in {2^8..2^14}, k in {2^5..2^7}, 100 random datasets,
    exhaustive z sweep: the weighted rank error never exceeds
    (n'/2k) log2(n'/k). Deterministic, zero tolerance."""
    rng = np.random.default_rng(999)
    runs, worst_slack = 0, None
    for log_np in range(8, 15):
        n_prime = 2 ** log_np
        for k in (32, 64, 128):
            bound = compaction_error_bound(n_prime, k)
            for _ in range(100):
                data = rng.permutation(n_prime).astype(np.int64)
                err = compaction_error_check(n_prime, k, data)
                slack = bound - err
                worst_slack = slack if worst_slack is None else min(worst_slack, slack)
                runs += 1
    ok = worst_slack is not None and worst_slack >= 0
    _report("6 compaction-determinism", ok,
            f"{runs} runs, min (bound - error) = {worst_slack}")
    assert ok


def test_criterion_7_robustness():
    """mu=0.5: (a) approximate runs at n=1e5 leave at most n/2^10 nodes
    without a correct answer in >= 95/100 seeds; (b) robust exact at
    n=1024 matches the oracle in >= 49/50 seeds; (c) the token-splitting
    potential decays by at most 0.75 per phase on average (3 sigma)."""
    n, eps, t_extra = 100_000, 0.05, 10
    tasks = [dict(n=n, phi=0.5, eps=eps, seed=seed, mu=0.5, t_extra=t_extra)
             for seed in range(100)]
    rows = run_batch("robust", tasks)
    hits = sum(r["success"] for r in rows)
    ok_a = hits >= 95
    _report("7a robust-approx", ok_a,
            f"{hits}/100 trials with <= n/2^{t_extra} uncovered nodes")

    tasks = [dict(n=1024, phi=0.5, seed=seed, mu=0.5) for seed in range(50)]
    rows = run_batch("exact", tasks)
    exact_hits = sum(r["success"] for r in rows)
    ok_b = exact_hits >= 49
    _report("7b robust-exact", ok_b, f"{exact_hits}/50 oracle matches")

    ratios = []
    for seed in range(30):
        cfg = SimConfig(
            n=4096, seed=seed,
            failure=FailureModel(mode="uniform", mu=0.5, seed=seed),
        )
        engine = RoundEngine(cfg)
        holders = engine.values_rng().choice(4096, size=512, replace=False)
        dist = distribute_tokens(holders, 4, engine, track_phi=True)
        tr = dist.phi_trace
        ratios += [b / a for a, b in zip(tr, tr[1:]) if a > 0 and b > 0]
    ratios = np.array(ratios)
    limit = 0.75 + 3 * ratios.std() / math.sqrt(len(ratios))
    ok_c = ratios.mean() <= limit
    _report("7c token-potential", ok_c,
            f"mean ratio {ratios.mean():.3f} <= {limit:.3f}")
    assert ok_a and ok_b and ok_c


def test_criterion_8_aggregation_exactness():
    """push_sum_count recovers the exact popcount in 100/100 seeds at
    n=4096; sum mass is conserved within 1e-9 relative every round;
    spread_min_max converges inside its budget in 100/100 seeds."""
    count_hits, mass_ok = 0, True
    for seed in range(100):
        engine = RoundEngine(SimConfig(n=4096, seed=seed))
        bits = (engine.values_rng().random(4096) < 0.375).astype(int)
        res = push_sum_count(bits, engine, track_mass=(seed < 10))
        exact = int(bits.sum())
        count_hits += int(
            (not res.any_flagged) and res.unanimous and res.estimates[0] == exact
        )
        for mass in res.mass_trace:
            mass_ok &= abs(mass - exact) <= 1e-9 * max(exact, 1)
    spread_hits = 0
    for seed in range(100):
        engine = RoundEngine(SimConfig(n=1024, seed=seed))
        values = engine.values_rng().permutation(1024)
        res = spread_min_max(values, engine)
        spread_hits += int(res.converged and res.minimum == 0 and res.maximum == 1023)
    ok = count_hits == 100 and mass_ok and spread_hits == 100
    _report("8 aggregation-exactness", ok,
            f"count {count_hits}/100, mass_ok={mass_ok}, spread {spread_hits}/100")
    assert count_hits == 100
    assert mass_ok
    assert spread_hits == 100


def test_criterion_9_spread_experiment():
    """n=1e6, eps=0.01, 100 seeds: rounds to reach all-good is at least
    ceil(log4(8/eps)) = 5 in every seed."""
    threshold = math.ceil(math.log(8 / 0.01, 4))
    assert threshold == 5  # evaluated from the spreading recursion
    rounds = [spread_experiment(10**6, 0.01, seed) for seed in range(100)]
    minimum = min(rounds)
    ok = minimum >= threshold
    _report("9 spread-experiment", ok,
            f"min rounds {minimum} >= {threshold} (max {max(rounds)})")
    assert minimum >= threshold
