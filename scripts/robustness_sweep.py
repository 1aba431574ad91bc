#!/usr/bin/env python3
"""Sweep the failure bound mu for the robust protocols.

Reports, per mu: the fraction of trials in which all but n/2^t nodes hold
a correct approximate answer, the exact-quantile success rate, the mean
round cost, and the tournament's rounds (phase I, phase II and the
K-sample, from ``tournament.tournament_plan``) against 1/(1-mu) times
its failure-free rounds.

    python3 scripts/robustness_sweep.py --n 20000 --trials 20
"""
import argparse
import os

from gossipq.harness import emit_report, run_batch
from gossipq.tournament import K_SAMPLE, target_rank, tournament_plan


def tournament_rounds(n, phi, eps, mu):
    """Rounds of one approximate tournament at failure bound mu."""
    return tournament_plan(target_rank(phi, n), eps, n, K_SAMPLE, mu).rounds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--exact-n", type=int, default=1024)
    ap.add_argument("--mus", type=float, nargs="*", default=[0.0, 0.25, 0.5, 0.75])
    ap.add_argument("--phi", type=float, default=0.5)
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--t-extra", type=int, default=10)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out-dir", type=str, default=".")
    args = ap.parse_args()

    plain = tournament_rounds(args.n, args.phi, args.eps, 0.0)
    all_rows = []
    for mu in args.mus:
        tasks = [
            dict(n=args.n, phi=args.phi, eps=args.eps, seed=args.seed + t,
                 mu=mu, t_extra=args.t_extra)
            for t in range(args.trials)
        ]
        rows = run_batch("robust", tasks)
        exact_tasks = [
            dict(n=args.exact_n, phi=args.phi, seed=args.seed + t, mu=mu)
            for t in range(args.trials)
        ]
        exact_rows = run_batch("exact", exact_tasks)
        approx_rate = sum(r["success"] for r in rows) / len(rows)
        exact_rate = sum(r["success"] for r in exact_rows) / len(exact_rows)
        rounds = sum(r["rounds"] for r in rows) / len(rows)
        tournament = tournament_rounds(args.n, args.phi, args.eps, mu)
        print(f"mu={mu:<5} approx_ok={approx_rate:5.2f} "
              f"exact_ok={exact_rate:5.2f} rounds_mean={rounds:8.1f} "
              f"tournament_rounds={tournament} "
              f"vs_plain_over_1-mu={tournament * (1 - mu) / plain:5.2f}")
        all_rows += rows + exact_rows

    os.makedirs(args.out_dir, exist_ok=True)
    emit_report(
        all_rows,
        csv_path=os.path.join(args.out_dir, "robustness_sweep.csv"),
        json_path=os.path.join(args.out_dir, "robustness_sweep.json"),
        config_echo=vars(args),
    )


if __name__ == "__main__":
    main()
