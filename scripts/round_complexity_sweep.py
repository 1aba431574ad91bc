#!/usr/bin/env python3
"""Sweep n and eps for the approximate-quantile protocol and fit the
round constant against log2 log2 n + log2(1/eps).

The asymptotic constant is not a claim, only a measurement; the fitted
slope lands in the JSON summary next to the per-trial CSV rows.

    python3 scripts/round_complexity_sweep.py --out-dir results/
"""
import argparse
import json
import math
import os

from gossipq.harness import emit_report, fit_round_constant, run_batch


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ns", type=int, nargs="*",
                    default=[10**3, 10**4, 10**5, 10**6])
    ap.add_argument("--eps", type=float, nargs="*",
                    default=[0.1, 0.05, 0.025])
    ap.add_argument("--phi", type=float, default=0.5)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out-dir", type=str, default=".")
    args = ap.parse_args()

    tasks = [
        dict(n=n, phi=args.phi, eps=eps, seed=args.seed + t)
        for n in args.ns
        for eps in args.eps
        for t in range(args.trials)
    ]
    rows = run_batch("approx", tasks)
    fitted = fit_round_constant(rows)
    os.makedirs(args.out_dir, exist_ok=True)
    summary = emit_report(
        rows,
        csv_path=os.path.join(args.out_dir, "round_complexity.csv"),
        json_path=os.path.join(args.out_dir, "round_complexity.json"),
        config_echo=vars(args),
    )
    print(json.dumps(summary["experiments"], indent=2))
    print(f"fitted rounds ~= {fitted:.2f} * (log2 log2 n + log2 1/eps)")
    for n in args.ns:
        for eps in args.eps:
            sub = [r for r in rows if r["n"] == n and r["eps"] == eps]
            scale = math.log2(math.log2(n)) + math.log2(1 / eps)
            mean = sum(r["rounds"] for r in sub) / len(sub)
            print(f"  n={n:>8} eps={eps:<6} rounds_mean={mean:7.1f} "
                  f"ratio={mean / scale:.2f}")


if __name__ == "__main__":
    main()
