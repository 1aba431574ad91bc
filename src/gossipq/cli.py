"""Command-line experiment driver.

Subcommands run seeded trial batches, write CSV rows plus a JSON summary,
and exit 0 only when the invoked command's acceptance assertion holds
(exit 1 on assertion failure, exit 2 on bad configuration). Each option
takes its value from the flag, else from an optional JSON config file,
else from its default. The trial subcommands are built from
``harness.EXPERIMENTS``; ``schedule`` prints schedules and runs no trials.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import harness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipq",
        description="Gossip quantile protocols: seeded experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every default is None so that a config-file value is never hidden
    # by a flag that was not given; defaults are applied after the merge
    for command, exp in harness.EXPERIMENTS.items():
        p = sub.add_parser(command, help=exp.help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--seeds", type=int, nargs="*",
                       help="explicit seed list (overrides --seed/--trials)")
        p.add_argument("--csv", help="CSV output path")
        p.add_argument("--json", dest="json_path",
                       help="JSON summary output path")
        p.add_argument("--threads", type=int)
        for name in (*exp.required, *exp.optional):
            p.add_argument("--" + name.replace("_", "-"),
                           type=harness.OPTION_TYPES[name])

    p = sub.add_parser("schedule", help="print tournament schedules")
    p.add_argument("--config")
    p.add_argument("--phi", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--n", type=int)
    return parser


# types of the config keys that are not experiment options; a file key
# that is neither, nor ``seeds``, exits 2, while an option of another
# command is accepted and unused
_RUN_TYPES = {"trials": int, "seed": int, "threads": int, "csv": str, "json_path": str}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _typed(key: str, value, kind):
    """A config-file value as its flag would parse it, else ValueError.

    Numbers and numeric strings are accepted; an int key also takes an
    integral float (2.0). Booleans, containers and NaN are rejected.
    """
    typed = None
    if kind is str:
        typed = value if isinstance(value, str) else None
    elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            typed = kind(value)
        except (ValueError, OverflowError):
            pass
        if isinstance(value, float) and typed != value:
            typed = None  # 2.5 for an int key, or NaN
    if typed is None:
        raise ValueError(
            f"config key {key!r} needs {_KIND_NAMES[kind]}, got {json.dumps(value)}"
        )
    return typed


def _load_config(path: str) -> dict:
    """The config file's keys, each typed like its flag; null means unset."""
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(
            f"top level must be a JSON object, got {type(loaded).__name__}"
        )
    types = {**harness.OPTION_TYPES, **_RUN_TYPES}
    unknown = [key for key in loaded if key not in types and key != "seeds"]
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    cfg = {}
    for key, value in loaded.items():
        if value is None:
            continue
        if key == "seeds":
            if not isinstance(value, list):
                raise ValueError(f"config key 'seeds' needs a list, got {json.dumps(value)}")
            value = [_typed(key, seed, int) for seed in value]
        else:
            value = _typed(key, value, types[key])
        cfg[key] = value
    return cfg


def _merge_config(args) -> dict:
    """File values fill in unset flags; flags win."""
    merged = _load_config(args.config) if args.config else {}
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            merged[key] = value
    return merged


def _seed_list(cfg) -> list[int]:
    seeds = cfg.get("seeds")
    if seeds is None:
        base = cfg.get("seed", 1)
        seeds = list(range(base, base + cfg.get("trials", 1)))
    if not seeds:
        raise ValueError("no trials to run: the seed list is empty or --trials is below 1")
    return seeds


def _require(cfg, names):
    missing = [name for name in names if cfg.get(name) is None]
    if missing:
        raise ValueError(
            f"missing required option(s): {', '.join('--' + m for m in missing)}"
        )


def run_cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    command = args.command
    try:
        if command == "schedule":
            _require(cfg, ("phi", "eps"))
            print(harness.schedule_text(cfg["phi"], cfg["eps"], cfg.get("n")))
            return 0

        exp = harness.EXPERIMENTS[command]
        for name, default in exp.optional.items():
            if cfg.get(name) is None and default is not None:
                cfg[name] = default
        _require(cfg, exp.required)
        seeds = _seed_list(cfg)
        rows = harness.run_batch(command, exp.tasks(cfg, seeds), cfg.get("threads"))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    echo = {k: v for k, v in cfg.items() if k not in ("csv", "json_path")}
    echo["seeds"] = seeds
    try:
        summary = harness.emit_report(
            rows, cfg.get("csv"), cfg.get("json_path"), echo
        )
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    stats = summary["experiments"][command]
    _print_summary(command, stats)
    return 0 if exp.passes(stats["success_rate"], stats["trials"]) else 1


def _print_summary(command, stats) -> None:
    line = (
        f"{command}: trials={stats['trials']} "
        f"success_rate={stats['success_rate']:.4f} "
        f"rounds_mean={stats['rounds_mean']:.1f}"
    )
    if stats.get("fitted_round_constant"):
        line += f" fitted_round_constant={stats['fitted_round_constant']:.3f}"
    print(line)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
