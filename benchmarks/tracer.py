"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the gossipq modules with wrappers
that time each call, and restores the originals on ``uninstall``. A
function is patched under every name a caller looks it up by: ``exact``
binds ``spread_min_max``, ``exact_count_multi``, ``_tournament_core`` and
``adoption_rounds`` with ``from ... import``, so those are patched in
``gossipq.exact`` as well as in the defining module, and one wrapper
serves both names. Engine methods are patched on their classes.

A span's self time is its duration minus the time its child spans cover.
Where a call receives a ``RoundEngine`` (or is one of its rounds), the
engine's round and message counters are read before and after it, so
those counts are exact.

Spans stay in memory. Every span above the per-round engine calls is kept
with its parent and trial; the per-round calls (``derive_rng``,
``next_round``, ``draw_failures``, ``peers``) are only summed per layer,
since a trial makes tens of thousands of them.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from gossipq import aggregates, engine, exact, harness, schedules, sketch, tournament

_HOT = {"engine.derive_rng", "engine.next_round", "engine.draw_failures", "engine.peers"}


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "rounds", "messages")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.rounds = 0
        self.messages = 0


def _find_engine(args, kwargs):
    for a in args:
        if isinstance(a, engine.RoundEngine):
            return a
    for a in kwargs.values():
        if isinstance(a, engine.RoundEngine):
            return a
    return None


def _self_engine(args, kwargs):
    return args[0]


def _round_engine(args, kwargs):
    return args[0]._engine


def _no_engine(args, kwargs):
    return None


def _merge_bytes(n_prime: int, k: int | None) -> int:
    """Bytes written by concatenating buffers over one merge tree.

    Computed from n' and k with the level widths ``sketch._tree_levels``
    produces, not measured: 8-byte keys, every level concatenates all of
    its rows.
    """
    rows, width, total = n_prime, 1, 0
    while rows > 1:
        rows //= 2
        width *= 2
        total += rows * width * 8
        if k is not None and width > k:
            width //= 2
    return total


class Tracer:
    """Wraps the gossipq layers; accumulates per-layer statistics and spans."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list = []
        self.trial = -1
        self._stack: list = []          # frames: [child_s, name, span_index]
        self._patches: list = []        # (owner, attribute, original)
        self._targets = self._layer_table()

    # -- layer table ------------------------------------------------------

    def _layer_table(self):
        """(layer name, original, owners, engine getter, after-hook)."""
        T, A, E = tournament, aggregates, exact

        def pull_batch_after(args, kwargs, result, eng, rounds):
            _, counts, _ = result
            need = args[2] if len(args) > 2 else kwargs["need"]
            self.counters["pull_batch.useful"] += int(np.minimum(counts, need).sum())
            self.counters["pull_batch.slots"] += eng.n * rounds

        def push_sum_after(args, kwargs, result, eng, rounds):
            if len(self._stack) and self._stack[-1][1] == "aggregates.exact_count":
                self.counters["exact_count.attempts"] += 1

        def narrow_after(args, kwargs, result, eng, rounds):
            self.counters["bracket.attempts"] += result[4]

        def tokens_after(args, kwargs, result, eng, rounds):
            self.counters["tokens.split_phases"] += result.split_phases
            self.counters["tokens.relocate_phases"] += result.relocate_phases

        def merge_after(args, kwargs, result, eng, rounds):
            k = args[1] if len(args) > 1 else kwargs.get("k")
            self.counters["merge.bytes"] += _merge_bytes(len(args[0]), k)

        def exact_after(args, kwargs, result, eng, rounds):
            attempts = result.details.get("attempts_trace", [])
            bracket_retries = sum(a - 1 for a in attempts)
            self.counters["final.retries"] += result.details.get("retries", 0) - bracket_retries

        return [
            ("engine.derive_rng", engine.derive_rng, [engine], _no_engine, None),
            ("engine.draw_failures", engine.draw_failures, [engine], _no_engine, None),
            ("engine.next_round", engine.RoundEngine.next_round,
             [engine.RoundEngine], _self_engine, None),
            ("engine.peers", engine.Round.peers, [engine.Round], _round_engine, None),
            ("engine.canonical_ids", engine.canonical_ids, [engine, T, E], _no_engine, None),
            ("schedules", schedules.two_tournament_schedule, [schedules, T], _no_engine, None),
            ("schedules", schedules.three_tournament_schedule, [schedules, T], _no_engine, None),
            ("schedules", schedules.compaction_error_bound, [schedules, sketch], _no_engine, None),
            ("tournament.approx", T.approx_quantile, [T], _no_engine, None),
            ("tournament.robust", T.robust_approx_quantile, [T], _no_engine, None),
            ("tournament.core", T._tournament_core, [T, E], _find_engine, None),
            ("tournament.phase1", T.phase1_iteration, [T], _find_engine, None),
            ("tournament.phase1", T.robust_phase1_iteration, [T], _find_engine, None),
            ("tournament.phase2", T.phase2_iteration, [T], _find_engine, None),
            ("tournament.phase2", T.robust_phase2_iteration, [T], _find_engine, None),
            ("tournament.sample", T.final_median_sample, [T], _find_engine, None),
            ("tournament.sample", T.robust_final_median_sample, [T], _find_engine, None),
            ("tournament.robust_pull_batch", T.robust_pull_batch, [T], _find_engine,
             pull_batch_after),
            ("tournament.adoption", T.adoption_rounds, [T, E], _find_engine, None),
            ("aggregates.spread", A.spread_min_max, [A, E], _find_engine, None),
            ("aggregates.push_sum", A.push_sum_count, [A], _find_engine, push_sum_after),
            ("aggregates.push_sum", A.push_sum_multi, [A], _find_engine, push_sum_after),
            ("aggregates.exact_count", A.exact_count, [A], _find_engine, None),
            ("aggregates.exact_count", A.exact_count_multi, [A, E], _find_engine, None),
            ("exact.quantile", E.exact_quantile, [E], _no_engine, exact_after),
            ("exact.narrow_window", E.narrow_window, [E], _find_engine, narrow_after),
            # robust_distribute_tokens is an alias that calls this one
            ("exact.tokens", E.distribute_tokens, [E], _find_engine, tokens_after),
            ("exact.rebuild", E._rebuild_state, [E], _no_engine, None),
            ("sketch.check", sketch.compaction_error_check, [sketch], _no_engine, None),
            ("sketch.merge", sketch._tree_levels, [sketch], _no_engine, merge_after),
            ("harness.spread", harness.spread_experiment, [harness], _no_engine, None),
        ]

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, original, owners, engine_of, after in self._targets:
            wrapper = self._wrap(name, original, engine_of, after)
            attr = original.__name__
            for owner in owners:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the function traced")
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, engine_of, after):
        stack = self._stack
        stats = self.stats[name]
        spans = self.spans
        keep = name not in _HOT
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            eng = engine_of(args, kwargs)
            r0 = m0 = 0
            if eng is not None:
                r0, m0 = eng.rounds, eng.messages
            index = -1
            if keep:
                index = len(spans)
                spans.append(None)
            frame = [0.0, name, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][0] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                rounds = messages = 0
                if eng is not None:
                    rounds = eng.rounds - r0
                    messages = eng.messages - m0
                    stats.rounds += rounds
                    stats.messages += messages
                if keep:
                    parent = stack[-1][2] if stack else -1
                    spans[index] = (index, parent, self.trial, name, t0, t1,
                                    duration - frame[0], rounds, messages)
            if after is not None:
                after(args, kwargs, result, eng, rounds)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ----------------------------------------------------------

    def per_layer(self, trials: int) -> dict[str, float]:
        """The per-layer metrics; counts and times are means per traced trial."""
        s, c = self.stats, self.counters

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer, fields in (
            ("engine.derive_rng", ("calls", "self_s")),
            ("engine.next_round", ("calls", "self_s")),
            ("engine.draw_failures", ("self_s",)),
            ("engine.peers", ("calls", "self_s")),
            ("engine.canonical_ids", ("self_s",)),
            ("schedules", ("calls", "self_s")),
            ("tournament.phase1", ("self_s",)),
            ("tournament.phase2", ("self_s",)),
            ("tournament.sample", ("self_s",)),
            ("tournament.robust_pull_batch", ("calls", "rounds", "self_s")),
            ("tournament.adoption", ("rounds", "self_s")),
            ("aggregates.spread", ("calls", "rounds", "self_s")),
            ("aggregates.push_sum", ("calls", "rounds", "self_s")),
            ("exact.narrow_window", ("calls",)),
            ("exact.tokens", ("rounds", "self_s")),
            ("exact.rebuild", ("self_s",)),
            ("sketch.check", ("self_s",)),
            ("sketch.merge", ("self_s",)),
            ("harness.spread", ("self_s",)),
        ):
            for f in fields:
                out[f"{layer}.{f}"] = getattr(s[layer], f) / trials
        out["tournament.robust_pull_batch.useful_ratio"] = ratio(
            c["pull_batch.useful"], c["pull_batch.slots"])
        out["aggregates.exact_count.attempts_per_call"] = ratio(
            c["exact_count.attempts"], s["aggregates.exact_count"].calls)
        out["exact.bracket.attempts_per_window"] = ratio(
            c["bracket.attempts"], s["exact.narrow_window"].calls)
        out["exact.final.retries"] = c["final.retries"] / trials
        out["exact.tokens.split_phases"] = c["tokens.split_phases"] / trials
        out["exact.tokens.relocate_phases"] = c["tokens.relocate_phases"] / trials
        out["sketch.merge.bytes"] = c["merge.bytes"] / trials
        return out

    def top_self(self, count: int = 5) -> list[tuple[str, float]]:
        ranked = sorted(self.stats.items(), key=lambda kv: kv[1].self_s, reverse=True)
        return [(name, st.self_s) for name, st in ranked[:count]]

    def write(self, path) -> None:
        """Write per-layer totals, then one line per kept span (JSON lines)."""
        with open(path, "w") as fh:
            for name, st in sorted(self.stats.items()):
                fh.write(json.dumps({
                    "layer": name, "calls": st.calls, "total_s": st.total_s,
                    "self_s": st.self_s, "rounds": st.rounds, "messages": st.messages,
                }) + "\n")
            for span in self.spans:
                index, parent, trial, name, t0, t1, self_s, rounds, messages = span
                fh.write(json.dumps({
                    "span": index, "parent": parent, "trial": trial, "name": name,
                    "start": t0, "end": t1, "self_s": self_s,
                    "rounds": rounds, "messages": messages,
                }) + "\n")
