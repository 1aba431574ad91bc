"""The benchmark tracer (benchmarks/tracer.py) against the program's names.

The tracer looks every layer up by name, so renaming or deleting a traced
function breaks ``benchmarks/run.py --trace 1``. This installs it, runs
one small exact trial, one compaction check and a plain and a robust
approximate trial, and checks that the push-sum, sketch and tournament
layers were seen and that uninstalling restores every patched attribute.
"""
from pathlib import Path

import numpy as np
import pytest

from gossipq import exact, sketch, tournament
from gossipq.engine import FailureModel, SimConfig
from gossipq.schedules import compaction_error_bound

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def tracer_class(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracer import Tracer
    return Tracer


def test_exact_trial_traces_push_sum_and_uninstalls(tracer_class):
    tracer = tracer_class()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
        tracer.trial = 0
        result = exact.exact_quantile(0.5, SimConfig(n=256, seed=1))
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    assert result.rounds > 0
    for layer in ("aggregates.push_sum", "aggregates.exact_count"):
        stats = tracer.stats[layer]
        assert stats.calls > 0 and stats.rounds > 0
    per_layer = tracer.per_layer(1)
    assert per_layer["aggregates.exact_count.attempts_per_call"] >= 1


def test_compaction_check_traces_sketch_layers_and_uninstalls(tracer_class):
    originals = (sketch.compaction_error_check, sketch._tree_levels)
    tracer = tracer_class()
    tracer.install()
    try:
        assert sketch.compaction_error_check is not originals[0]
        assert sketch._tree_levels is not originals[1]
        tracer.trial = 0
        data = np.random.default_rng(1).permutation(1024)
        err = sketch.compaction_error_check(1024, 16, data)
    finally:
        tracer.uninstall()
    assert (sketch.compaction_error_check, sketch._tree_levels) == originals
    assert err <= compaction_error_bound(1024, 16)
    for layer in ("sketch.check", "sketch.merge"):
        assert tracer.stats[layer].calls == 1
    assert tracer.per_layer(1)["sketch.merge.bytes"] > 0


def test_tournament_trials_trace_every_tournament_layer(tracer_class):
    tracer = tracer_class()
    tracer.install()
    try:
        patched = list(tracer._patches)
        tracer.trial = 0
        plain = tournament.approx_quantile(0.3, 0.1, SimConfig(n=256, seed=1))
        tracer.trial = 1
        failure = FailureModel(mode="uniform", mu=0.5, seed=2)
        robust = tournament.robust_approx_quantile(
            0.3, 0.1, 4, SimConfig(n=256, seed=2, failure=failure)
        )
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    assert plain.rounds > 0 and robust.rounds > 0
    for layer in ("tournament.phase1", "tournament.phase2", "tournament.sample",
                  "tournament.robust_pull_batch", "tournament.adoption"):
        assert tracer.stats[layer].calls > 0, layer
