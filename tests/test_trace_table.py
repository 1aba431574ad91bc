"""The benchmark tracer (benchmarks/tracer.py) against the program's names.

The tracer looks every layer up by name, so renaming or deleting a traced
function breaks ``benchmarks/run.py --trace 1``. This installs it, runs
one small exact trial, and checks that the push-sum layers were seen and
that uninstalling restores every patched attribute.
"""
from pathlib import Path

import pytest

from gossipq import exact
from gossipq.engine import SimConfig

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
