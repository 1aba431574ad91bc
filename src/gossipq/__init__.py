"""Gossip protocols for exact and approximate quantile computation.

A deterministic round-based uniform-gossip simulator plus the protocol
library it drives: quantile-shifting and median tournaments, push-sum
counting, min/max dissemination, the exact-quantile narrowing loop with
token duplication, their failure-robust variants, and the compacting
sample buffer.

The package re-exports nothing: callers import each entry point from its
defining module, ``engine`` (``SimConfig``, ``FailureModel``),
``tournament`` (``approx_quantile``, ``robust_approx_quantile``),
``exact`` (``exact_quantile``), ``sketch`` (``compaction_error_check``)
or ``harness`` (``self_quantile``, ``spread_experiment``, ``run_batch``).
"""

__version__ = "0.1.0"
