"""Gossip protocols for exact and approximate quantile computation.

A deterministic round-based uniform-gossip simulator plus the protocol
library it drives: quantile-shifting and median tournaments, push-sum
counting, min/max dissemination, the exact-quantile narrowing loop with
token duplication, their failure-robust variants, and the compacting
sample buffer.
"""

from .aggregates import (
    CountResult,
    SpreadResult,
    exact_count,
    push_sum_count,
    push_sum_multi,
    spread_min_max,
)
from .engine import (
    BudgetExceededError,
    FailureModel,
    RoundEngine,
    SimConfig,
    TrialReport,
    canonical_ids,
    derive_rng,
    draw_failures,
)
from .exact import (
    ExactResult,
    InvariantViolation,
    TrialFailure,
    compute_m,
    distribute_tokens,
    exact_quantile,
    rank_update,
)
from .harness import self_quantile, spread_experiment
from .schedules import (
    Phase1Schedule,
    Phase2Schedule,
    choose_buffer_size,
    compaction_error_bound,
    pull_batch_sizes,
    shift_bound,
    three_tournament_schedule,
    two_tournament_schedule,
)
from .sketch import compaction_error_check
from .tournament import (
    approx_quantile,
    final_median_sample,
    phase1_iteration,
    phase1_step,
    phase2_iteration,
    phase2_step,
    robust_approx_quantile,
    robust_pull_batch,
)

__version__ = "0.1.0"
