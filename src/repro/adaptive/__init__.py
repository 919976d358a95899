"""repro.adaptive — closed-loop placement control from observed traffic.

The one-shot pipeline (Algorithm 1 → serve) assumes the demand a
placement was optimized for never changes.  This package closes the
loop: the serve engine exports per-``(client, chunk)`` demand, an EWMA
estimator tracks the live request distribution, and an epoch-based
controller re-optimizes the placement when the two diverge — bounded
never-worsen local moves for moderate drift, scoped Algorithm-1
re-solves for heavy drift.  Under stationary demand the controller is
provably quiescent: zero moves, and the final placement is bit-identical
to the one-shot output.

Layer 5 (above ``repro.serve`` and ``repro.online``); see
``docs/ADAPTIVE.md`` for the control-loop design and determinism
contract.
"""

from repro.adaptive.controller import (
    ALGORITHM_NAME,
    AdaptiveConfig,
    AdaptiveController,
    run_adaptive,
)
from repro.adaptive.moves import (
    DEFAULT_MIN_GAIN,
    MOVE_CACHE,
    MOVE_EVICT,
    Move,
    MoveEvaluator,
    fresh_weighted_access_cost,
    price_pair,
    rebuild_chunk_placement,
    replica_transfer_cost,
    weighted_access_cost,
)
from repro.adaptive.policy import (
    ACTION_MOVES,
    ACTION_NONE,
    ACTION_RESOLVE,
    ADAPTIVE_POLICIES,
    HYBRID,
    MOVES_ONLY,
    RESOLVE_ONLY,
    STATIC,
    AdaptivePolicy,
)
from repro.adaptive.report import (
    ADAPTIVE_SCHEMA,
    AdaptiveReport,
    EpochRecord,
    MoveRecord,
)
from repro.adaptive.signals import (
    DEFAULT_ALPHA,
    DemandEstimator,
    DemandSnapshot,
    chunk_drift,
)

__all__ = [
    "ACTION_MOVES",
    "ACTION_NONE",
    "ACTION_RESOLVE",
    "ADAPTIVE_POLICIES",
    "ADAPTIVE_SCHEMA",
    "ALGORITHM_NAME",
    "AdaptiveConfig",
    "AdaptiveController",
    "AdaptivePolicy",
    "AdaptiveReport",
    "DEFAULT_ALPHA",
    "DEFAULT_MIN_GAIN",
    "DemandEstimator",
    "DemandSnapshot",
    "EpochRecord",
    "HYBRID",
    "MOVES_ONLY",
    "MOVE_CACHE",
    "MOVE_EVICT",
    "Move",
    "MoveEvaluator",
    "MoveRecord",
    "RESOLVE_ONLY",
    "STATIC",
    "chunk_drift",
    "fresh_weighted_access_cost",
    "price_pair",
    "rebuild_chunk_placement",
    "replica_transfer_cost",
    "run_adaptive",
    "weighted_access_cost",
]
