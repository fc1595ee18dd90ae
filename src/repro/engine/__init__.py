"""The vectorised query-engine layer: kernels → planner → session.

Three layers, each consumable on its own:

* :mod:`repro.engine.kernels` — blocked ``(b, n, d)`` NumPy dominance
  kernels and the packed-bitset fast path (count- *and* mask-emitting)
  every algorithm's hot path now runs on, plus :class:`PreparedDataset`,
  the reusable per-dataset kernel inputs;
* :mod:`repro.engine.planner` — the cost model behind
  ``top_k_dominating(..., algorithm="auto")``, self-calibrated per
  machine and refined from observed query runtimes;
* :mod:`repro.engine.session` — :class:`QueryEngine`, a reusable session
  that fingerprints datasets and caches preparations (including the
  byte-budgeted, process-wide :class:`PreparedDatasetCache` of bitset
  tables) and results across repeated/parametrised queries, with
  ``query_many(..., workers=N)`` process-pool sharding — plus the
  versioned update path: ``apply_delta``/``insert``/``delete``/``update``
  advance prepared tables and maintained score vectors per
  :class:`~repro.core.delta.DatasetDelta` (the ``"incremental"`` query
  route), and :class:`ContinuousQuery` is the owned streaming handle
  behind :class:`repro.core.streaming.StreamingTKD`;
* :mod:`repro.engine.store` — :class:`PersistentStore`, the on-disk
  fingerprint-keyed cache (results + planner calibration + prepared
  tables + version lineage, small deltas embedded for patch-forward
  warm starts) that makes the session's reuse survive the process
  (``REPRO_CACHE_DIR`` or ``QueryEngine(store=...)``), with an
  age-aware compaction pass (``repro cache compact``);
* :mod:`repro.engine.partition` — :class:`PartitionedDataset` and the
  two-phase distributed top-k protocol behind
  ``QueryEngine.query(partitions=P)``: per-shard prepared
  structures, summary-bound pruning before any cross-partition
  exchange, and delta routing to the owning shard — bit-identical to
  the monolithic answer;
* :mod:`repro.engine.backend` — the pluggable kernel-backend layer
  (``REPRO_BACKEND=numpy|native|auto``): a compiled native route for
  the packed-bitset hot loops with the numpy route as the portable,
  bit-identical fallback, plus :class:`SharedTables`, the
  shared-memory export that lets pool workers attach prepared tables
  zero-copy instead of unpickling them;
* :mod:`repro.engine.telemetry` — the cross-cutting observability
  layer: hierarchical wall/CPU-timed spans (``REPRO_TRACE=1``,
  ``QueryEngine(trace=True)`` or ``--trace``) that propagate across
  the engine's process pools into one coherent trace tree, a unified
  :class:`MetricsRegistry` of counters/gauges/histograms, and
  exporters (JSONL span log, Chrome ``trace_event``, the
  ``repro trace summary`` per-phase latency table).
"""

from .backend import (
    SharedTables,
    available_backends,
    get_backend,
    measure_backend_speedup,
    native_available,
    select_backend,
    use_backend,
)
from .kernels import (
    PreparedDataset,
    SentinelDelta,
    auto_block,
    dominance_matrix_blocked,
    dominated_counts,
    dominated_masks,
    dominator_counts,
    dominator_masks,
    incomparable_counts,
    max_bit_score_counts,
    score_block,
    unpack_mask_bits,
    upper_bound_scores,
)
from .partition import (
    PartitionShard,
    PartitionedDataset,
    ShardSummary,
    execute_partitioned,
)
from .planner import (
    Calibration,
    DeltaPlan,
    PartitionPlan,
    QueryPlan,
    apply_calibration_state,
    calibration,
    calibration_state,
    estimate_costs,
    estimate_delta_costs,
    estimate_partition_costs,
    estimate_survival,
    explain_plan,
    plan_delta,
    plan_partitioned,
    plan_query,
    record_observation,
)
from .session import (
    ContinuousQuery,
    EngineStats,
    PreparedDatasetCache,
    QueryEngine,
    dataset_fingerprint,
    default_engine,
    shared_prepared,
    shutdown_pool,
)
from .store import PersistentStore, StoreStats
from .telemetry import (
    MetricsRegistry,
    Span,
    export_chrome_trace,
    export_jsonl,
    load_spans,
    metrics,
    phase_summary,
    render_summary,
    trace,
)

__all__ = [
    "score_block",
    "dominated_counts",
    "dominated_masks",
    "dominator_counts",
    "dominator_masks",
    "incomparable_counts",
    "max_bit_score_counts",
    "upper_bound_scores",
    "dominance_matrix_blocked",
    "unpack_mask_bits",
    "auto_block",
    "PreparedDataset",
    "SentinelDelta",
    "QueryPlan",
    "DeltaPlan",
    "PartitionPlan",
    "Calibration",
    "calibration",
    "estimate_costs",
    "estimate_delta_costs",
    "estimate_partition_costs",
    "estimate_survival",
    "plan_query",
    "plan_delta",
    "plan_partitioned",
    "explain_plan",
    "PartitionedDataset",
    "PartitionShard",
    "ShardSummary",
    "execute_partitioned",
    "record_observation",
    "QueryEngine",
    "ContinuousQuery",
    "EngineStats",
    "PreparedDatasetCache",
    "PersistentStore",
    "StoreStats",
    "dataset_fingerprint",
    "default_engine",
    "shared_prepared",
    "calibration_state",
    "apply_calibration_state",
    "SharedTables",
    "available_backends",
    "get_backend",
    "measure_backend_speedup",
    "native_available",
    "select_backend",
    "use_backend",
    "shutdown_pool",
    "MetricsRegistry",
    "Span",
    "export_chrome_trace",
    "export_jsonl",
    "load_spans",
    "metrics",
    "phase_summary",
    "render_summary",
    "trace",
]
