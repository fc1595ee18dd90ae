"""What the benchmark reports beyond the names in ``BENCHMARK.json``.

``BENCHMARK.json`` declares the gated metrics: its ``end_to_end`` list
(reported by every workload's untraced run, with units and bounds) and
its ``per_layer`` list (reported by the traced run). This module adds
what the declaration has no room for: the end-to-end metrics that apply
to some workloads only, which runs report where they apply, and for
every per-layer metric the end-to-end metric it should move and the
workload it is measured on. Units and bounds live in ``BENCHMARK.json``
alone; :func:`run.load_config` refuses a declaration whose ``per_layer``
names differ from :data:`LAYER_TARGETS`.
"""

from __future__ import annotations

#: name -> unit. A percentile is reported only when at least ten samples
#: lie beyond it; update_* only where there are writes. Not gated: a gated
#: metric must exist on every workload. The steadiness self-check holds the
#: latencies to the bound ``BENCHMARK.json`` gives ``query_p50_ms`` and
#: ``error_rate`` to 0.
WORKLOAD_END_TO_END = {
    "query_p90_ms": "ms",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "error_rate": "ratio",
}

PAPER = "paper_queries"
SPILL = "outofcore_spill"
STREAM = "update_stream"
ALL = "all"

#: per-layer metric -> (end-to-end metric(s) it should move, workload)
LAYER_TARGETS = {
    "session.result_hit_rate": ("ops_per_s", PAPER),
    "session.prepared_hit_rate": ("query_p50_ms", PAPER),
    "session.fingerprint_ms": ("update_p50_ms", STREAM),
    "planner.plan_ms": ("query_p50_ms (predicted: no change)", PAPER),
    "planner.regret": ("query_p90_ms", PAPER),
    "planner.choice.big": ("- (must repeat exactly)", PAPER),
    "planner.choice.ubb": ("- (must repeat exactly)", PAPER),
    "planner.choice.naive": ("- (must repeat exactly)", PAPER),
    "core.prepare_ms": ("setup_s", PAPER),
    "core.execute_ms": ("query_p50_ms, query_p90_ms", PAPER),
    "core.scored_fraction": ("query_p90_ms", PAPER),
    "core.pruned_h1": ("query_p90_ms", PAPER),
    "core.pruned_h2": ("query_p90_ms", PAPER),
    "core.pruned_h3": ("query_p90_ms", PAPER),
    "core.index_bytes": ("peak_rss_mb", PAPER),
    "kernels.build_tables_ms": ("setup_s", f"{STREAM}, {SPILL} (predicted absent on {PAPER})"),
    "kernels.build_tables_count": ("setup_s", f"{STREAM}, {SPILL} (predicted absent on {PAPER})"),
    "stream.insert_ms": ("update_p50_ms, update_p90_ms", STREAM),
    "stream.delete_ms": ("update_p50_ms, update_p90_ms", STREAM),
    "stream.update_ms": ("update_p50_ms, update_p90_ms", STREAM),
    "stream.read_ms": ("query_p50_ms", STREAM),
    "session.tables_patched": ("update_p90_ms", STREAM),
    "session.tables_rebuilt": ("update_p90_ms", STREAM),
    "partition.phase1_ms": ("query_p50_ms, ops_per_s", SPILL),
    "partition.merge_ms": ("query_p50_ms, ops_per_s", SPILL),
    "partition.refine_ms": ("query_p50_ms, ops_per_s", SPILL),
    "partition.exchange_ms": ("query_p50_ms, ops_per_s", SPILL),
    "partition.phase2_ms": ("query_p50_ms, ops_per_s", SPILL),
    "partition.select_ms": ("query_p50_ms, ops_per_s", SPILL),
    "partition.survival": ("query_p50_ms, ops_per_s", SPILL),
    "partition.refined": ("query_p50_ms, ops_per_s", SPILL),
    "partition.merge_groups": ("query_p50_ms, ops_per_s", SPILL),
    "spill.attach_count": ("query_p50_ms, setup_s", SPILL),
    "spill.attach_ms": ("query_p50_ms, setup_s", SPILL),
    "spill.resident_hit_rate": ("query_p50_ms, setup_s", SPILL),
    "store.read_ms": ("query_p50_ms, setup_s", SPILL),
    "store.write_ms": ("query_p50_ms, setup_s", SPILL),
    "trace.overhead": ("-", ALL),
    "trace.attributed": ("-", ALL),
}

#: How each span-derived per-layer time is read from ``phase_summary``:
#: metric -> (span name, "self" or "wall"). Umbrella spans whose children
#: run in pool workers in parallel (partition.phase1, partition.phase2)
#: report wall, since their self time clips to zero.
SPAN_TIMES = {
    "session.fingerprint_ms": ("engine.fingerprint", "self"),
    "planner.plan_ms": ("planner.plan", "self"),
    "core.prepare_ms": ("engine.prepare", "self"),
    "core.execute_ms": ("engine.execute", "self"),
    "partition.phase1_ms": ("partition.phase1", "wall"),
    "partition.merge_ms": ("partition.merge", "self"),
    "partition.refine_ms": ("partition.refine", "self"),
    "partition.exchange_ms": ("partition.exchange", "self"),
    "partition.phase2_ms": ("partition.phase2", "wall"),
    "partition.select_ms": ("partition.select", "self"),
    "spill.attach_ms": ("spill.attach", "self"),
    "store.read_ms": ("store.read", "self"),
    "store.write_ms": ("store.write", "self"),
}
