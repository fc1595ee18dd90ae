"""Engine telemetry: spans, metrics, exporters, cross-process traces.

Covers the observability layer end to end:

* the disabled fast path (shared no-op span, nothing collected);
* span nesting/parenting, attributes, error capture;
* the :class:`MetricsRegistry` counter/gauge/histogram contract and its
  snapshot/merge round trip (how worker metrics fold into the parent);
* both exporters round-tripping through :func:`load_spans`, and the
  per-phase summary behind ``repro trace summary``;
* the headline guarantee: a partitioned, spilled, multi-process query
  produces ONE connected trace tree spanning every worker process, with
  no orphan spans — and tracing never changes the answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import telemetry
from repro.engine.partition import PartitionedDataset
from repro.engine.session import QueryEngine
from repro.engine.telemetry import (
    HISTOGRAM_BUCKETS,
    MetricsRegistry,
    export_chrome_trace,
    export_jsonl,
    load_spans,
    phase_summary,
    render_summary,
    trace,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Isolate each test from ambient tracing (the REPRO_TRACE=1 CI leg
    runs this whole suite with collection already on)."""
    was = telemetry.enabled()
    telemetry.set_enabled(False)
    telemetry.reset()
    yield
    telemetry.set_enabled(was)
    telemetry.reset()


# =========================================================================
# spans
# =========================================================================


class TestSpans:
    def test_disabled_trace_is_the_shared_noop(self):
        span = trace("anything")
        assert span is trace("anything else")  # no allocation per call
        with span as s:
            assert s.set("key", "value") is s  # chainable, ignored
        assert telemetry.collected_spans() == []

    def test_span_records_timing_and_attrs(self):
        telemetry.set_enabled(True)
        with trace("unit.work") as span:
            span.set("rows", 128).set("mode", "test")
        (record,) = telemetry.collected_spans()
        assert record["name"] == "unit.work"
        assert record["parent"] is None
        assert record["attrs"] == {"rows": 128, "mode": "test"}
        assert record["wall"] >= 0.0 and record["cpu"] >= 0.0
        assert record["pid"] > 0 and record["tid"] > 0

    def test_nested_spans_parent_to_the_innermost(self):
        telemetry.set_enabled(True)
        with trace("outer"):
            with trace("inner"):
                pass
            with trace("sibling"):
                pass
        by_name = {r["name"]: r for r in telemetry.collected_spans()}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["sibling"]["parent"] == by_name["outer"]["span"]
        assert len({r["trace"] for r in by_name.values()}) == 1

    def test_exception_is_recorded_and_propagates(self):
        telemetry.set_enabled(True)
        with pytest.raises(ValueError):
            with trace("failing"):
                raise ValueError("boom")
        (record,) = telemetry.collected_spans()
        assert record["error"] == "ValueError"

    def test_drain_empties_the_collector(self):
        telemetry.set_enabled(True)
        with trace("once"):
            pass
        assert len(telemetry.drain_spans()) == 1
        assert telemetry.collected_spans() == []

    def test_remote_context_adopts_parent_and_ships_spans_back(self):
        telemetry.set_enabled(True)
        with trace("coordinator") as root:
            ctx = telemetry.propagation_context()
            assert ctx == (root.trace_id, root.span_id)
        coordinator_spans = telemetry.drain_spans()

        # Simulate the worker side of the pool protocol in-process.
        telemetry.begin_remote(ctx)
        with trace("worker.task"):
            pass
        shipped = telemetry.end_remote()
        assert not telemetry.enabled()  # end_remote turns the worker off

        telemetry.set_enabled(True)
        telemetry.absorb_spans(coordinator_spans + shipped)
        by_name = {r["name"]: r for r in telemetry.collected_spans()}
        assert by_name["worker.task"]["parent"] == by_name["coordinator"]["span"]
        assert by_name["worker.task"]["trace"] == by_name["coordinator"]["trace"]

    def test_propagation_context_none_when_disabled(self):
        assert telemetry.propagation_context() is None
        # A None context must hard-disable collection in the worker.
        telemetry.set_enabled(True)
        telemetry.begin_remote(None)
        assert not telemetry.enabled()


# =========================================================================
# metrics registry
# =========================================================================


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.count("queries")
        reg.count("queries", 2)
        assert reg.counter_value("queries") == 3
        assert reg.counter_value("absent") == 0

    def test_gauges_last_write_and_max(self):
        reg = MetricsRegistry()
        reg.gauge("survival", 0.4)
        reg.gauge("survival", 0.2)
        assert reg.gauge_value("survival") == 0.2
        reg.gauge_max("peak", 5)
        reg.gauge_max("peak", 3)
        assert reg.gauge_value("peak") == 5
        assert reg.gauge_value("absent") is None

    def test_histogram_buckets_observations(self):
        reg = MetricsRegistry()
        reg.observe("latency", 0.5e-6)   # below the first bound
        reg.observe("latency", 2e-6)     # between bounds 0 and 1
        reg.observe("latency", 1e9)      # beyond the last bound
        hist = reg.histogram_value("latency")
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(0.5e-6 + 2e-6 + 1e9)
        assert len(hist["buckets"]) == len(HISTOGRAM_BUCKETS) + 1
        assert hist["buckets"][0] == 1
        assert hist["buckets"][1] == 1
        assert hist["buckets"][-1] == 1

    def test_snapshot_merge_round_trip(self):
        worker = MetricsRegistry()
        worker.count("queries", 2)
        worker.gauge("peak", 7)
        worker.observe("latency", 1e-3)
        parent = MetricsRegistry()
        parent.count("queries", 1)
        parent.gauge("peak", 9)
        parent.observe("latency", 2e-3)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter_value("queries") == 3
        assert parent.gauge_value("peak") == 9  # merge keeps the max
        hist = parent.histogram_value("latency")
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(3e-3)

    def test_publish_stats_bridges_legacy_counters(self):
        from repro.engine.session import EngineStats

        stats = EngineStats()
        stats.queries = 4
        reg = MetricsRegistry()
        reg.publish_stats("engine", stats)
        assert reg.gauge_value("engine.queries") == 4

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.gauge("b", 1)
        reg.observe("c", 1)
        reg.reset()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


# =========================================================================
# exporters + summary
# =========================================================================


def _collect_sample_spans():
    telemetry.set_enabled(True)
    with trace("engine.query") as root:
        root.set("n", 100)
        with trace("engine.prepare"):
            pass
        with trace("engine.execute") as span:
            span.set("algorithm", "big")
    telemetry.set_enabled(False)
    return telemetry.drain_spans()


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        spans = _collect_sample_spans()
        path = tmp_path / "trace.jsonl"
        assert export_jsonl(spans, path) == 3
        loaded = load_spans(path)
        assert loaded == spans

    def test_chrome_trace_round_trip(self, tmp_path):
        spans = _collect_sample_spans()
        path = tmp_path / "trace.json"
        assert export_chrome_trace(spans, path) == 3
        loaded = load_spans(path)
        assert [r["name"] for r in loaded] == [r["name"] for r in spans]
        assert [r["span"] for r in loaded] == [r["span"] for r in spans]
        assert [r["parent"] for r in loaded] == [r["parent"] for r in spans]
        by_name = {r["name"]: r for r in loaded}
        assert by_name["engine.execute"]["attrs"]["algorithm"] == "big"
        for loaded_r, orig in zip(loaded, spans):
            assert loaded_r["wall"] == pytest.approx(orig["wall"], abs=1e-9)

    def test_chrome_trace_is_valid_trace_event_json(self, tmp_path):
        import json

        spans = _collect_sample_spans()
        path = tmp_path / "trace.json"
        export_chrome_trace(spans, path)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        for event in payload["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0

    def test_phase_summary_attribution(self):
        # Synthetic tree with exact timings: root 10s, children 6s + 3s.
        spans = [
            {"name": "engine.query", "span": "r", "parent": None, "wall": 10.0, "cpu": 1.0, "pid": 1, "tid": 1, "start": 0.0, "attrs": {}},
            {"name": "phase.a", "span": "a", "parent": "r", "wall": 6.0, "cpu": 1.0, "pid": 1, "tid": 1, "start": 0.0, "attrs": {}},
            {"name": "phase.b", "span": "b", "parent": "r", "wall": 3.0, "cpu": 1.0, "pid": 1, "tid": 1, "start": 6.0, "attrs": {}},
        ]
        summary = phase_summary(spans)
        assert summary["roots"] == 1
        assert summary["total_wall"] == pytest.approx(10.0)
        assert summary["attribution"] == pytest.approx(0.9)
        names = [row["name"] for row in summary["phases"]]
        assert names == ["phase.a", "phase.b"]  # wall-descending

    def test_render_summary_table(self):
        spans = _collect_sample_spans()
        table = render_summary(spans)
        assert "engine.prepare" in table
        assert "engine.execute" in table
        assert "attributed to named phases" in table


# =========================================================================
# engine integration
# =========================================================================


def test_traced_monolithic_query_builds_a_tree(make_incomplete):
    dataset = make_incomplete(400, 4, seed=11)
    baseline = QueryEngine().query(dataset, 5)

    telemetry.set_enabled(True)
    result = QueryEngine().query(dataset, 5)
    telemetry.set_enabled(False)
    spans = telemetry.drain_spans()

    assert result.ids == baseline.ids and result.scores == baseline.scores
    by_name = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(record)
    root = by_name["engine.query"][0]
    assert root["parent"] is None
    assert root["attrs"]["n"] == dataset.n
    assert "engine.execute" in by_name
    execute = by_name["engine.execute"][0]
    assert execute["parent"] == root["span"]
    # Metrics rode along with the spans.
    assert telemetry.metrics().counter_value("engine.queries") >= 1


def _assert_one_connected_tree(spans):
    """One root, no orphans, one trace id, and every span reaches the root.

    Returns the root record.
    """
    by_id = {r["span"]: r for r in spans}
    roots = [r for r in spans if r["parent"] is None]
    orphans = [r for r in spans if r["parent"] is not None and r["parent"] not in by_id]
    assert len(roots) == 1, f"expected one root, got {[r['name'] for r in roots]}"
    assert not orphans, f"orphan spans: {[r['name'] for r in orphans]}"
    assert len({r["trace"] for r in spans}) == 1  # one coherent trace

    def root_of(record):
        seen = set()
        while record["parent"] is not None:
            assert record["span"] not in seen
            seen.add(record["span"])
            record = by_id[record["parent"]]
        return record["span"]

    assert {root_of(r) for r in spans} == {roots[0]["span"]}
    return roots[0]


def test_spilled_partitioned_trace_is_one_connected_tree(make_incomplete):
    """partitions=4, workers=2, spill forced on: one process, one tree.

    Phase 1 builds and spills every shard in the coordinator, phase 2
    attaches the spill files there, and tracing must not change the
    answer.
    """
    dataset = make_incomplete(1200, 4, seed=23)
    budget = PartitionedDataset(dataset, 4).table_bytes() // 4
    engine_off = QueryEngine(memory_budget=budget)
    baseline = engine_off.query(dataset, 10, partitions=4, workers=2)
    assert baseline.stats.extra.get("spill") is True  # budget forced spill

    telemetry.set_enabled(True)
    engine_on = QueryEngine(memory_budget=budget)
    result = engine_on.query(dataset, 10, partitions=4, workers=2)
    telemetry.set_enabled(False)
    spans = telemetry.drain_spans()

    # Bit-identical with tracing on.
    assert result.ids == baseline.ids
    assert result.scores == baseline.scores

    root = _assert_one_connected_tree(spans)
    assert {r["pid"] for r in spans} == {root["pid"]}
    shard_spans = [r for r in spans if r["name"] == "partition.phase1.shard"]
    assert len(shard_spans) == 4
    assert all(r["attrs"].get("spill") is True for r in shard_spans)
    assert any(r["name"] == "spill.attach" for r in spans)


def test_query_many_worker_spans_join_the_batch_trace(make_incomplete):
    """The whole batch exports one tree rooted at ``engine.query_many``:
    its fingerprint and planning spans open inside the batch span, and
    every span from every pool worker re-parents into it (no orphans, no
    second root)."""
    dataset = make_incomplete(300, 3, seed=7)
    telemetry.set_enabled(True)
    engine = QueryEngine()
    engine.query_many([(dataset, k) for k in (3, 5, 7, 9)], workers=2)
    telemetry.set_enabled(False)
    spans = telemetry.drain_spans()

    batch = [r for r in spans if r["name"] == "engine.query_many"]
    assert len(batch) == 1
    assert _assert_one_connected_tree(spans) is batch[0]
    assert any(r["name"] == "engine.fingerprint" for r in spans)
    assert any(r["name"] == "planner.plan" for r in spans)
    # Spans came back from more than one process.
    pids = {r["pid"] for r in spans}
    assert len(pids) >= 2, f"expected worker pids in the trace, got {pids}"
    shard_queries = [
        r for r in spans
        if r["name"] == "engine.query" and r["parent"] == batch[0]["span"]
    ]
    assert shard_queries and any(r["pid"] != batch[0]["pid"] for r in shard_queries)


def test_engine_trace_kwarg_controls_collection(make_incomplete):
    dataset = make_incomplete(200, 3, seed=3)
    QueryEngine(trace=True)
    assert telemetry.enabled()
    QueryEngine(trace=False)
    assert not telemetry.enabled()
    QueryEngine()  # None leaves the flag alone
    assert not telemetry.enabled()


def test_disabled_engine_query_collects_nothing(make_incomplete):
    dataset = make_incomplete(200, 3, seed=5)
    QueryEngine().query(dataset, 4)
    assert telemetry.collected_spans() == []


def test_continuous_insert_is_one_connected_tree(make_incomplete):
    """A traced ``ContinuousQuery.insert`` is one tree rooted at its own
    span, with the table patch (and its row count) beneath it."""
    dataset = make_incomplete(700, 4, seed=29)
    engine = QueryEngine()
    handle = engine.continuous(dataset, k=5)
    telemetry.drain_spans()
    telemetry.set_enabled(True)
    try:
        handle.insert([[3.0, 4.0, np.nan, 5.0]])
    finally:
        telemetry.set_enabled(False)
    spans = telemetry.drain_spans()
    by_id = {r["span"]: r for r in spans}
    roots = [r for r in spans if r["parent"] is None]
    assert [r["name"] for r in roots] == ["continuous.insert"]
    assert all(r["parent"] is None or r["parent"] in by_id for r in spans)
    assert len({r["trace"] for r in spans}) == 1
    patch = [r for r in spans if r["name"] == "kernel.patch_tables"]
    assert len(patch) == 1
    attrs = patch[0]["attrs"]
    assert (attrs["inserts"], attrs["updates"], attrs["deletes"]) == (1, 0, 0)
    assert attrs["rows_touched"] > 0


def test_continuous_reads_open_one_span_each(make_incomplete):
    """Every ``ContinuousQuery`` read is one ``continuous.read`` root that
    says which k it selected and whether the cached selection served it."""
    dataset = make_incomplete(300, 4, seed=31)
    engine = QueryEngine()
    handle = engine.continuous(dataset, k=3)
    handle.subscribe(7)
    telemetry.drain_spans()
    telemetry.set_enabled(True)
    try:
        handle.results()
        handle.results()
        handle.top_k(2)
        handle.result()
    finally:
        telemetry.set_enabled(False)
    spans = telemetry.drain_spans()
    roots = [r for r in spans if r["parent"] is None]
    assert [r["name"] for r in roots] == ["continuous.read"] * 4
    assert [(r["attrs"]["k"], r["attrs"]["cached"]) for r in roots] == [
        (7, False),
        (7, True),
        (2, False),
        (3, True),  # results() cached the k=3 prefix of its k=7 answer
    ]


def test_engine_writes_open_one_span_each(make_incomplete):
    dataset = make_incomplete(300, 3, seed=30)
    engine = QueryEngine()
    engine.query(dataset, 5)
    telemetry.drain_spans()
    telemetry.set_enabled(True)
    try:
        child = engine.insert(dataset, [[1.0, 2.0, 3.0]])
        child = engine.update(child, {child.ids[0]: {1: 4.0}})
        engine.delete(child, [child.ids[1]])
    finally:
        telemetry.set_enabled(False)
    spans = telemetry.drain_spans()
    roots = [r for r in spans if r["parent"] is None]
    assert [r["name"] for r in roots] == ["engine.apply_delta"] * 3
    assert [(r["attrs"]["inserts"], r["attrs"]["updates"], r["attrs"]["deletes"]) for r in roots] == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
