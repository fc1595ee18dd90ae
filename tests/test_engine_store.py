"""Tests for the persistent fingerprint-keyed store (repro.engine.store)."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import IncompleteDataset, QueryEngine, top_k_dominating
from repro.core.result import TKDResult
from repro.engine.planner import calibration
from repro.engine.session import EngineStats
from repro.engine.store import STORE_SCHEMA, PersistentStore
from repro.errors import InvalidParameterError


@pytest.fixture(autouse=True)
def _preserve_planner_bias():
    """Store tests load persisted biases; keep them from leaking process-wide."""
    cal = calibration()
    saved = dict(cal.bias)
    yield
    cal.bias.clear()
    cal.bias.update(saved)


def _result(indices=(0,), scores=(3,), ids=("a",), k=1, algorithm="naive") -> TKDResult:
    return TKDResult(
        indices=list(indices),
        scores=list(scores),
        ids=list(ids),
        k=k,
        algorithm=algorithm,
    )


class TestResultRoundTrip:
    def test_put_get_preserves_answer(self, tmp_path):
        store = PersistentStore(tmp_path)
        original = _result(indices=[4, 1], scores=[9, 7], ids=["o4", "o1"], k=2, algorithm="big")
        store.put_result("fp", 2, "big", (), original, rebuild_seconds=0.5)
        fetched = store.get_result("fp", 2, "big", ())
        assert fetched.indices == original.indices
        assert fetched.scores == original.scores
        assert fetched.ids == original.ids
        assert fetched.k == original.k
        assert fetched.algorithm == original.algorithm
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_survives_a_fresh_handle(self, tmp_path):
        PersistentStore(tmp_path).put_result("fp", 3, "ubb", (), _result(k=3))
        reopened = PersistentStore(tmp_path)
        assert reopened.get_result("fp", 3, "ubb", ()) is not None

    def test_miss_returns_none(self, tmp_path):
        store = PersistentStore(tmp_path)
        assert store.get_result("nope", 1, "naive", ()) is None
        assert store.stats.misses == 1

    def test_keys_are_discriminating(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put_result("fp", 1, "naive", (), _result())
        assert store.get_result("fp", 2, "naive", ()) is None
        assert store.get_result("other", 1, "naive", ()) is None
        assert store.get_result("fp", 1, "big", ()) is None
        assert store.get_result("fp", 1, "naive", (("block", 64),)) is None
        assert store.get_result("fp", 1, "naive", ()) is not None

    def test_meta_travels_with_the_entry(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put_result(
            "fp", 1, "big", (), _result(), meta={"query_s": 0.25, "preprocess_s": 1.5}
        )
        _result_obj, meta = store.get_entry("fp", 1, "big", ())
        assert meta == {"query_s": 0.25, "preprocess_s": 1.5}

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            PersistentStore(tmp_path, max_bytes=0)

    def test_stats_extra_round_trips(self, tmp_path):
        store = PersistentStore(tmp_path)
        original = _result(algorithm="partitioned")
        original.stats.extra.update(partitions=4, survival=0.25, merge="tree")
        original.stats.extra["unpicklable"] = object()  # non-JSON: dropped, not fatal
        store.put_result("fp", 1, "partitioned", (), original)
        fetched = PersistentStore(tmp_path).get_result("fp", 1, "partitioned", ())
        assert fetched.stats.extra["partitions"] == 4
        assert fetched.stats.extra["survival"] == 0.25
        assert fetched.stats.extra["merge"] == "tree"
        assert "unpicklable" not in fetched.stats.extra

    def test_unknown_persisted_stats_keys_land_in_extra(self, tmp_path):
        """Forward compatibility: a stats key written by another package
        version must surface in ``stats.extra``, not silently vanish."""
        from repro.engine.store import _decode_result, _encode_result

        original = _result()
        original.stats.algorithm = "naive"
        payload = _encode_result(original)
        payload["stats"]["frobnication_level"] = 11  # field we do not have
        decoded = _decode_result(payload)
        assert decoded.stats.extra["frobnication_level"] == 11
        # Known fields still land on the dataclass, not in extra.
        assert decoded.stats.algorithm == "naive"
        assert "algorithm" not in decoded.stats.extra


class TestSchemaVersioning:
    def test_other_package_version_is_ignored(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put_result("fp", 1, "naive", (), _result())
        payload = json.loads((tmp_path / "results.json").read_text())
        payload["version"] = "0.0.0-stale"
        (tmp_path / "results.json").write_text(json.dumps(payload))
        reopened = PersistentStore(tmp_path)
        assert reopened.get_result("fp", 1, "naive", ()) is None
        assert reopened.stats.invalidations >= 1

    def test_other_schema_is_ignored(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put_result("fp", 1, "naive", (), _result())
        payload = json.loads((tmp_path / "results.json").read_text())
        payload["schema"] = STORE_SCHEMA + 1
        (tmp_path / "results.json").write_text(json.dumps(payload))
        assert PersistentStore(tmp_path).get_result("fp", 1, "naive", ()) is None

    def test_corrupt_file_reads_as_empty_and_recovers(self, tmp_path):
        (tmp_path / "results.json").write_text("{ not json !!")
        store = PersistentStore(tmp_path)
        assert store.get_result("fp", 1, "naive", ()) is None
        store.put_result("fp", 1, "naive", (), _result())  # overwrites the wreck
        assert PersistentStore(tmp_path).get_result("fp", 1, "naive", ()) is not None


class TestCostAwareEviction:
    def test_overflow_keeps_highest_rebuild_cost_per_byte(self, tmp_path):
        probe = PersistentStore(tmp_path / "probe")
        probe.put_result("size-probe", 1, "naive", (), _result())
        entry_bytes = probe.entries()[0]["bytes"]

        # Budget fits exactly one entry; rebuild costs differ by orders of
        # magnitude while sizes are near-identical.
        store = PersistentStore(tmp_path / "store", max_bytes=int(entry_bytes * 1.5))
        store.put_result("cheap", 1, "naive", (), _result(), rebuild_seconds=0.001)
        store.put_result("precious", 1, "naive", (), _result(), rebuild_seconds=5.0)
        store.put_result("middling", 1, "naive", (), _result(), rebuild_seconds=0.05)
        assert len(store) == 1
        assert store.stats.evictions == 2
        survivor = store.entries()[0]
        assert survivor["rebuild_seconds"] == 5.0
        assert store.get_result("precious", 1, "naive", ()) is not None

    def test_single_oversized_entry_is_kept(self, tmp_path):
        store = PersistentStore(tmp_path, max_bytes=1)
        store.put_result("fp", 1, "naive", (), _result(), rebuild_seconds=1.0)
        assert len(store) == 1  # evicting the only entry would just thrash


class TestPlannerPersistence:
    def test_round_trip(self, tmp_path):
        store = PersistentStore(tmp_path)
        state = {"vec": 2e-9, "step": 4e-6, "source": "microbenchmark", "bias": {"big": 1.4}}
        store.save_planner(state)
        assert PersistentStore(tmp_path).load_planner() == state

    def test_engine_adopts_persisted_bias(self, tmp_path, make_incomplete):
        ds = make_incomplete(40, 3, missing_rate=0.2, seed=1)
        engine = QueryEngine(store=tmp_path)
        engine.query(ds, 3)  # algorithm="auto" records an observation
        engine.flush()
        assert PersistentStore(tmp_path).load_planner() is not None

        cal = calibration()
        cal.bias.clear()
        store = PersistentStore(tmp_path)
        store.save_planner({"bias": {"big": 1.7, "junk": "not-a-number"}})
        QueryEngine(store=tmp_path)  # opening the store loads the biases
        assert cal.bias["big"] == pytest.approx(1.7)
        assert "junk" not in cal.bias  # malformed values are skipped

    def test_in_process_bias_wins_over_snapshot(self, tmp_path):
        # Opening a store mid-process must not regress biases that
        # record_observation already refined in this process.
        cal = calibration()
        cal.bias.clear()
        cal.bias["big"] = 1.9
        PersistentStore(tmp_path).save_planner({"bias": {"big": 1.0, "ubb": 1.2}})
        QueryEngine(store=tmp_path)
        assert cal.bias["big"] == 1.9  # fresher in-process value kept
        assert cal.bias["ubb"] == pytest.approx(1.2)  # unseen key adopted

    def test_bias_is_reclipped_on_load(self, tmp_path):
        cal = calibration()
        cal.bias.clear()
        store = PersistentStore(tmp_path)
        store.save_planner({"bias": {"naive": 99.0}})
        QueryEngine(store=tmp_path)
        assert cal.bias["naive"] == 2.0  # _BIAS_CLIP upper bound


class TestMaintenance:
    def test_clear_drops_everything_and_resets_stats(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put_result("fp", 1, "naive", (), _result())
        store.save_planner({"bias": {}})
        store.get_result("fp", 1, "naive", ())
        store.clear()
        assert len(store) == 0
        assert store.load_planner() is None
        assert store.stats.hits == 0 and store.stats.writes == 0

    def test_summary_and_entries_render(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put_result("fp", 4, "big", (), _result(k=4), rebuild_seconds=0.125)
        text = store.summary()
        assert "1 result entries" in text and "version" in text
        (entry,) = store.entries()
        assert entry["key"][1] == 4 and entry["rebuild_seconds"] == 0.125
        assert store.total_bytes == entry["bytes"]

    def test_concurrent_writers_via_one_handle(self, tmp_path):
        store = PersistentStore(tmp_path)
        errors = []

        def writer(tag):
            try:
                for i in range(10):
                    store.put_result(f"{tag}-{i}", 1, "naive", (), _result())
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store) == 40


class TestEngineIntegration:
    def test_second_engine_answers_warm(self, tmp_path, make_incomplete):
        ds = make_incomplete(80, 4, missing_rate=0.2, seed=11)
        first = QueryEngine(store=tmp_path)
        cold = first.query(ds, 5, algorithm="big")
        assert first.stats.store_writes == 1

        second = QueryEngine(store=tmp_path)
        warm = second.query(ds, 5, algorithm="big")
        assert second.stats.store_hits == 1
        assert second.stats.prepared_misses == 0  # nothing was re-executed
        assert warm.indices == cold.indices
        assert warm.scores == cold.scores
        assert warm.ids == cold.ids

    def test_random_tie_break_bypasses_the_store(self, tmp_path, fig3_dataset):
        engine = QueryEngine(store=tmp_path)
        engine.query(fig3_dataset, 2, tie_break="random", rng=1)
        assert engine.stats.store_writes == 0
        assert len(engine.store) == 0

    def test_env_var_opt_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-store"))
        engine = QueryEngine()
        assert engine.store is not None
        assert engine.store.path == Path(str(tmp_path / "env-store"))

    def test_no_store_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert QueryEngine().store is None

    def test_query_many_workers_warm_start(self, tmp_path, make_incomplete):
        ds = make_incomplete(220, 4, missing_rate=0.15, seed=30)
        requests = [(ds, k, "big") for k in (2, 3, 4, 6)]

        writer = QueryEngine(store=tmp_path)
        first = writer.query_many(requests, workers=2)
        assert writer.stats.store_writes == len(requests)  # workers wrote back

        reader = QueryEngine(store=tmp_path)
        second = reader.query_many(requests, workers=2)
        assert reader.stats.store_hits == len(requests)  # nothing shipped
        assert reader.stats.store_writes == 0
        for left, right in zip(first, second):
            assert left.indices == right.indices
            assert left.scores == right.scores
            assert left.ids == right.ids

    def test_engine_stats_merge_covers_store_counters(self):
        a = EngineStats(store_hits=2, store_misses=1, store_writes=3)
        b = EngineStats(store_hits=1, store_writes=1)
        a.merge(b)
        assert (a.store_hits, a.store_misses, a.store_writes) == (3, 1, 4)
        assert "store" in a.summary()
        # Every counter gets a distinct value on each side, so a field the
        # merge skipped (or folded into another) shows up as a wrong sum.
        names = [spec.name for spec in dataclasses.fields(EngineStats)]
        counters = [name for name in names if name != "partition_imbalance"]
        left = EngineStats(**{name: 1 + i for i, name in enumerate(counters)})
        right = EngineStats(**{name: 100 * (1 + i) for i, name in enumerate(counters)})
        left.partition_imbalance, right.partition_imbalance = 1.5, 1.25
        left.merge(right)
        for i, name in enumerate(counters):
            assert getattr(left, name) == 101 * (1 + i), name
        assert left.partition_imbalance == 1.5  # a gauge: max, not sum

    def test_stored_answers_match_one_shot_api(self, tmp_path, make_incomplete):
        ds = make_incomplete(70, 5, missing_rate=0.3, seed=4)
        QueryEngine(store=tmp_path).query(ds, 6, algorithm="ubb")
        warm = QueryEngine(store=tmp_path).query(ds, 6, algorithm="ubb")
        oracle = top_k_dominating(ds, 6, algorithm="ubb")
        assert warm.score_multiset == oracle.score_multiset


class TestHarnessIntegration:
    def test_time_algorithm_reuses_stored_measurements(self, tmp_path, make_incomplete):
        from repro.experiments.harness import time_algorithm

        ds = make_incomplete(90, 4, missing_rate=0.2, seed=40)
        engine = QueryEngine(store=tmp_path)
        cold = time_algorithm(ds, "big", 4, engine=engine)
        assert "stored" not in cold

        warm_engine = QueryEngine(store=tmp_path)
        warm = time_algorithm(ds, "big", 4, engine=warm_engine)
        assert warm["stored"] is True
        assert warm["query_s"] == cold["query_s"]  # the *measured* timing travels
        assert warm["preprocess_s"] == cold["preprocess_s"]
        assert warm["result"].indices == cold["result"].indices

    def test_time_algorithm_without_engine_is_unchanged(self, make_incomplete):
        from repro.experiments.harness import time_algorithm

        ds = make_incomplete(40, 3, missing_rate=0.2, seed=41)
        row = time_algorithm(ds, "naive", 3)
        assert row["result"] is not None and "stored" not in row


class TestTwoProcessRoundTrip:
    def test_cli_sweep_is_warm_in_a_new_process(self, tmp_path, make_incomplete):
        """The acceptance scenario: process A populates, process B is warm."""
        csv_path = tmp_path / "data.csv"
        make_incomplete(120, 4, missing_rate=0.25, seed=77).to_csv(csv_path)
        store_dir = tmp_path / "store"

        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = str(src) + (os.pathsep + existing if existing else "")
        argv = [
            sys.executable,
            "-m",
            "repro",
            "query",
            str(csv_path),
            "--id-column",
            "id",
            "--sweep-k",
            "4,8,16,32",
            "--store",
            str(store_dir),
        ]
        first = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert first.returncode == 0, first.stderr
        assert "store 0/4 warm (4 written)" in first.stdout

        second = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert second.returncode == 0, second.stderr
        assert "store 4/4 warm (0 written)" in second.stdout

        answers_a = [line for line in first.stdout.splitlines() if line.startswith("k=")]
        answers_b = [line for line in second.stdout.splitlines() if line.startswith("k=")]
        assert answers_a == answers_b  # bit-identical under deterministic ties


class TestLineagePayloadPatchForward:
    """Schema-3 lineage records embed small deltas; cold processes patch
    a stored ancestor's tables forward instead of requiring the exact
    version on disk."""

    def _dataset(self, n=120, seed=70):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 8, size=(n, 4)).astype(float)
        values[rng.random((n, 4)) < 0.25] = np.nan
        values[np.isnan(values).all(axis=1), 0] = 1.0
        return IncompleteDataset(values)

    def _chain(self, engine, dataset):
        child = engine.update(dataset, {dataset.ids[3]: {1: 7.0}})
        child = engine.insert(child, [[1, 2, 3, 4]])
        return engine.delete(child, [child.ids[10]])

    def test_small_deltas_embed_payloads(self, tmp_path):
        from repro.engine.session import PreparedDatasetCache

        store = PersistentStore(tmp_path)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache(), store=store)
        dataset = self._dataset()
        child = engine.insert(dataset, [[1, 2, 3, 4]])
        record = store.lineage_of(child.fingerprint())
        assert isinstance(record.get("payload"), dict)
        assert record["payload"]["inserts"] == [[1.0, 2.0, 3.0, 4.0]]

    def test_oversized_deltas_stay_payload_free(self, tmp_path):
        from repro.engine.session import PreparedDatasetCache
        from repro.engine.store import MAX_LINEAGE_PAYLOAD_CELLS

        store = PersistentStore(tmp_path)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache(), store=store)
        dataset = self._dataset(n=60, seed=71)
        rows = np.ones((MAX_LINEAGE_PAYLOAD_CELLS // 4 + 1, 4))
        child = engine.insert(dataset, rows)
        record = store.lineage_of(child.fingerprint())
        assert record is not None and record.get("payload") is None

    def test_cold_process_patches_ancestor_forward(self, tmp_path):
        from repro.core.score import score_all
        from repro.engine.kernels import dominated_counts
        from repro.engine.session import PreparedDatasetCache

        writer = QueryEngine(dataset_cache=PreparedDatasetCache(), store=tmp_path)
        dataset = self._dataset(seed=72)
        writer.persist_prepared(dataset)  # only the ROOT's tables on disk
        tail = self._chain(writer, dataset)
        writer.flush()

        reader = QueryEngine(dataset_cache=PreparedDatasetCache(), store=tmp_path)
        prepared = reader.prepare_dataset(tail)
        assert reader.stats.prepared_patched_forward == 1
        assert reader.stats.prepared_loaded == 0
        assert prepared.tables_ready  # inherited from the persisted root
        assert np.array_equal(dominated_counts(tail, prepared=prepared), score_all(tail))

    def test_broken_chain_falls_back_to_cold_build(self, tmp_path):
        from repro.engine.session import PreparedDatasetCache

        writer = QueryEngine(dataset_cache=PreparedDatasetCache(), store=tmp_path)
        dataset = self._dataset(seed=73)
        # No persisted ancestor at all: lineage exists but nothing to patch.
        tail = self._chain(writer, dataset)
        writer.flush()
        reader = QueryEngine(dataset_cache=PreparedDatasetCache(), store=tmp_path)
        prepared = reader.prepare_dataset(tail)
        assert reader.stats.prepared_patched_forward == 0
        assert prepared.n == tail.n  # cold build still serves the query

    def test_payload_round_trip_through_delta(self):
        from repro.core.delta import DatasetDelta

        dataset = self._dataset(n=20, seed=74)
        delta = DatasetDelta.build(
            dataset,
            inserts=[[1, None, 3, 4]],
            deletes=[dataset.ids[2]],
            updates={dataset.ids[5]: {0: 9.0}},
        )
        rebuilt = DatasetDelta.from_payload(delta.payload())
        assert rebuilt.d == delta.d
        assert rebuilt.deleted_rows == delta.deleted_rows
        assert rebuilt.updated_rows == delta.updated_rows
        assert np.array_equal(
            np.isnan(rebuilt.inserted_values), np.isnan(delta.inserted_values)
        )
        assert rebuilt.digest() == delta.digest()


class TestSchemaFivePreparedEntries:
    """A prepared entry in the former full-table layout (schema 5) is a
    clean, counted miss: never misread, never raised."""

    @staticmethod
    def _write_schema5_entry(tmp_path, fingerprint, dataset, *, schema):
        lo = np.where(dataset.observed, dataset.minimized, -np.inf)
        hi = np.where(dataset.observed, dataset.minimized, np.inf)
        n, d = lo.shape
        words = (n + 63) >> 6
        state = {
            "meta": np.array([n, n, d, 0], dtype=np.int64),
            "build_seconds": np.array([1.0]),
            "lo": lo,
            "hi": hi,
            "observed": dataset.observed,
            "words": np.array([words], dtype=np.int64),
        }
        for dim in range(d):
            hi_order = np.argsort(hi[:, dim], kind="stable")
            lo_order = np.argsort(lo[:, dim], kind="stable")
            state[f"suffix{dim}"] = np.zeros((n + 1, words), dtype=np.uint64)
            state[f"prefix{dim}"] = np.zeros((n + 1, words), dtype=np.uint64)
            state[f"sorted_hi{dim}"] = hi[hi_order, dim]
            state[f"sorted_lo{dim}"] = lo[lo_order, dim]
            state[f"hi_order{dim}"] = hi_order
            state[f"lo_order{dim}"] = lo_order
        name = f"prepared-{fingerprint[:40]}.npz"
        with open(tmp_path / name, "wb") as handle:
            np.savez(handle, **state)
        entry = {"file": name, "bytes": 1, "build_seconds": 1.0, "n": n, "d": d, "tables": True, "created": 0.0}
        payload = {"schema": schema, "version": repro.__version__, "entries": {fingerprint: entry}}
        (tmp_path / "prepared.json").write_text(json.dumps(payload))

    @pytest.mark.parametrize("schema", [5, STORE_SCHEMA])
    def test_old_layout_is_a_counted_miss(self, tmp_path, make_incomplete, schema):
        from repro.engine.session import PreparedDatasetCache

        ds = make_incomplete(150, 3, missing_rate=0.2, seed=41)
        fingerprint = QueryEngine(dataset_cache=PreparedDatasetCache()).fingerprint(ds)
        self._write_schema5_entry(tmp_path, fingerprint, ds, schema=schema)
        store = PersistentStore(tmp_path)
        assert store.get_prepared(fingerprint) is None
        assert store.stats.invalidations >= 1
        engine = QueryEngine(dataset_cache=PreparedDatasetCache(), store=tmp_path)
        prepared = engine.prepare_dataset(ds)
        assert engine.stats.prepared_loaded == 0
        assert engine.store.stats.invalidations >= 1
        assert prepared.tables(build=True) is not None
        assert engine.query(ds, 5).scores == top_k_dominating(ds, 5, algorithm="naive").scores
