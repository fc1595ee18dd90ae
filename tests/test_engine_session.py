"""Tests for the :class:`repro.engine.QueryEngine` session layer."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import IncompleteDataset, QueryEngine, top_k_dominating
from repro.engine.kernels import PreparedDataset
from repro.engine.session import _LRU, PreparedDatasetCache, dataset_fingerprint
from repro.errors import InvalidParameterError


class TestFingerprint:
    def test_identical_content_shares_fingerprint(self, make_incomplete):
        ds = make_incomplete(30, 4, missing_rate=0.3, seed=5)
        clone = IncompleteDataset(ds.values, directions=ds.directions, name="other-name")
        assert dataset_fingerprint(ds) == dataset_fingerprint(clone)

    def test_different_values_differ(self, make_incomplete):
        a = make_incomplete(30, 4, missing_rate=0.3, seed=5)
        b = make_incomplete(30, 4, missing_rate=0.3, seed=6)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_directions_matter(self):
        values = [[1, 2], [2, 1], [3, 3]]
        as_min = IncompleteDataset(values, directions="min")
        as_max = IncompleteDataset(values, directions="max")
        assert dataset_fingerprint(as_min) != dataset_fingerprint(as_max)

    def test_missing_pattern_matters(self):
        a = IncompleteDataset([[1, None], [2, 2]])
        b = IncompleteDataset([[1, 3], [2, 2]])
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_signed_zero_values_share_fingerprint(self):
        # Regression: tobytes() of -0.0 differs from 0.0 even though every
        # dominance comparison treats them as equal — equal-answer datasets
        # must share a fingerprint or cache/store reuse is silently lost.
        a = IncompleteDataset([[0.0, 1.0], [2.0, None], [3.0, 0.0]])
        b = IncompleteDataset([[-0.0, 1.0], [2.0, None], [3.0, -0.0]])
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_signed_zero_engine_reuse(self):
        engine = QueryEngine()
        a = IncompleteDataset([[0.0, 1.0], [2.0, None], [3.0, 0.5]])
        b = IncompleteDataset([[-0.0, 1.0], [2.0, None], [3.0, 0.5]])
        first = engine.query(a, 2)
        assert engine.query(b, 2) is first  # same content, cached answer

    def test_missing_cell_payload_bits_do_not_matter(self):
        # Missing cells are NaN in the value matrix; their payload bits are
        # meaningless and must not split the fingerprint.
        values_a = np.array([[1.0, np.nan], [2.0, 3.0]])
        values_b = values_a.copy()
        weird_nan = np.frombuffer(np.uint64(0x7FF8DEADBEEF0001).tobytes(), np.float64)[0]
        assert np.isnan(weird_nan)
        values_b[0, 1] = weird_nan
        a = IncompleteDataset(values_a)
        b = IncompleteDataset(values_b)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_id_reuse_never_serves_stale_answers(self):
        # Regression: CPython recycles ids of freed objects; a bare-id memo
        # once served another dataset's fingerprint (and cached answer).
        from repro.core.naive import naive_tkd

        engine = QueryEngine()
        rng = np.random.default_rng(0)
        for _ in range(400):  # fresh short-lived datasets force id reuse
            values = rng.integers(1, 30, size=(20, 3)).astype(float)
            mask = rng.random((20, 3)) < 0.3
            mask[mask.all(axis=1), 0] = False
            values[mask] = np.nan
            ds = IncompleteDataset(values)
            assert engine.query(ds, 3).score_multiset == naive_tkd(ds, 3).score_multiset


class TestResultCache:
    def test_repeat_query_is_cached(self, make_incomplete):
        ds = make_incomplete(60, 4, missing_rate=0.2, seed=1)
        engine = QueryEngine()
        first = engine.query(ds, 5)
        second = engine.query(ds, 5)
        assert second is first
        assert engine.stats.result_hits == 1
        assert engine.stats.queries == 2

    def test_cache_keys_include_k_not_algorithm(self, make_incomplete):
        # Every route returns the canonical answer, so one entry per
        # (dataset, k) serves them all.
        ds = make_incomplete(60, 4, missing_rate=0.2, seed=1)
        engine = QueryEngine()
        assert engine.query(ds, 3) is not engine.query(ds, 5)
        assert engine.query(ds, 3, algorithm="naive") is engine.query(
            ds, 3, algorithm="big"
        )

    def test_equal_content_different_instance_hits(self, make_incomplete):
        ds = make_incomplete(40, 3, missing_rate=0.25, seed=2)
        clone = IncompleteDataset(ds.values, name="clone")
        engine = QueryEngine()
        first = engine.query(ds, 4)
        second = engine.query(clone, 4)
        assert second is first  # fingerprints match, answer reused

    def test_random_tie_break_bypasses_cache(self, fig3_dataset):
        engine = QueryEngine()
        first = engine.query(fig3_dataset, 2, tie_break="random", rng=1)
        second = engine.query(fig3_dataset, 2, tie_break="random", rng=1)
        assert first is not second
        assert engine.stats.result_hits == 0

    def test_lru_evicts_oldest(self, make_incomplete):
        ds = make_incomplete(40, 3, missing_rate=0.2, seed=3)
        engine = QueryEngine(max_results=2)
        engine.query(ds, 1)
        engine.query(ds, 2)
        engine.query(ds, 3)  # evicts the k=1 entry
        engine.query(ds, 1)
        assert engine.stats.result_hits == 0
        assert engine.stats.result_misses == 4

    def test_results_match_one_shot_api(self, make_incomplete):
        ds = make_incomplete(70, 5, missing_rate=0.3, seed=4)
        engine = QueryEngine()
        for algorithm in ("naive", "ubb", "big", "auto"):
            via_engine = engine.query(ds, 6, algorithm=algorithm)
            one_shot = top_k_dominating(ds, 6, algorithm=algorithm)
            assert via_engine.indices == one_shot.indices
            assert via_engine.scores == one_shot.scores


class TestPreparedCache:
    def test_preparation_is_shared_across_ks(self, make_incomplete):
        ds = make_incomplete(60, 4, missing_rate=0.2, seed=6)
        engine = QueryEngine()
        for k in (2, 4, 8):
            engine.query(ds, k, algorithm="big")
        assert engine.stats.prepared_misses == 1
        assert engine.stats.prepared_hits == 2
        assert engine.prepared_algorithms(ds) == ("big",)

    def test_planner_sees_prepared_structures(self, make_incomplete):
        ds = make_incomplete(60, 4, missing_rate=0.2, seed=6)
        engine = QueryEngine()
        engine.prepared(ds, "big")
        plan = engine.plan(ds, 4)
        assert plan.candidate_seconds["big"] <= QueryEngine().plan(ds, 4).candidate_seconds["big"]

    def test_clear_resets_everything(self, make_incomplete):
        ds = make_incomplete(40, 3, missing_rate=0.2, seed=7)
        engine = QueryEngine()
        engine.query(ds, 3)
        engine.clear()
        assert engine.prepared_algorithms(ds) == ()
        engine.query(ds, 3)
        assert engine.stats.result_hits == 0


class TestQueryMany:
    def test_tuple_and_dict_requests(self, make_incomplete):
        ds = make_incomplete(50, 4, missing_rate=0.25, seed=8)
        engine = QueryEngine()
        results = engine.query_many(
            [
                (ds, 2),
                (ds, 4, "naive"),
                {"dataset": ds, "k": 6, "algorithm": "big", "options": {}},
            ]
        )
        assert [len(r) for r in results] == [2, 4, 6]
        oracle = top_k_dominating(ds, 6, algorithm="naive")
        assert results[2].score_multiset == oracle.score_multiset

    def test_sweep_reuses_preparation(self, make_incomplete):
        ds = make_incomplete(50, 4, missing_rate=0.25, seed=9)
        engine = QueryEngine()
        engine.query_many([(ds, k, "ubb") for k in (1, 2, 3, 4, 5)])
        assert engine.stats.prepared_misses == 1
        assert engine.stats.prepared_hits == 4

    @pytest.mark.parametrize("workers", (1, 2))
    def test_cached_requests_are_not_planned(self, make_incomplete, workers):
        """The result key does not depend on the route, so a repeated
        batch is answered from the cache without a single plan call."""
        ds = make_incomplete(120, 4, missing_rate=0.2, seed=12)
        requests = [(ds, k) for k in (1, 3, 5, 7)]
        engine = QueryEngine()
        plans = []
        plan = engine.plan

        def counting_plan(*args, **kwargs):
            plans.append(args)
            return plan(*args, **kwargs)

        engine.plan = counting_plan
        first = engine.query_many(requests, workers=workers)
        assert len(plans) == len(requests)
        second = engine.query_many(requests, workers=workers)
        assert len(plans) == len(requests)
        assert all(a is b for a, b in zip(first, second))
        assert engine.stats.result_hits == len(requests)
        assert engine.stats.result_hits + engine.stats.result_misses == engine.stats.queries
        for k, result in zip((1, 3, 5, 7), second):
            oracle = top_k_dominating(ds, k, algorithm="naive")
            assert result.indices == oracle.indices

    def test_bad_requests_rejected(self, make_incomplete):
        ds = make_incomplete(10, 2, seed=0)
        engine = QueryEngine()
        with pytest.raises(InvalidParameterError):
            engine.query_many([(ds,)])
        with pytest.raises(InvalidParameterError):
            engine.query_many([{"dataset": ds}])
        with pytest.raises(InvalidParameterError):
            engine.query_many(["ab"])  # a str is a len-2 Sequence, still invalid

    def test_foreign_options_dropped_when_auto_resolves(self, make_incomplete):
        ds = make_incomplete(40, 3, missing_rate=0.1, seed=12)
        engine = QueryEngine()
        result = engine.query(ds, 2, enable_h1=False)  # planner picks naive here
        assert len(result) == 2


class TestPreparedDatasetCache:
    def test_prepare_dataset_is_idempotent(self, make_incomplete):
        ds = make_incomplete(60, 4, missing_rate=0.2, seed=1)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        first = engine.prepare_dataset(ds)
        assert isinstance(first, PreparedDataset)
        assert engine.prepare_dataset(ds) is first

    def test_equal_content_shares_entry(self, make_incomplete):
        ds = make_incomplete(50, 3, missing_rate=0.25, seed=2)
        clone = IncompleteDataset(ds.values, name="clone")
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        assert engine.prepare_dataset(ds) is engine.prepare_dataset(clone)

    def test_byte_budget_evicts_lru(self, make_incomplete):
        a = make_incomplete(200, 4, missing_rate=0.2, seed=3)
        b = make_incomplete(200, 4, missing_rate=0.2, seed=4)
        # One entry's sentinels are 2*200*4*8 = 12.8 KB; budget fits one.
        cache = PreparedDatasetCache(max_bytes=20_000)
        engine = QueryEngine(dataset_cache=cache)
        entry_a = engine.prepare_dataset(a)
        engine.prepare_dataset(b)
        assert len(cache) == 1
        assert cache.evictions == 1
        assert engine.prepare_dataset(a) is not entry_a  # rebuilt after eviction

    def test_lazy_table_growth_is_budgeted(self, make_incomplete):
        # Near-continuous values (one compact table row per object), so the
        # tables stay far larger than the sentinels.
        a = make_incomplete(600, 3, missing_rate=0.2, seed=5, cardinality=1_000_000)
        b = make_incomplete(600, 3, missing_rate=0.2, seed=6, cardinality=1_000_000)
        cache = PreparedDatasetCache(max_bytes=100_000)  # sentinels fit, tables don't
        engine = QueryEngine(dataset_cache=cache)
        prepared_a = engine.prepare_dataset(a)
        prepared_a.tables(build=True)
        assert prepared_a.nbytes > cache.max_bytes  # grew past the budget...
        engine.prepare_dataset(b)  # ...so the next access sheds it
        assert len(cache) == 1
        assert dataset_fingerprint(a) not in cache

    def test_single_oversized_entry_is_kept(self, make_incomplete):
        ds = make_incomplete(100, 4, missing_rate=0.2, seed=7)
        cache = PreparedDatasetCache(max_bytes=10)
        engine = QueryEngine(dataset_cache=cache)
        engine.prepare_dataset(ds)
        assert len(cache) == 1  # evicting the only entry would just thrash

    def test_invalid_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            PreparedDatasetCache(max_bytes=0)

    def test_clear_drops_dataset_cache(self, make_incomplete):
        ds = make_incomplete(40, 3, missing_rate=0.2, seed=8)
        cache = PreparedDatasetCache()
        engine = QueryEngine(dataset_cache=cache)
        engine.prepare_dataset(ds)
        engine.clear()
        assert len(cache) == 0


class TestQueryManyWorkers:
    def _sweep(self, make_incomplete):
        datasets = [
            make_incomplete(220, 4, missing_rate=0.15, seed=20),
            make_incomplete(220, 4, missing_rate=0.15, seed=21),
        ]
        return [
            (ds, k, algorithm)
            for ds in datasets
            for algorithm in ("ubb", "big")
            for k in (2, 4, 8)
        ]

    def test_workers_bit_identical_to_sequential(self, make_incomplete):
        requests = self._sweep(make_incomplete)
        sequential = QueryEngine().query_many(requests, workers=1)
        parallel = QueryEngine().query_many(requests, workers=2)
        for left, right in zip(sequential, parallel):
            assert left.indices == right.indices
            assert left.scores == right.scores
            assert left.ids == right.ids

    def test_workers_merge_into_result_cache(self, make_incomplete):
        requests = self._sweep(make_incomplete)
        engine = QueryEngine()
        results = engine.query_many(requests, workers=2)
        assert engine.stats.result_misses == len(requests)
        # Re-answering any request is now a parent-side cache hit.
        ds, k, algorithm = requests[0]
        assert engine.query(ds, k, algorithm=algorithm) is results[0]
        assert engine.stats.result_hits == 1

    def test_parallel_path_serves_parent_cache_first(self, make_incomplete):
        requests = self._sweep(make_incomplete)
        engine = QueryEngine()
        first = engine.query_many(requests, workers=2)
        second = engine.query_many(requests, workers=2)
        assert all(a is b for a, b in zip(first, second))  # nothing re-shipped
        assert engine.stats.result_hits == len(requests)

    def test_auto_resolution_is_worker_independent(self, make_incomplete):
        ds = make_incomplete(150, 4, missing_rate=0.2, seed=22)
        requests = [(ds, k) for k in (1, 2, 3, 4)]
        sequential = QueryEngine().query_many(requests, workers=1)
        parallel = QueryEngine().query_many(requests, workers=2)
        for left, right in zip(sequential, parallel):
            assert left.score_multiset == right.score_multiset
            assert left.indices == right.indices

    def test_invalid_workers_rejected(self, make_incomplete):
        ds = make_incomplete(20, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            QueryEngine().query_many([(ds, 2), (ds, 3)], workers=0)

    def test_single_request_stays_in_process(self, make_incomplete):
        ds = make_incomplete(30, 3, missing_rate=0.1, seed=23)
        results = QueryEngine().query_many([(ds, 2)], workers=4)
        assert len(results) == 1 and len(results[0]) == 2


class TestLRUSentinel:
    def test_falsy_values_are_real_hits(self):
        # Regression: get() treated a stored None as a miss and skipped
        # move_to_end, so falsy entries aged out as if never touched.
        lru = _LRU(2)
        lru.put("a", None)
        lru.put("b", 1)
        assert "a" in lru
        lru.get("a")  # must refresh recency even though the value is None
        lru.put("c", 2)  # evicts "b", the actual LRU entry
        assert "a" in lru and "b" not in lru and "c" in lru

    def test_get_default_distinguishes_absent(self):
        lru = _LRU(2)
        sentinel = object()
        assert lru.get("missing", sentinel) is sentinel
        lru.put("zero", 0)
        assert lru.get("zero", sentinel) == 0


class TestClearSemantics:
    def test_prepared_dataset_cache_clear_resets_counters(self, make_incomplete):
        cache = PreparedDatasetCache()
        ds = make_incomplete(30, 3, missing_rate=0.2, seed=50)
        engine = QueryEngine(dataset_cache=cache)
        engine.prepare_dataset(ds)
        engine.prepare_dataset(ds)
        assert cache.hits == 1 and cache.misses == 1
        cache.clear()
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert len(cache) == 0

    def test_engine_clear_spares_the_shared_cache(self, make_incomplete):
        # Regression: QueryEngine.clear() nuked the process-wide shared
        # dataset cache out from under every other session.
        ds = make_incomplete(35, 3, missing_rate=0.2, seed=51)
        first = QueryEngine()
        second = QueryEngine()
        assert first.dataset_cache is second.dataset_cache  # both shared
        entry = second.prepare_dataset(ds)
        first.query(ds, 2)
        first.clear()
        assert first.prepared_algorithms(ds) == ()
        assert second.prepare_dataset(ds) is entry  # survived the clear

    def test_engine_clear_shared_true_restores_old_behaviour(self, make_incomplete):
        ds = make_incomplete(35, 3, missing_rate=0.2, seed=52)
        engine = QueryEngine()
        entry = engine.prepare_dataset(ds)
        engine.clear(shared=True)
        assert engine.prepare_dataset(ds) is not entry  # rebuilt from scratch

    def test_engine_clear_always_drops_private_dataset_cache(self, make_incomplete):
        ds = make_incomplete(30, 3, missing_rate=0.2, seed=53)
        cache = PreparedDatasetCache()
        engine = QueryEngine(dataset_cache=cache)
        engine.prepare_dataset(ds)
        engine.clear()  # private cache is session-owned state
        assert len(cache) == 0


class TestThreadSafety:
    def test_concurrent_prepare_dataset_is_consistent(self, make_incomplete):
        datasets = [make_incomplete(60, 4, missing_rate=0.2, seed=100 + i) for i in range(8)]
        cache = PreparedDatasetCache()
        engine = QueryEngine(dataset_cache=cache)
        repeats = 25
        errors: list[Exception] = []

        def hammer(ds):
            try:
                instances = {id(engine.prepare_dataset(ds)) for _ in range(repeats)}
                assert len(instances) == 1  # one entry per fingerprint, ever
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(ds,)) for ds in datasets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # No lost updates: every access is accounted exactly once.
        assert cache.hits + cache.misses == len(datasets) * repeats
        assert cache.misses == len(datasets)
        assert len(cache) == len(datasets)

    def test_concurrent_queries_do_not_corrupt_state(self, make_incomplete):
        datasets = [make_incomplete(40, 3, missing_rate=0.2, seed=200 + i) for i in range(6)]
        oracles = [
            top_k_dominating(ds, 3, algorithm="naive").score_multiset for ds in datasets
        ]
        engine = QueryEngine()
        repeats = 10
        errors: list[Exception] = []

        def hammer(ds, oracle):
            try:
                for _ in range(repeats):
                    assert engine.query(ds, 3, algorithm="naive").score_multiset == oracle
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(ds, oracle))
            for ds, oracle in zip(datasets, oracles)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert engine.stats.queries == len(datasets) * repeats
        assert engine.stats.result_hits + engine.stats.result_misses == engine.stats.queries
        # Each dataset misses exactly once (it is owned by one thread).
        assert engine.stats.result_misses == len(datasets)

    def test_concurrent_bias_recording_stays_clipped(self):
        from repro.engine.planner import _BIAS_CLIP, calibration, record_observation

        cal = calibration()
        saved = dict(cal.bias)
        errors: list[Exception] = []

        def hammer(ratio):
            try:
                for _ in range(200):
                    record_observation("naive", 1.0, ratio)
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=hammer, args=(ratio,))
                for ratio in (0.25, 0.5, 2.0, 4.0)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert _BIAS_CLIP[0] <= cal.bias["naive"] <= _BIAS_CLIP[1]
        finally:
            cal.bias.clear()
            cal.bias.update(saved)


class TestEngineStats:
    def test_summary_renders(self, make_incomplete):
        ds = make_incomplete(30, 3, missing_rate=0.2, seed=10)
        engine = QueryEngine()
        engine.query(ds, 2)
        engine.query(ds, 2)
        text = engine.stats.summary()
        assert "queries" in text and "cached" in text
        assert engine.stats.hit_rate == 0.5

    def test_options_with_arrays_are_cacheable(self, fig3_dataset):
        engine = QueryEngine()
        bins = np.asarray([3, 3, 3, 3])
        first = engine.query(fig3_dataset, 2, algorithm="ibig", bins=bins)
        second = engine.query(fig3_dataset, 2, algorithm="ibig", bins=[3, 3, 3, 3])
        assert first.score_multiset == (16, 16)
        assert second is first  # ndarray and list freeze to the same key


class TestSharedArrayAccounting:
    """Copy-on-write delta chains must not double-count shared tables."""

    def test_total_bytes_dedupes_shared_table_arrays(self, make_incomplete):
        # Near-continuous values keep the tables, not the per-version
        # sentinel copies, the bulk of every entry.
        ds = make_incomplete(600, 4, missing_rate=0.2, seed=20, cardinality=1_000_000)
        cache = PreparedDatasetCache()
        engine = QueryEngine(dataset_cache=cache)
        engine.prepare_dataset(ds).tables(build=True)
        parent_bytes = cache.total_bytes
        child = ds
        for i in range(5):
            child = engine.update(child, {child.ids[i]: {0: float(i)}})
        naive_sum = sum(entry.nbytes for entry in cache._data.values())
        assert cache.total_bytes < naive_sum  # shared arrays charged once
        assert cache.total_bytes >= parent_bytes
        # Each update-only patch rebinds a couple of per-dimension arrays;
        # six versions must cost far less than six full table sets.
        assert cache.total_bytes < 3 * parent_bytes

    def test_long_version_history_stays_within_budget(self, make_incomplete):
        # Near-continuous values: tables, not sentinels, dominate each entry.
        ds = make_incomplete(600, 4, missing_rate=0.2, seed=21, cardinality=1_000_000)
        probe = PreparedDataset(ds)
        probe.tables(build=True)
        # Budget fits ~4 full table sets; the 7-version chain naively sums
        # to ~7 sets (eviction after three versions), but each child only
        # adds private sentinels plus one re-ranked dimension's arrays, so
        # deduped accounting keeps the whole history.
        cache = PreparedDatasetCache(max_bytes=int(probe.nbytes * 4))
        engine = QueryEngine(dataset_cache=cache)
        engine.prepare_dataset(ds).tables(build=True)
        child = ds
        for i in range(6):
            child = engine.update(child, {child.ids[i]: {0: float(i + 7)}})
        assert len(cache) == 7
        assert cache.evictions == 0

    def test_distinct_datasets_still_sum_fully(self, make_incomplete):
        a = make_incomplete(100, 3, missing_rate=0.2, seed=22)
        b = make_incomplete(100, 3, missing_rate=0.2, seed=23)
        cache = PreparedDatasetCache()
        engine = QueryEngine(dataset_cache=cache)
        pa = engine.prepare_dataset(a)
        pb = engine.prepare_dataset(b)
        assert cache.total_bytes == pa.nbytes + pb.nbytes
