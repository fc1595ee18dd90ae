"""Tests for the versioned, delta-aware engine path.

Covers the whole refactor layer by layer: `DatasetDelta`/lineage
fingerprints in core, patched `PreparedDataset` tables in kernels (the
bit-identical-to-cold-rebuild property, word boundaries included),
`plan_delta` in the planner, `QueryEngine.apply_delta`/`ContinuousQuery`
incremental score maintenance in the session, and lineage / prepared
persistence / age-aware compaction in the store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset, content_fingerprint
from repro.core.delta import DatasetDelta, DatasetVersion, apply_delta
from repro.core.naive import naive_tkd
from repro.core.score import score_all
from repro.core.streaming import StreamingTKD
from repro.engine.kernels import (
    PreparedDataset,
    SentinelDelta,
    dominance_matrix_blocked,
    dominated_counts,
    dominated_masks,
    dominator_masks,
    incomparable_counts,
)
from repro.engine.planner import plan_delta
from repro.engine.session import PreparedDatasetCache, QueryEngine
from repro.engine.store import PersistentStore
from repro.errors import (
    AllMissingObjectError,
    DimensionMismatchError,
    DuplicateObjectError,
    EmptyDatasetError,
    InvalidParameterError,
)


def random_dataset(n, d=4, seed=0, missing=0.3, directions="min"):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 6, size=(n, d)).astype(float)
    values[rng.random((n, d)) < missing] = np.nan
    # NaN payload variety: missing cells with unusual bit patterns must
    # not affect identity or parity.
    all_missing = np.isnan(values).all(axis=1)
    values[all_missing, 0] = 1.0
    return IncompleteDataset(values, directions=directions)


def random_delta(dataset, seed):
    rng = np.random.default_rng(seed)
    kind = int(rng.integers(0, 3))
    if kind == 0 or dataset.n < 3:
        rows = rng.integers(0, 6, size=(int(rng.integers(1, 3)), dataset.d)).astype(float)
        rows[0, int(rng.integers(0, dataset.d))] = np.nan
        return DatasetDelta.inserting(dataset, rows)
    if kind == 1:
        victims = [dataset.ids[int(i)] for i in rng.choice(dataset.n, size=1, replace=False)]
        return DatasetDelta.deleting(dataset, victims)
    target = dataset.ids[int(rng.integers(0, dataset.n))]
    return DatasetDelta.updating(
        dataset, {target: {int(rng.integers(0, dataset.d)): float(rng.integers(0, 6))}}
    )


def tables_identical(a, b) -> None:
    """Assert two compact table sets are equal array for array."""
    assert (a.n, a.words) == (b.n, b.words)
    for attr in ("suffix", "prefix", "hi_values", "lo_values"):
        assert len(getattr(a, attr)) == len(getattr(b, attr)), attr
        for dim, (x, y) in enumerate(zip(getattr(a, attr), getattr(b, attr))):
            assert x.dtype == y.dtype and x.shape == y.shape, f"{attr}[{dim}]"
            assert np.array_equal(x, y), f"{attr}[{dim}]"


class TestDatasetDelta:
    def test_lineage_fingerprint_is_deterministic_and_id_free(self):
        ds_a = random_dataset(40, seed=1)
        ds_b = IncompleteDataset(ds_a.values, ids=[f"x{i}" for i in range(40)])
        child_a = ds_a.with_inserted([[1, 2, 3, 4]])
        child_b = ds_b.with_inserted([[1, 2, 3, 4]])
        assert child_a.fingerprint() == child_b.fingerprint()
        assert child_a.fingerprint() != ds_a.fingerprint()
        # ... and differs from the content hash (lineage-derived identity).
        assert child_a.fingerprint() != content_fingerprint(child_a)

    def test_version_chain_depth_and_parent(self):
        ds = random_dataset(20, seed=2)
        assert ds.version == DatasetVersion(fingerprint=ds.fingerprint())
        child = ds.with_deleted([ds.ids[3]])
        grand = child.with_updated({child.ids[0]: {0: 5.0}})
        assert child.version.parent == ds.fingerprint()
        assert grand.version.depth == 2
        assert grand.version.delta_digest is not None

    def test_ordering_contract(self):
        ds = random_dataset(10, seed=3)
        delta = DatasetDelta.build(
            ds, inserts=[[1, 1, 1, 1]], deletes=[ds.ids[4]], updates={ds.ids[2]: {1: 9.0}}
        )
        child = apply_delta(ds, delta)
        survivors = [x for i, x in enumerate(ds.ids) if i != 4]
        assert child.ids[:9] == survivors
        assert child.n == 10
        assert child.values[1, 1] != 9.0 or ds.ids[2] != child.ids[2]
        assert float(child.values[child.index_of(ds.ids[2]), 1]) == 9.0

    def test_partial_update_by_name_and_index(self):
        ds = random_dataset(6, seed=4)
        child = ds.with_updated({ds.ids[0]: {"d2": 3.5}})
        assert float(child.values[0, 1]) == 3.5
        child = ds.with_updated({ds.ids[0]: {0: None}})
        assert not child.observed[0, 0]

    def test_validation_errors(self):
        ds = random_dataset(6, seed=5)
        with pytest.raises(DuplicateObjectError):
            ds.with_inserted([[1, 1, 1, 1]], ids=[ds.ids[0]])
        with pytest.raises(DuplicateObjectError):
            ds.with_inserted([[1, 1, 1, 1], [2, 2, 2, 2]], ids=["a", "a"])
        with pytest.raises(AllMissingObjectError):
            ds.with_inserted([[None, None, None, None]])
        with pytest.raises(AllMissingObjectError):
            ds.with_updated({ds.ids[0]: [None, None, None, None]})
        with pytest.raises(InvalidParameterError):
            ds.with_deleted(["ghost"])
        with pytest.raises(InvalidParameterError):
            DatasetDelta.build(ds, deletes=[ds.ids[0]], updates={ds.ids[0]: {0: 1.0}})
        with pytest.raises(DimensionMismatchError):
            ds.with_inserted([[1, 2]])
        with pytest.raises(EmptyDatasetError):
            ds.with_deleted(ds.ids)
        # Deleting a freed id allows an insert to reuse it in one delta.
        reused = DatasetDelta.build(ds, inserts=[[1, 1, 1, 1]], insert_ids=[ds.ids[0]], deletes=[ds.ids[0]])
        assert apply_delta(ds, reused).n == ds.n

    def test_empty_delta_is_identity(self):
        ds = random_dataset(5, seed=6)
        assert ds.apply_delta(DatasetDelta(ds.d)) is ds

    def test_numeric_dimension_names_resolve_by_name_first(self):
        ds = IncompleteDataset([[1.0, 2.0, 3.0]], dim_names=["2", "1", "0"])
        child = ds.with_updated({ds.ids[0]: {"0": 99.0}})
        assert float(child.values[0, 2]) == 99.0  # column *named* "0"
        assert float(child.values[0, 0]) == 1.0

    def test_update_digest_is_mapping_order_insensitive(self):
        ds = random_dataset(12, seed=7)
        a, b = ds.ids[3], ds.ids[8]
        forward = DatasetDelta.updating(ds, {a: {0: 1.0}, b: {1: 2.0}})
        backward = DatasetDelta.updating(ds, {b: {1: 2.0}, a: {0: 1.0}})
        assert forward.digest() == backward.digest()
        assert (
            ds.apply_delta(forward).fingerprint() == ds.apply_delta(backward).fingerprint()
        )


@pytest.mark.parametrize("n", [63, 64, 65, 128])
class TestPatchedTableParity:
    """Patched tables must be bit-identical to cold rebuilds (word
    boundaries included); tombstoned structures must answer identically."""

    def test_insert_and_update_chains_bit_identical(self, n):
        ds = random_dataset(n, seed=n, directions=["min", "max", "min", "max"])
        prepared = PreparedDataset(ds)
        prepared.tables(build=True)
        child = ds
        for step in range(4):
            rng = np.random.default_rng(100 * n + step)
            if step % 2 == 0:
                rows = rng.integers(0, 6, size=(2, 4)).astype(float)
                rows[0, 1] = np.nan
                delta = DatasetDelta.inserting(child, rows)
            else:
                target = child.ids[int(rng.integers(0, child.n))]
                delta = DatasetDelta.updating(child, {target: {0: float(rng.integers(0, 6))}})
            prepared = prepared.patched(SentinelDelta.from_delta(delta, child.directions))
            child = child.apply_delta(delta)
        cold = PreparedDataset(child)
        cold.tables(build=True)
        tables_identical(prepared.tables(build=False), cold.tables(build=False))

    def test_tombstoned_queries_match_cold_rebuild(self, n):
        ds = random_dataset(n, seed=n + 7)
        prepared = PreparedDataset(ds)
        prepared.tables(build=True)
        child = ds
        for step in range(8):
            delta = random_delta(child, seed=1000 * n + step)
            prepared = prepared.patched(
                SentinelDelta.from_delta(delta, child.directions), inplace=step > 0
            )
            child = child.apply_delta(delta)
        cold = PreparedDataset(child)
        cold.tables(build=True)
        assert np.array_equal(
            dominated_counts(child, prepared=prepared), dominated_counts(child, prepared=cold)
        )
        assert np.array_equal(
            dominated_masks(child, prepared=prepared), dominated_masks(child, prepared=cold)
        )
        assert np.array_equal(
            dominator_masks(child, prepared=prepared), dominator_masks(child, prepared=cold)
        )
        assert np.array_equal(
            incomparable_counts(child, prepared=prepared),
            incomparable_counts(child, prepared=cold),
        )
        assert np.array_equal(
            dominance_matrix_blocked(child, prepared=prepared),
            dominance_matrix_blocked(child, prepared=cold),
        )
        # Compaction sheds the tombstones and restores bit-identity.
        compacted = prepared.compacted(child)
        assert compacted.tombstones == 0
        tables_identical(compacted.tables(build=False), cold.tables(build=False))

    def test_broadcast_route_agrees_on_tombstoned_prepared(self, n):
        ds = random_dataset(n, seed=n + 13)
        prepared = PreparedDataset(ds)  # no tables: broadcast route
        child = ds
        for step in range(5):
            delta = random_delta(child, seed=2000 * n + step)
            prepared = prepared.patched(SentinelDelta.from_delta(delta, child.directions))
            child = child.apply_delta(delta)
        assert not prepared.tables_ready
        assert np.array_equal(dominated_counts(child, prepared=prepared), score_all(child))


class TestPatchedStateMachine:
    def test_copy_mode_leaves_parent_intact(self):
        ds = random_dataset(80, seed=21)
        prepared = PreparedDataset(ds)
        prepared.tables(build=True)
        before = dominated_counts(ds, prepared=prepared).copy()
        delta = DatasetDelta.build(
            ds, inserts=[[0, 0, 0, 0]], deletes=[ds.ids[5]], updates={ds.ids[1]: {2: 5.0}}
        )
        prepared.patched(SentinelDelta.from_delta(delta, ds.directions))
        assert np.array_equal(dominated_counts(ds, prepared=prepared), before)

    def test_doubling_growth_preserves_dtype_and_orientation(self):
        ds = random_dataset(10, seed=22)
        prepared = PreparedDataset(ds).patched(
            SentinelDelta.from_delta(
                DatasetDelta.inserting(ds, [[1, 1, 1, 1]]), ds.directions
            )
        )
        child = ds.with_inserted([[1, 1, 1, 1]])
        for step in range(40):  # crosses several capacity doublings
            delta = DatasetDelta.inserting(child, [[float(step), 1, 2, 3]])
            prepared = prepared.patched(
                SentinelDelta.from_delta(delta, child.directions), inplace=True
            )
            child = child.apply_delta(delta)
        assert prepared.lo.dtype == np.float64
        assert prepared.hi.dtype == np.float64
        assert prepared.observed.dtype == np.bool_
        assert prepared.lo.shape == (child.n, child.d)
        assert np.array_equal(dominated_counts(child, prepared=prepared), score_all(child))

    def test_state_round_trip(self):
        ds = random_dataset(70, seed=23)
        prepared = PreparedDataset(ds)
        prepared.tables(build=True)
        delta = DatasetDelta.deleting(ds, [ds.ids[0], ds.ids[9]])
        prepared = prepared.patched(SentinelDelta.from_delta(delta, ds.directions))
        child = ds.apply_delta(delta)
        state = {name: np.array(value, copy=True) for name, value in prepared.state_arrays().items()}
        restored = PreparedDataset.from_state(state)
        assert restored.tables_ready
        assert restored.tombstones == 2
        assert np.array_equal(
            dominated_counts(child, prepared=restored), dominated_counts(child, prepared=prepared)
        )


class TestPlanDelta:
    def test_single_update_patches(self):
        plan = plan_delta(4000, 4, updates=1, changed_dims=1)
        assert plan.action == "patch"
        assert plan.patch_seconds < plan.rebuild_seconds
        assert "patch" in plan.summary()

    def test_bulk_delta_rebuilds(self):
        assert plan_delta(4000, 4, inserts=2000).action == "rebuild"

    def test_tombstone_debt_forces_compaction(self):
        plan = plan_delta(4000, 4, deletes=1, tombstones=2100)
        assert plan.action == "rebuild"
        assert plan.tombstone_debt > 0.5

    def test_no_tables_is_bookkeeping_only(self):
        plan = plan_delta(4000, 4, inserts=500, tables_ready=False)
        assert plan.action == "patch"

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            plan_delta(0, 4)


class TestEngineDeltas:
    def test_randomized_sequences_stay_exact(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        dataset = random_dataset(90, seed=31)
        engine.prepare_dataset(dataset).tables(build=True)
        engine.scores(dataset)
        for step in range(25):
            dataset = engine.apply_delta(dataset, random_delta(dataset, seed=31 + step))
        assert np.array_equal(engine.scores(dataset), score_all(dataset))
        result = engine.query(dataset, 5)
        assert result.algorithm == "incremental"
        assert result.score_multiset == naive_tkd(dataset, 5).score_multiset
        assert engine.stats.deltas_applied == 25
        assert engine.stats.incremental_hits == 1

    def test_patched_prepared_installed_under_child_fingerprint(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        dataset = random_dataset(90, seed=32)
        engine.prepare_dataset(dataset).tables(build=True)
        child = engine.delete(dataset, [dataset.ids[4]])
        entry = engine.dataset_cache.peek(child.fingerprint())
        assert entry is not None
        assert entry.tables_ready
        assert entry.tombstones == 1
        assert np.array_equal(dominated_counts(child, prepared=entry), score_all(child))

    def test_explicit_incremental_algorithm_falls_back_exactly(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        dataset = random_dataset(60, seed=33)
        result = engine.query(dataset, 4, algorithm="incremental")
        assert result.algorithm == "incremental"
        assert result.score_multiset == naive_tkd(dataset, 4).score_multiset

    def test_evicted_parent_drops_maintenance_without_cache_pollution(self):
        from repro.engine.session import _shared_dataset_cache

        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        dataset = random_dataset(600, seed=35)
        engine.prepare_dataset(dataset)
        engine.scores(dataset)
        engine.dataset_cache.clear()  # simulate eviction of the parent
        shared_before = len(_shared_dataset_cache)
        child = engine.insert(dataset, [[1, 1, 1, 1]])
        # Maintenance was dropped, not silently rebuilt via the global shim.
        assert len(_shared_dataset_cache) == shared_before
        assert np.array_equal(engine.scores(child), score_all(child))

    def test_incremental_results_hit_the_result_cache(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        dataset = random_dataset(60, seed=34)
        engine.scores(dataset)
        first = engine.query(dataset, 3)
        second = engine.query(dataset, 3)
        assert first is second
        assert engine.stats.result_hits == 1


class TestContinuousQuery:
    def test_mixed_stream_matches_oracle(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(80, seed=41), k=5)
        rng = np.random.default_rng(41)
        for step in range(40):
            roll = step % 4
            if roll == 0:
                live.insert(rng.integers(0, 6, size=(1, 4)).astype(float))
            elif roll == 1 and live.n > 2:
                live.delete([live.ids[int(rng.integers(0, live.n))]])
            else:
                live.update({live.ids[int(rng.integers(0, live.n))]: {0: float(rng.integers(0, 6))}})
            assert np.array_equal(live.scores, score_all(live.dataset)), step
            expected = naive_tkd(live.dataset, 5).score_multiset
            got = tuple(sorted((s for _, s in live.top_k(5)), reverse=True))
            assert got == expected, step

    def test_boundary_fast_path_stays_exact_under_inserts(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(50, seed=42), k=3)
        live.top_k(3)  # prime the cached selection
        rng = np.random.default_rng(42)
        for step in range(20):
            live.insert(rng.integers(0, 6, size=(1, 4)).astype(float))
            got = tuple(sorted((s for _, s in live.top_k(3)), reverse=True))
            assert got == naive_tkd(live.dataset, 3).score_multiset

    def test_result_object(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(30, seed=43), k=4)
        result = live.result()
        assert result.algorithm == "incremental"
        assert len(result) == 4
        assert result.score_multiset == naive_tkd(live.dataset, 4).score_multiset


class TestStreamingFacade:
    def test_duplicate_insert_raises_typed_error(self):
        stream = StreamingTKD(2)
        stream.insert([1, 2], object_id="a")
        with pytest.raises(DuplicateObjectError):
            stream.insert([3, 4], object_id="a")
        # ... and the typed error still reads as the historical one.
        with pytest.raises(InvalidParameterError):
            stream.insert([3, 4], object_id="a")

    def test_update_keeps_scores_exact(self):
        stream = StreamingTKD(3)
        for i in range(12):
            stream.insert([i % 4, (i * 7) % 5, None if i % 3 == 0 else i % 2])
        stream.update("s0", {1: 0})
        snapshot = stream.to_dataset()
        oracle = score_all(snapshot)
        for row, object_id in enumerate(snapshot.ids):
            assert stream.score_of(object_id) == int(oracle[row])

    def test_rides_engine_stats(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        stream = StreamingTKD(2, engine=engine)
        stream.insert([1, 2])
        stream.insert([2, 1])
        stream.delete("s0")
        assert engine.stats.deltas_applied >= 2

    def test_nan_payload_cells_are_missing(self):
        stream = StreamingTKD(2)
        stream.insert([float("nan"), 2.0], object_id="x")
        stream.insert([1.0, 3.0], object_id="y")
        snapshot = stream.to_dataset()
        assert not snapshot.observed[snapshot.index_of("x"), 0]
        assert stream.score_of("x") == 1  # beats y on the shared (min) dim


class TestStoreLineageAndPrepared:
    def test_lineage_records_resolve_chains(self, tmp_path):
        store = PersistentStore(tmp_path)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache(), store=store)
        dataset = random_dataset(40, seed=51)
        child = engine.insert(dataset, [[1, 2, 3, 4]])
        grand = engine.delete(child, [child.ids[0]])
        chain = store.resolve_lineage(grand.fingerprint())
        assert [entry["fingerprint"] for entry in chain] == [
            grand.fingerprint(),
            child.fingerprint(),
        ]
        assert chain[0]["parent"] == child.fingerprint()
        assert chain[0]["depth"] == 2
        assert store.lineage_of(dataset.fingerprint()) is None

    def test_prepared_round_trip_warm_starts_new_engine(self, tmp_path):
        store = PersistentStore(tmp_path)
        dataset = random_dataset(80, seed=52)
        writer = QueryEngine(dataset_cache=PreparedDatasetCache(), store=store)
        writer.persist_prepared(dataset)
        reader = QueryEngine(dataset_cache=PreparedDatasetCache(), store=PersistentStore(tmp_path))
        prepared = reader.prepare_dataset(dataset)
        assert prepared.tables_ready  # no cold build needed
        assert reader.stats.prepared_loaded == 1
        assert np.array_equal(dominated_counts(dataset, prepared=prepared), score_all(dataset))

    def test_compact_reports_and_prunes_orphans(self, tmp_path):
        store = PersistentStore(tmp_path)
        dataset = random_dataset(40, seed=53)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache(), store=store)
        engine.persist_prepared(dataset)
        (tmp_path / "prepared-orphan.npz").write_bytes(b"junk")
        report = store.compact()
        assert report["orphans_removed"] == 1
        assert report["prepared_evictions"] == 0
        assert store.get_prepared(dataset.fingerprint()) is not None

    def test_prepared_eviction_prefers_cheap_entries(self, tmp_path):
        store = PersistentStore(tmp_path, max_prepared_bytes=1)
        a = random_dataset(40, seed=54)
        b = random_dataset(40, seed=55)
        cheap = PreparedDataset(a)
        cheap.tables(build=True)
        cheap.build_seconds = 0.001  # pin the cost ratio: a is the cheap loss
        expensive = PreparedDataset(b)
        expensive.tables(build=True)
        expensive.build_seconds = 10.0
        store.put_prepared(a.fingerprint(), cheap)
        store.put_prepared(b.fingerprint(), expensive)
        # Budget of 1 byte keeps only the highest effective-cost entry.
        assert store.get_prepared(a.fingerprint()) is None
        assert store.get_prepared(b.fingerprint()) is not None
        assert len(list(tmp_path.glob("prepared-*.npz"))) == 1

    def test_clear_drops_everything(self, tmp_path):
        store = PersistentStore(tmp_path)
        dataset = random_dataset(30, seed=56)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache(), store=store)
        engine.persist_prepared(dataset)
        engine.insert(dataset, [[1, 1, 1, 1]])
        store.clear()
        assert store.get_prepared(dataset.fingerprint()) is None
        assert store.resolve_lineage(dataset.fingerprint()) == []
        assert not list(tmp_path.glob("prepared-*.npz"))


class TestMultiKSubscriptions:
    """ContinuousQuery.subscribe: many k values over one maintained stream."""

    def _oracle_pairs(self, dataset, k):
        scores = score_all(dataset)
        order = np.lexsort((np.arange(scores.size), -scores))[:k]
        return [(dataset.ids[i], int(scores[i])) for i in order]

    def test_subscriptions_register_and_serve(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(60, seed=60), k=5)
        assert live.subscriptions == (5,)
        live.subscribe(2)
        live.subscribe(9)
        assert live.subscriptions == (2, 5, 9)
        results = live.results()
        assert set(results) == {2, 5, 9}
        for k, pairs in results.items():
            assert pairs == self._oracle_pairs(live.dataset, k)
        live.unsubscribe(5)
        assert live.subscriptions == (2, 9)

    def test_invalid_subscription_rejected(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(20, seed=61))
        with pytest.raises(InvalidParameterError):
            live.subscribe(0)
        with pytest.raises(InvalidParameterError):
            live.subscribe("three")

    def test_all_subscriptions_stay_exact_under_mixed_stream(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(70, seed=62), k=4)
        for k in (1, 8, 15):
            live.subscribe(k)
        rng = np.random.default_rng(62)
        for step in range(30):
            roll = step % 4
            if roll == 0:
                live.insert(rng.integers(0, 6, size=(1, 4)).astype(float))
            elif roll == 1 and live.n > 2:
                live.delete([live.ids[int(rng.integers(0, live.n))]])
            else:
                live.update(
                    {live.ids[int(rng.integers(0, live.n))]: {0: float(rng.integers(0, 6))}}
                )
            for k, pairs in live.results().items():
                assert pairs == self._oracle_pairs(live.dataset, k), (step, k)

    def test_per_k_boundary_caches_are_independent(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(50, seed=63), k=3)
        live.subscribe(10)
        live.results()  # prime both selections
        rng = np.random.default_rng(63)
        for step in range(15):
            live.insert(rng.integers(0, 6, size=(1, 4)).astype(float))
            got_3 = live.top_k(3)
            got_10 = live.top_k(10)
            assert got_3 == self._oracle_pairs(live.dataset, 3), step
            assert got_10 == self._oracle_pairs(live.dataset, 10), step

    def test_results_share_one_fallback_sort(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(40, seed=64), k=2)
        for k in (4, 6, 8):
            live.subscribe(k)
        live.delete([live.ids[0]])  # row shift: every cached selection stale
        results = live.results()
        for k, pairs in results.items():
            assert pairs == self._oracle_pairs(live.dataset, k)

    def test_random_tie_break_still_supported(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(30, seed=65), k=5)
        results = live.results(tie_break="random", rng=0)
        scores = score_all(live.dataset)
        want = tuple(sorted(scores, reverse=True)[:5])
        assert tuple(sorted((s for _, s in results[5]), reverse=True)) == want


class TestMaintainedReads:
    """``ContinuousQuery`` reads against a cold ``score_all`` + lexsort
    oracle, on the cached path (membership proved unchanged) and the
    exact fallback alike."""

    @staticmethod
    def _oracle(dataset, k):
        scores = score_all(dataset)
        order = np.lexsort((np.arange(scores.size), -scores))[:k]
        return [(dataset.ids[i], int(scores[i])) for i in order]

    @staticmethod
    def _count_selections(monkeypatch) -> list:
        """Count exact re-ranks: every read that is not one hit the cache."""
        from repro.core import result

        calls: list = []
        original = result.select_top_k

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(result, "select_top_k", counted)
        return calls

    def test_duplicate_changed_rows_between_reads(self, monkeypatch):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(150, seed=70), k=4)
        live.subscribe(12)
        live.results()
        selections = self._count_selections(monkeypatch)
        rng = np.random.default_rng(70)
        duplicated = 0
        reads = 30
        for step in range(reads):
            target = live.ids[int(rng.integers(0, live.n))]
            for _ in range(3):  # one row, again and again
                live.update({target: {int(rng.integers(0, 4)): float(rng.integers(0, 6))}})
            row = rng.integers(0, 6, size=(1, 4)).astype(float)
            live.insert(row)
            live.insert(row)  # twin inserts raise the same dominators twice
            window = np.concatenate(live._events)
            duplicated += np.unique(window).size < window.size
            for k, pairs in live.results().items():
                assert pairs == self._oracle(live.dataset, k), (step, k)
        assert duplicated == reads  # every read saw repeated changed rows
        assert 0 < len(selections) < reads  # both paths ran

    def test_more_writes_than_the_event_window(self, monkeypatch):
        from repro.engine.session import _MAX_PENDING_EVENTS

        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(120, seed=71), k=6)
        live.subscribe(2)
        live.results()
        selections = self._count_selections(monkeypatch)
        rng = np.random.default_rng(71)
        for step in range(_MAX_PENDING_EVENTS + 5):
            if step % 3:
                target = live.ids[int(rng.integers(0, live.n))]
                live.update({target: {0: float(rng.integers(0, 6))}})
            else:
                live.insert(rng.integers(0, 6, size=(1, 4)).astype(float))
        assert len(live._events) == _MAX_PENDING_EVENTS
        for k, pairs in live.results().items():
            assert pairs == self._oracle(live.dataset, k), k
        assert len(selections) == 1  # the window rolled past the selection
        for k, pairs in live.results().items():  # no write since: served cached
            assert pairs == self._oracle(live.dataset, k), k
        assert len(selections) == 1

    def test_single_k_top_k_path(self, monkeypatch):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(100, seed=72), k=3)
        selections = self._count_selections(monkeypatch)
        rng = np.random.default_rng(72)
        reads = 0
        for step in range(40):
            roll = step % 5
            if roll == 0 and live.n > 2:
                live.delete([live.ids[int(rng.integers(0, live.n))]])
            elif roll == 1:
                live.insert(rng.integers(0, 6, size=(1, 4)).astype(float))
            else:
                target = live.ids[int(rng.integers(0, live.n))]
                live.update({target: {int(rng.integers(0, 4)): float(rng.integers(0, 6))}})
            for k in (1, 7):
                assert live.top_k(k) == self._oracle(live.dataset, k), (step, k)
            assert live.top_k() == self._oracle(live.dataset, 3), step
            result = live.result(5)
            want = self._oracle(live.dataset, 5)
            assert list(zip(result.ids, result.scores)) == want, step
            assert [live.dataset.ids[i] for i in result.indices] == result.ids
            reads += 4
        assert 0 < len(selections) < reads

    def test_returned_lists_are_independent(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        live = engine.continuous(random_dataset(60, seed=73), k=3)
        live.subscribe(8)
        first = live.results()
        first[3].append(("intruder", 99))
        first[3][0] = ("intruder", 99)
        assert first[8] == self._oracle(live.dataset, 8)
        first[8].clear()
        assert first[3][1:3] == self._oracle(live.dataset, 3)[1:]
        single = live.top_k(8)
        single.reverse()
        again = live.results()
        assert again == {3: self._oracle(live.dataset, 3), 8: self._oracle(live.dataset, 8)}
        assert live.top_k(8) == self._oracle(live.dataset, 8)


class TestCompactPatches:
    """Patches set or clear one bit per compact table, insert a row for a
    new value and drop the row of a value whose last holder left; the
    result equals a cold build array for array."""

    @staticmethod
    def _advance(prepared, child, delta, **kwargs):
        prepared = prepared.patched(SentinelDelta.from_delta(delta, child.directions), **kwargs)
        return prepared, child.apply_delta(delta)

    @staticmethod
    def _cold(dataset):
        cold = PreparedDataset(dataset)
        cold.tables(build=True)
        return cold.tables(build=False)

    def test_insert_of_a_new_value_adds_one_row(self):
        ds = random_dataset(40, seed=31)
        prepared = PreparedDataset(ds)
        tables = prepared.tables(build=True)
        assert 2.5 not in tables.hi_values[0]
        rows = tables.suffix[0].shape[0]
        delta = DatasetDelta.inserting(ds, [[2.5, 1.0, 1.0, 1.0]])
        child_prepared, child = self._advance(prepared, ds, delta)
        patched = child_prepared.tables(build=False)
        assert patched.suffix[0].shape[0] == rows + 1
        assert 2.5 in patched.hi_values[0] and 2.5 in patched.lo_values[0]
        tables_identical(patched, self._cold(child))
        # Copy-on-write: the parent's arrays are untouched.
        assert tables.suffix[0].shape[0] == rows and 2.5 not in tables.hi_values[0]

    def test_update_that_empties_a_run_drops_its_row(self):
        values = np.array([[1.0, 1.0], [2.0, 2.0], [7.0, 2.0], [2.0, 1.0]])
        ds = IncompleteDataset(values)
        prepared = PreparedDataset(ds)
        prepared.tables(build=True)
        delta = DatasetDelta.updating(ds, {ds.ids[2]: {0: 1.0}})  # 7 had one holder
        child_prepared, child = self._advance(prepared, ds, delta)
        patched = child_prepared.tables(build=False)
        assert patched.hi_values[0].tolist() == [1.0, 2.0]
        assert patched.suffix[0].shape == (3, 1)
        tables_identical(patched, self._cold(child))

    def test_insert_crossing_a_word_boundary_widens_every_table(self):
        ds = random_dataset(64, seed=32)
        prepared = PreparedDataset(ds)
        assert prepared.tables(build=True).words == 1
        delta = DatasetDelta.inserting(ds, [[9.0, np.nan, 3.0, 0.0]])
        child_prepared, child = self._advance(prepared, ds, delta)
        patched = child_prepared.tables(build=False)
        assert patched.words == 2
        assert all(t.shape[1] == 2 for t in patched.suffix + patched.prefix)
        tables_identical(patched, self._cold(child))

    def test_random_insert_update_sequence_equals_cold_build(self):
        ds = random_dataset(50, seed=33)
        prepared = PreparedDataset(ds)
        prepared.tables(build=True)
        child = ds
        rng = np.random.default_rng(34)
        # Values drawn from 40 levels keep runs short, so updates keep
        # emptying runs and inserts keep adding new values.
        for step in range(200):
            if rng.random() < 0.4:
                row = rng.integers(0, 40, size=(1, 4)).astype(float)
                row[0, rng.random(4) < 0.3] = np.nan
                row[0, int(rng.integers(0, 4))] = float(rng.integers(0, 40))
                delta = DatasetDelta.inserting(child, row)
            else:
                target = child.ids[int(rng.integers(0, child.n))]
                dim = int(rng.integers(0, 4))
                value = None if rng.random() < 0.2 else float(rng.integers(0, 40))
                row = child.values[child.index_of(target)].copy()
                row[dim] = np.nan if value is None else value
                if np.isnan(row).all():
                    continue
                delta = DatasetDelta.updating(child, {target: {dim: value}})
            prepared, child = self._advance(prepared, child, delta, inplace=step % 2 == 1)
        assert child.n > 100  # crossed at least one word boundary
        tables_identical(prepared.tables(build=False), self._cold(child))
        assert np.array_equal(dominated_counts(child, prepared=prepared), score_all(child))

    def test_sequence_with_deletes_answers_like_cold_and_compacts_equal(self):
        ds = random_dataset(70, seed=35)
        prepared = PreparedDataset(ds)
        prepared.tables(build=True)
        child = ds
        for step in range(60):
            delta = random_delta(child, seed=3500 + step)
            prepared, child = self._advance(prepared, child, delta, inplace=step > 0)
        assert prepared.tombstones > 0
        cold = PreparedDataset(child)
        cold.tables(build=True)
        assert np.array_equal(
            dominated_counts(child, prepared=prepared), dominated_counts(child, prepared=cold)
        )
        assert np.array_equal(
            dominator_masks(child, prepared=prepared), dominator_masks(child, prepared=cold)
        )
        tables_identical(prepared.compacted(child).tables(build=False), cold.tables(build=False))
