"""Tests for out-of-core partitioned execution.

The load-bearing property is *spill transparency*: a shard whose
prepared structures live as a memory-mapped spill file must answer every
kernel question bit-identically to the anonymous-RAM build — across
word-boundary sizes, NaN payload variety, and tombstoned deletes — and
evicting/re-attaching an attachment must never change an answer. On top
of that sit the resident-set manager's accounting, the engine's spill
trigger and adaptive repartitioner, the flat summary merge, and
the store's spill-file lifecycle.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.delta import DatasetDelta
from repro.engine.kernels import (
    PreparedDataset,
    SentinelDelta,
    _bitset_table_bytes,
    _bounds,
)
from repro.engine.partition import (
    PartitionedDataset,
    ShardSummary,
    _merged_upper_bounds,
    execute_partitioned,
)
from repro.engine.planner import plan_partitioned, plan_repartition
from repro.engine.session import (
    PreparedDatasetCache,
    QueryEngine,
    parse_memory_budget,
)
from repro.engine.store import PersistentStore
from repro.errors import InvalidParameterError

#: A NaN with unusual payload bits: spill files must round-trip the exact
#: sentinel words, so identity must not depend on the canonical NaN.
_PAYLOAD_NAN = np.frombuffer(np.uint64(0x7FF8DEADBEEF0001).tobytes(), dtype=np.float64)[0]


def random_dataset(n, d=4, seed=0, missing=0.3, payload_nan=False):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 6, size=(n, d)).astype(float)
    values[rng.random((n, d)) < missing] = _PAYLOAD_NAN if payload_nan else np.nan
    all_missing = np.isnan(values).all(axis=1)
    values[all_missing, 0] = 1.0
    return IncompleteDataset(values, directions="min")


def fresh_engine(**kwargs):
    return QueryEngine(dataset_cache=PreparedDatasetCache(), **kwargs)


class TestSpilledTables:
    @pytest.mark.parametrize("n", [63, 64, 65, 128])
    def test_spilled_prepared_is_bit_identical(self, tmp_path, n):
        ds = random_dataset(n, seed=n, payload_nan=True)
        prepared = PreparedDataset(ds)
        prepared.warm()
        store = PersistentStore(tmp_path)
        spilled = store.put_shard_tables(ds.fingerprint(), prepared)
        attached = spilled.prepared()
        assert attached.is_memory_mapped
        assert not prepared.is_memory_mapped
        lo, hi = _bounds(ds)
        np.testing.assert_array_equal(
            attached.foreign_dominated_counts(lo, hi),
            prepared.foreign_dominated_counts(lo, hi),
        )

    def test_spilled_tombstoned_prepared_is_bit_identical(self, tmp_path):
        ds = random_dataset(96, seed=3, payload_nan=True)
        prepared = PreparedDataset(ds)
        prepared.warm()
        victims = [ds.ids[r] for r in (5, 17, 40, 95)]
        delta = DatasetDelta.deleting(ds, victims)
        patched = prepared.patched(SentinelDelta.from_delta(delta, ds.directions))
        child = ds.apply_delta(delta)
        store = PersistentStore(tmp_path)
        spilled = store.put_shard_tables("tombstoned", patched)
        attached = spilled.prepared()
        assert attached.is_memory_mapped
        lo, hi = _bounds(child)
        np.testing.assert_array_equal(
            attached.foreign_dominated_counts(lo, hi),
            patched.foreign_dominated_counts(lo, hi),
        )

    def test_get_shard_tables_misses_are_none(self, tmp_path):
        store = PersistentStore(tmp_path)
        assert store.get_shard_tables("absent") is None


class TestResidentSetManager:
    def _spill_three(self, tmp_path):
        store = PersistentStore(tmp_path)
        shards = [random_dataset(50, seed=s) for s in (1, 2, 3)]
        for i, ds in enumerate(shards):
            prepared = PreparedDataset(ds)
            prepared.warm()
            store.put_shard_tables(f"shard-{i}", prepared)
        return store, shards

    def test_eviction_and_reattach_round_trip(self, tmp_path):
        store, shards = self._spill_three(tmp_path)
        cache = PreparedDatasetCache()
        one_size = store.get_shard_tables("shard-0").nbytes

        def loader(i):
            spilled = store.get_shard_tables(f"shard-{i}")
            return lambda: (spilled.prepared(), spilled.nbytes)

        # Budget for one attachment: each new attach evicts the previous.
        for i in range(3):
            cache.attach_spilled(f"shard-{i}", loader(i), max_resident_bytes=one_size)
        assert cache.resident_misses == 3
        assert cache.resident_evictions == 2
        assert cache.resident_bytes == one_size
        # Re-attach of the survivor is a hit; of an evictee, a miss —
        # and the re-attached copy still answers identically.
        cache.attach_spilled("shard-2", loader(2), max_resident_bytes=one_size)
        assert cache.resident_hits == 1
        back = cache.attach_spilled("shard-0", loader(0), max_resident_bytes=one_size)
        assert cache.resident_misses == 4
        lo, hi = _bounds(shards[0])
        np.testing.assert_array_equal(
            back.foreign_dominated_counts(lo, hi),
            PreparedDataset(shards[0]).foreign_dominated_counts(lo, hi),
        )

    def test_drop_spilled_releases_everything(self, tmp_path):
        store, _ = self._spill_three(tmp_path)
        cache = PreparedDatasetCache()
        for i in range(3):
            spilled = store.get_shard_tables(f"shard-{i}")
            cache.attach_spilled(
                f"shard-{i}",
                lambda s=spilled: (s.prepared(), s.nbytes),
                max_resident_bytes=1 << 30,
            )
        assert cache.resident_bytes > 0
        cache.drop_spilled()
        assert cache.resident_bytes == 0

    def test_hit_rate_property(self, tmp_path):
        store, _ = self._spill_three(tmp_path)
        cache = PreparedDatasetCache()
        spilled = store.get_shard_tables("shard-0")
        for _ in range(4):
            cache.attach_spilled(
                "shard-0",
                lambda: (spilled.prepared(), spilled.nbytes),
                max_resident_bytes=1 << 30,
            )
        assert cache.resident_hit_rate == pytest.approx(0.75)


class TestEngineOutOfCore:
    def test_spilled_query_matches_monolithic(self, tmp_path):
        ds = random_dataset(500, seed=7, payload_nan=True)
        mono = fresh_engine().query(ds, 10)
        budget = PartitionedDataset(ds, 8).table_bytes() // 8
        engine = fresh_engine(store=tmp_path, memory_budget=budget)
        result = engine.query(ds, 10, partitions=8)
        assert result.stats.extra["spill"] is True
        assert result.ids == mono.ids
        np.testing.assert_array_equal(result.scores, mono.scores)
        assert engine.stats.spilled_queries == 1
        assert engine.dataset_cache.resident_misses > 0
        assert "out-of-core" in engine.stats.summary()
        # A fresh engine over the same store re-attaches the existing
        # spill files instead of rebuilding the shard tables (k differs
        # so the store's persistent *result* cache cannot short-circuit).
        spill_files = sorted(p.name for p in tmp_path.glob("shard-*.bin"))
        mono12 = fresh_engine().query(ds, 12)
        engine2 = fresh_engine(store=tmp_path, memory_budget=budget)
        again = engine2.query(ds, 12, partitions=8)
        assert again.ids == mono12.ids
        assert engine2.stats.spilled_queries == 1
        assert sorted(p.name for p in tmp_path.glob("shard-*.bin")) == spill_files

    def test_storeless_engine_spills_to_ephemeral_dir(self):
        ds = random_dataset(400, seed=8)
        mono = fresh_engine().query(ds, 10)
        engine = fresh_engine(memory_budget=PartitionedDataset(ds, 6).table_bytes() // 8)
        result = engine.query(ds, 10, partitions=6)
        assert result.stats.extra["spill"] is True
        assert result.ids == mono.ids
        spill_dir = engine._ephemeral_spill.directory
        assert spill_dir.exists()
        cleanup = engine._ephemeral_spill_cleanup
        del engine, result
        import gc

        gc.collect()
        assert not cleanup.alive
        assert not spill_dir.exists()

    def test_env_budget_is_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "64K")
        engine = fresh_engine()
        assert engine.memory_budget == 64 * 1024
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "not-a-size")
        with pytest.raises(InvalidParameterError):
            fresh_engine()

    def test_auto_partitions_forced_by_budget(self):
        ds = random_dataset(600, seed=9)
        budget = _bitset_table_bytes(ds.n, ds.d) // 6
        plan = plan_partitioned(ds.n, ds.d, ds.missing_rate, 10, memory_budget=budget)
        assert plan.action == "partition"
        assert plan.partitions > 1
        mono = fresh_engine().query(ds, 10)
        engine = fresh_engine(memory_budget=budget)
        result = engine.query(ds, 10, partitions="auto")
        assert result.stats.extra["partitions"] == plan.partitions
        assert result.ids == mono.ids

    def test_repartition_restores_balance_bit_identically(self, tmp_path):
        ds = random_dataset(120, seed=10)
        engine = fresh_engine()
        engine.query(ds, 10, partitions=4)
        # One skewed burst: a 60-row insert delta lands on a single shard
        # (30 rows/shard before, 90 after → imbalance 2.0 > 1.5).
        rng = np.random.default_rng(11)
        delta = DatasetDelta.inserting(ds, rng.integers(0, 6, size=(60, 4)).astype(float))
        child = engine.apply_delta(ds, delta)
        view = engine._partitioned.get(child.fingerprint())
        assert view is not None and view.imbalance > 1.5
        assert engine.stats.partition_imbalance > 1.5
        assert plan_repartition(view.sizes, ds.d).action == "rebalance"
        result = engine.query(child, 10, partitions=4)
        assert engine.stats.repartitions == 1
        assert engine.stats.partition_imbalance < 1.5
        rebalanced = engine._partitioned.get(child.fingerprint())
        assert rebalanced.imbalance < 1.5
        rebalanced.validate()
        cold = fresh_engine().query(child, 10)
        assert result.ids == cold.ids
        np.testing.assert_array_equal(result.scores, cold.scores)

    def test_rebalance_view_answers_identically_before_and_after(self):
        ds = random_dataset(150, seed=12, payload_nan=True)
        view = PartitionedDataset(ds, 5)
        delta = DatasetDelta.inserting(ds, np.full((50, 4), 2.0))
        child = ds.apply_delta(delta)
        skewed, _ = view.apply_delta(delta, child=child)
        assert skewed.imbalance > 1.5
        before = execute_partitioned(skewed, 10)
        balanced, advanced = skewed.rebalance()
        balanced.validate()
        assert balanced.imbalance < 1.2
        assert advanced  # rows actually moved
        after = execute_partitioned(balanced, 10)
        assert after.ids == before.ids
        np.testing.assert_array_equal(after.scores, before.scores)


class TestFlatMerge:
    def test_flat_merge_at_many_shards_stays_exact(self):
        from repro.core.naive import naive_tkd

        ds = random_dataset(400, seed=13, payload_nan=True)
        want = naive_tkd(ds, 10)
        for partitions in (8, 24):
            result = execute_partitioned(PartitionedDataset(ds, partitions), 10)
            assert result.stats.extra["merge_groups"] == 0
            assert result.ids == want.ids
            np.testing.assert_array_equal(result.scores, want.scores)

    def test_flat_bounds_dominate_true_scores(self):
        ds = random_dataset(300, seed=14, missing=0.5)
        view = PartitionedDataset(ds, 20)
        lo, hi = _bounds(ds)
        summaries = [ShardSummary.build(s.dataset) for s in view.shards]
        from repro.engine.kernels import dominated_counts

        lower = np.concatenate(
            [dominated_counts(s.dataset).astype(np.int64) for s in view.shards]
        )
        exact = dominated_counts(ds).astype(np.int64)
        upper, _ = _merged_upper_bounds(view.shards, summaries, lower, lo, hi)
        assert (upper >= exact).all()
        assert (upper >= lower).all()

    def test_grid_sketch_is_sound_and_tightens(self):
        ds = random_dataset(256, seed=15, missing=0.4)
        lo, hi = _bounds(ds)
        summary = ShardSummary.build(ds)
        assert summary.grids  # d=4 → two dimension-pair grids
        prepared = PreparedDataset(ds)
        exact = prepared.foreign_dominated_counts(lo, hi)
        assert (summary.upper_bound_counts(lo) >= exact).all()
        assert (summary.upper_bound_counts(lo, hi) >= exact).all()
        # The grids can only lower the per-dimension bound.
        bare = ShardSummary(
            summary.count, summary.values, summary.lo_values, summary.ranks
        )
        assert (summary.upper_bound_counts(lo) <= bare.upper_bound_counts(lo)).all()


class TestStoreSpillLifecycle:
    def _put(self, store, key, n=60, seed=0):
        ds = random_dataset(n, seed=seed)
        prepared = PreparedDataset(ds)
        prepared.warm()
        return store.put_shard_tables(key, prepared)

    def test_budget_eviction_counts_spilled_files(self, tmp_path):
        first = self._put(PersistentStore(tmp_path), "a", seed=1)
        store = PersistentStore(tmp_path, max_shard_bytes=first.nbytes + 1)
        self._put(store, "b", seed=2)
        self._put(store, "c", seed=3)
        assert store.stats.evicted_shard_files >= 1
        assert "spilled shard files dropped" in store.stats.summary()
        kept = [e for e in store.shard_entries() if store.get_shard_tables(e["fingerprint"])]
        assert kept  # the budget never evicts the just-written entry

    def test_compact_sweeps_orphans_and_dangling_rows(self, tmp_path):
        store = PersistentStore(tmp_path)
        spilled = self._put(store, "live", seed=4)
        orphan = tmp_path / "shard-deadbeef.bin"
        orphan.write_bytes(b"\0" * 64)
        # Dangling index row: delete the file behind a second entry.
        doomed = self._put(store, "doomed", seed=5)
        os.unlink(doomed.path)
        summary = store.compact()
        assert not orphan.exists()
        assert summary["evicted_shard_files"] >= 1
        assert store.get_shard_tables("live") is not None
        assert store.get_shard_tables("doomed") is None

    def test_clear_removes_spill_files(self, tmp_path):
        store = PersistentStore(tmp_path)
        self._put(store, "gone", seed=6)
        store.clear()
        assert store.get_shard_tables("gone") is None
        assert not list(tmp_path.glob("shard-*.bin"))


class TestParseMemoryBudget:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (None, None),
            (1024, 1024),
            ("4096", 4096),
            ("64K", 64 * 1024),
            ("2M", 2 * 1024**2),
            ("1.5G", int(1.5 * 1024**3)),
            ("1T", 1024**4),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize("bad", ["", "lots", "-5", "0", True, -1, 0])
    def test_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_memory_budget(bad)


class TestCliMemoryBudget:
    def test_query_with_memory_budget_flag(self, tmp_path):
        ds = random_dataset(80, seed=16)
        csv = tmp_path / "data.csv"
        header = ",".join(f"a{j}" for j in range(ds.d))
        rows = [
            ",".join("" if np.isnan(v) else f"{v:g}" for v in row) for row in ds.values
        ]
        csv.write_text(header + "\n" + "\n".join(rows) + "\n")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "query",
                str(csv),
                "--k",
                "5",
                "--partitions",
                "4",
                "--memory-budget",
                "64K",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stderr
        assert "partitions=4" in proc.stdout

    def test_bad_budget_is_a_usage_error(self, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("a0,a1\n1,2\n3,4\n")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "query",
                str(csv),
                "--k",
                "1",
                "--partitions",
                "2",
                "--memory-budget",
                "banana",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd="/root/repo",
        )
        assert proc.returncode == 2
        assert "memory" in proc.stderr.lower() or "budget" in proc.stderr.lower()

    def test_budget_without_partitions_is_a_usage_error(self, tmp_path):
        # Without --partitions the budget would be silently inert (the
        # monolithic routes never consult it) — reject it up front, even
        # when the value itself would not parse.
        csv = tmp_path / "data.csv"
        csv.write_text("a0,a1\n1,2\n3,4\n")
        for value in ("64K", "banana"):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "query",
                    str(csv),
                    "--k",
                    "1",
                    "--memory-budget",
                    value,
                ],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": "src"},
                cwd="/root/repo",
            )
            assert proc.returncode == 2
            assert "--partitions" in proc.stderr
