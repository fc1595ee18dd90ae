"""Tests for the partitioned execution subsystem.

The load-bearing property is *merge exactness*: the two-phase protocol
(local scores + summary upper bounds, then a candidate-only exchange)
must answer bit-identically to the monolithic engine for every partition
count, at word-boundary sizes, under NaN payload variety, and across
delta sequences routed to the owning shards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.delta import DatasetDelta
from repro.core.naive import naive_tkd
from repro.core.score import score_all
from repro.engine.kernels import PreparedDataset, _bounds
from repro.engine import partition, telemetry
from repro.engine.partition import (
    PartitionedDataset,
    ShardSummary,
    _merged_upper_bounds,
    _Probes,
    _refine_in_parent,
    execute_partitioned,
)
from repro.engine.planner import (
    estimate_partition_costs,
    estimate_survival,
    plan_partitioned,
)
from repro.engine.session import PreparedDatasetCache, QueryEngine
from repro.errors import InvalidParameterError

#: A NaN with unusual payload bits: partition identity and parity must not
#: depend on which NaN a missing cell happens to carry.
_PAYLOAD_NAN = np.frombuffer(np.uint64(0x7FF8DEADBEEF0001).tobytes(), dtype=np.float64)[0]


def random_dataset(n, d=4, seed=0, missing=0.3, directions="min", payload_nan=False):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 6, size=(n, d)).astype(float)
    values[rng.random((n, d)) < missing] = _PAYLOAD_NAN if payload_nan else np.nan
    all_missing = np.isnan(values).all(axis=1)
    values[all_missing, 0] = 1.0
    return IncompleteDataset(values, directions=directions)


def fresh_engine(**kwargs):
    return QueryEngine(dataset_cache=PreparedDatasetCache(), **kwargs)


class TestPartitionedDataset:
    def test_contiguous_shards_cover_the_dataset(self):
        ds = random_dataset(65, seed=1)
        view = PartitionedDataset(ds, 3)
        assert view.partitions == 3
        assert sum(view.sizes) == 65
        assert view.shards[0].start == 0
        assert view.shards[-1].stop == 65
        view.validate()

    def test_partitions_clamped_to_n(self):
        ds = random_dataset(5, seed=2)
        view = PartitionedDataset(ds, 12)
        assert view.partitions == 5
        assert view.sizes == (1, 1, 1, 1, 1)

    def test_invalid_partitions_rejected(self):
        ds = random_dataset(10, seed=3)
        with pytest.raises(InvalidParameterError):
            PartitionedDataset(ds, 0)
        with pytest.raises(InvalidParameterError):
            PartitionedDataset(ds, True)

    def test_shards_have_their_own_fingerprints(self):
        ds = random_dataset(64, seed=4)
        view = PartitionedDataset(ds, 2)
        fps = {shard.fingerprint() for shard in view.shards}
        assert len(fps) == 2
        assert ds.fingerprint() not in fps

    def test_delta_routes_to_owning_shard_only(self):
        ds = random_dataset(90, seed=5)
        view = PartitionedDataset(ds, 3)
        # Update a row owned by the middle shard: only it advances.
        target_row = view.shards[1].start + 2
        delta = DatasetDelta.updating(ds, {ds.ids[target_row]: {0: 5.0}})
        child_view, advanced = view.apply_delta(delta)
        assert len(advanced) == 1
        assert advanced[0][0] is view.shards[1].dataset
        assert child_view.shards[0].dataset is view.shards[0].dataset
        assert child_view.shards[2].dataset is view.shards[2].dataset
        child_view.validate()

    def test_inserts_route_to_the_least_loaded_shard(self):
        ds = random_dataset(30, seed=6)
        view = PartitionedDataset(ds, 3)
        delta = DatasetDelta.inserting(ds, [[1, 2, 3, 4], [4, 3, 2, 1]])
        child_view, advanced = view.apply_delta(delta)
        # Equal sizes: the tie breaks to the lowest shard index.
        assert len(advanced) == 1
        assert advanced[0][0] is view.shards[0].dataset
        assert child_view.sizes == (12, 10, 10)
        child_view.validate()
        # The next insert lands on whichever shard is now smallest.
        second = DatasetDelta.inserting(child_view.dataset, [[2, 2, 2, 2]])
        grandchild, advanced2 = child_view.apply_delta(second)
        assert advanced2[0][0] is child_view.shards[1].dataset
        assert grandchild.sizes == (12, 11, 10)
        grandchild.validate()

    def test_emptied_shard_is_dropped(self):
        ds = random_dataset(9, seed=7)
        view = PartitionedDataset(ds, 3)
        victims = [ds.ids[r] for r in range(view.shards[1].start, view.shards[1].stop)]
        child_view, advanced = view.apply_delta(DatasetDelta.deleting(ds, victims))
        assert child_view.partitions == 2
        dropped = [entry for entry in advanced if entry[2] is None]
        assert len(dropped) == 1
        child_view.validate()

    def test_imbalance_signal_grows_with_routed_inserts(self):
        ds = random_dataset(40, seed=8)
        view = PartitionedDataset(ds, 4)
        assert view.imbalance == pytest.approx(1.0)
        delta = DatasetDelta.inserting(ds, [[1, 1, 1, 1]] * 20)
        child_view, _ = view.apply_delta(delta)
        assert child_view.imbalance > 1.5


class TestShardSummary:
    def test_upper_bound_is_sound_for_every_foreign_object(self):
        ds = random_dataset(128, seed=9, missing=0.4)
        view = PartitionedDataset(ds, 4)
        lo, hi = _bounds(ds)
        for shard in view.shards:
            summary = ShardSummary.build(shard.dataset)
            prepared = PreparedDataset(shard.dataset)
            exact = prepared.foreign_dominated_counts(lo, hi)
            assert (summary.upper_bound_counts(lo) >= exact).all()
            assert (summary.upper_bound_counts(lo, hi) >= exact).all()

    def test_small_shard_summary_is_exact_per_dimension(self):
        ds = random_dataset(50, seed=10)
        summary = ShardSummary.build(ds, bins=128)  # 50 <= bins: full sample
        _, hi = _bounds(ds)
        probes = np.unique(hi[np.isfinite(hi)])
        for dim in range(ds.d):
            col = np.sort(hi[:, dim])
            for v in probes:
                probe = np.full((1, ds.d), -np.inf)
                probe[0, dim] = v
                exact = int((col >= v).sum())
                assert int(summary.upper_bound_counts(probe)[0]) == exact

    def test_coarse_bins_stay_sound(self):
        ds = random_dataset(300, seed=11, missing=0.5)
        lo, hi = _bounds(ds)
        fine = ShardSummary.build(ds, bins=1024).upper_bound_counts(lo, hi)
        coarse = ShardSummary.build(ds, bins=8).upper_bound_counts(lo, hi)
        prepared = PreparedDataset(ds)
        exact = prepared.foreign_dominated_counts(lo, hi)
        assert (fine >= exact).all()
        assert (coarse >= fine).all()  # coarser sampling can only loosen

    def test_strict_union_bound_bites_at_high_missingness(self):
        # At σ = 0.8 the per-dimension necessity counts are ≥ 0.8·m for
        # every probe (missing members always pass the ≤ test), so the
        # strict-witness union is what keeps the bound informative.
        ds = random_dataset(200, seed=27, missing=0.8)
        lo, hi = _bounds(ds)
        summary = ShardSummary.build(ds)
        necessity_only = summary.upper_bound_counts(lo)
        combined = summary.upper_bound_counts(lo, hi)
        assert combined.sum() < necessity_only.sum()


def _per_probe_upper_bounds(summary, probe_lo, probe_hi=None):
    """Reference: the per-probe-row search the distinct-value index replaced."""
    b = probe_lo.shape[0]
    ranks = summary.ranks
    out = np.full(b, summary.count, dtype=np.int64)
    for dim, values in enumerate(summary.values):
        j = np.searchsorted(values, probe_lo[:, dim], side="left")
        clamped = np.maximum(j - 1, 0)
        bound = np.where(j > 0, summary.count - ranks[clamped] - 1, summary.count)
        np.minimum(out, bound, out=out)
    for dim_a, dim_b, edges_a, edges_b, cells in summary.grids:
        ia = np.searchsorted(edges_a, probe_lo[:, dim_a], side="left")
        ib = np.searchsorted(edges_b, probe_lo[:, dim_b], side="left")
        np.minimum(out, cells[ia, ib], out=out)
    if probe_hi is None:
        return out
    union = np.zeros(b, dtype=np.int64)
    for dim, values in enumerate(summary.lo_values):
        j = np.searchsorted(values, probe_hi[:, dim], side="right")
        clamped = np.maximum(j - 1, 0)
        union += np.where(j > 0, summary.count - ranks[clamped] - 1, summary.count)
    return np.minimum(out, union)


def _per_probe_merge(shards, summaries, lower, lo, hi):
    """Reference flat merge built from :func:`_per_probe_upper_bounds`."""
    upper = lower.copy()
    for shard, summary in zip(shards, summaries):
        ub = _per_probe_upper_bounds(summary, lo, hi)
        upper += ub
        upper[shard.start : shard.stop] -= ub[shard.start : shard.stop]
    return upper


def _random_values(n, d, *, missing, continuous, seed):
    """Integer-domain (101 distinct values) or continuous data with NaN holes."""
    rng = np.random.default_rng(seed)
    values = rng.random((n, d)) if continuous else rng.integers(0, 101, (n, d)).astype(float)
    values[rng.random((n, d)) < missing] = np.nan
    return values


def _sentinels(values):
    observed = ~np.isnan(values)
    return np.where(observed, values, -np.inf), np.where(observed, values, np.inf)


class TestProbeIndexBitIdentity:
    """The distinct-value probe index answers exactly what the per-row
    search answered: same bounds, bit for bit, on every summary shape."""

    @pytest.mark.parametrize("continuous", [False, True])
    @pytest.mark.parametrize("missing", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("dead_column", [False, True])
    @pytest.mark.parametrize("bins", [8, 512])  # sampled (< m) and exact (≥ m)
    def test_matches_per_probe_search(self, continuous, missing, dead_column, bins):
        seed = int(continuous) * 100 + int(missing * 10) + 7 * int(dead_column) + bins
        members = _random_values(300, 5, missing=missing, continuous=continuous, seed=seed)
        probe_values = _random_values(400, 5, missing=missing, continuous=continuous, seed=seed + 1)
        if dead_column:  # an all-missing column: only ±inf sentinels
            members[:, 1] = probe_values[:, 1] = np.nan
        lo, hi = _sentinels(members)
        summary = ShardSummary.from_bounds(lo[:200], hi[:200], bins=bins)
        probe_lo, probe_hi = _sentinels(probe_values)
        probe_lo[:100], probe_hi[:100] = lo[:100], hi[:100]  # values the summary saw
        for ph in (None, probe_hi):
            want = _per_probe_upper_bounds(summary, probe_lo, ph)
            assert np.array_equal(summary.upper_bound_counts(probe_lo, ph), want)
            probes = _Probes(probe_lo, ph)
            assert np.array_equal(summary.upper_bound_counts(probes), want)
            rows = np.random.default_rng(seed).choice(400, 57, replace=False)
            sub = probe_lo[rows], None if ph is None else ph[rows]
            assert np.array_equal(
                summary.upper_bound_counts(_Probes(*sub)),
                _per_probe_upper_bounds(summary, *sub),
            )
            none = probe_lo[:0], None if ph is None else ph[:0]
            empty = summary.upper_bound_counts(_Probes(*none))
            assert empty.shape == (0,) and empty.dtype == np.int64

    def test_index_is_compact(self):
        lo, hi = _sentinels(_random_values(1000, 4, missing=0.3, continuous=False, seed=3))
        probes = _Probes(lo, hi)
        assert all(inverse.dtype == np.uint8 for _, inverse in probes.lo + probes.hi)
        assert probes.distinct == sum(np.unique(col).size for col in np.hstack([lo, hi]).T)

    @pytest.mark.parametrize("partitions", [8, 20, 32])
    @pytest.mark.parametrize("continuous", [False, True])
    def test_merge_matches_per_probe_merge(self, partitions, continuous):
        from repro.engine.kernels import dominated_counts

        values = _random_values(640, 4, missing=0.3, continuous=continuous, seed=partitions)
        values[np.isnan(values).all(axis=1), 0] = 0.5
        ds = IncompleteDataset(values)
        view = PartitionedDataset(ds, partitions)
        lo, hi = _bounds(ds)
        summaries = [ShardSummary.build(s.dataset) for s in view.shards]
        lower = np.concatenate(
            [dominated_counts(s.dataset).astype(np.int64) for s in view.shards]
        )
        upper, distinct = _merged_upper_bounds(view.shards, summaries, lower, lo, hi)
        assert np.array_equal(upper, _per_probe_merge(view.shards, summaries, lower, lo, hi))
        assert (upper >= dominated_counts(ds)).all()
        assert distinct == _Probes(lo, hi).distinct


def _broadcast_refine(view, rows, lo, hi, total):
    """Reference: the ``(head, m, d)`` broadcast the per-dimension fold replaced."""
    for shard in view.shards:
        foreign = rows[(rows < shard.start) | (rows >= shard.stop)]
        if not foreign.size:
            continue
        member_lo = lo[shard.start : shard.stop]
        member_hi = hi[shard.start : shard.stop]
        le_all = np.all(lo[foreign][:, None, :] <= member_hi[None, :, :], axis=2)
        lt_any = np.any(hi[foreign][:, None, :] < member_lo[None, :, :], axis=2)
        total[foreign] += (le_all & lt_any).sum(axis=1)


class TestRefineBitIdentity:
    @pytest.mark.parametrize("d", [1, 4, 7])
    @pytest.mark.parametrize("partitions", [1, 5])
    def test_matches_broadcast(self, d, partitions):
        ds = random_dataset(150, d=d, seed=40 + d, missing=0.35)
        view = PartitionedDataset(ds, partitions)
        lo, hi = _bounds(ds)
        # A head with rows in every shard: each shard's first row plus a spread.
        rows = np.unique(
            np.concatenate([[s.start for s in view.shards], np.arange(3, 150, 11)])
        ).astype(np.intp)
        base = np.arange(150, dtype=np.int64)
        want, got = base.copy(), base.copy()
        _broadcast_refine(view, rows, lo, hi, want)
        _refine_in_parent(view, rows, lo, hi, got)
        assert np.array_equal(got, want)
        if partitions > 1:
            assert not np.array_equal(got, base)  # foreign work actually happened


class TestQueryTiming:
    def test_query_seconds_covers_merge_and_select(self, monkeypatch):
        import time

        real = partition._merged_upper_bounds

        def slow_merge(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(partition, "_merged_upper_bounds", slow_merge)
        result = execute_partitioned(PartitionedDataset(random_dataset(96, seed=41), 3), 5)
        extra = result.stats.extra
        assert result.stats.query_seconds >= (
            0.05 + extra["phase1_seconds"] + extra["phase2_seconds"]
        )


class TestMergeSpan:
    @pytest.fixture(autouse=True)
    def _traced(self):
        was = telemetry.enabled()
        telemetry.set_enabled(True)
        telemetry.reset()
        yield
        telemetry.set_enabled(was)
        telemetry.reset()

    @pytest.mark.parametrize("partitions", [4, 20])
    def test_merge_span_reports_survivors_and_distinct_probes(self, partitions):
        ds = random_dataset(400, seed=42, missing=0.3)
        execute_partitioned(PartitionedDataset(ds, partitions), 5)
        (merge,) = [s for s in telemetry.collected_spans() if s["name"] == "partition.merge"]
        attrs = merge["attrs"]
        assert 0 < attrs["candidates"] <= ds.n
        lo, hi = _bounds(ds)
        assert attrs["distinct_probes"] == _Probes(lo, hi).distinct


class TestForeignCounts:
    def _brute(self, probe_lo, probe_hi, lo, hi):
        le_all = np.all(probe_lo[:, None, :] <= hi[None, :, :], axis=2)
        lt_any = np.any(probe_hi[:, None, :] < lo[None, :, :], axis=2)
        return (le_all & lt_any).sum(axis=1)

    @pytest.mark.parametrize("n", [63, 64, 65, 128])
    def test_both_routes_match_brute_force(self, n):
        members = random_dataset(n, seed=n, missing=0.35)
        probes = random_dataset(40, seed=n + 1, missing=0.35)
        probe_lo, probe_hi = _bounds(probes)
        lo, hi = _bounds(members)
        want = self._brute(probe_lo, probe_hi, lo, hi)

        broadcast = PreparedDataset(members)
        assert np.array_equal(broadcast.foreign_dominated_counts(probe_lo, probe_hi), want)

        packed = PreparedDataset(members)
        packed.tables(build=True)
        assert np.array_equal(packed.foreign_dominated_counts(probe_lo, probe_hi), want)

    def test_tombstoned_members_never_counted(self):
        ds = random_dataset(80, seed=12)
        engine = fresh_engine()
        engine.prepare_dataset(ds).tables(build=True)
        child = engine.delete(ds, [ds.ids[7], ds.ids[40]])
        prepared = engine.dataset_cache.peek(child.fingerprint())
        assert prepared is not None and prepared.tombstones == 2
        probes = random_dataset(20, seed=13)
        probe_lo, probe_hi = _bounds(probes)
        lo, hi = _bounds(child)
        want = self._brute(probe_lo, probe_hi, lo, hi)
        assert np.array_equal(prepared.foreign_dominated_counts(probe_lo, probe_hi), want)

    def test_shape_validation(self):
        prepared = PreparedDataset(random_dataset(10, seed=14))
        with pytest.raises(InvalidParameterError):
            prepared.foreign_dominated_counts(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(InvalidParameterError):
            prepared.foreign_dominated_counts(np.zeros((3, 4)), np.zeros((2, 4)))
        assert prepared.foreign_dominated_counts(np.zeros((0, 4)), np.zeros((0, 4))).size == 0


class TestMergeExactness:
    """The acceptance sweep: bit-identical to monolithic, everywhere."""

    @pytest.mark.parametrize("n", [63, 64, 65, 128])
    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_bit_identical_across_p_n_k(self, n, partitions):
        ds = random_dataset(n, seed=n * 31 + partitions, missing=0.3)
        engine = fresh_engine()
        for k in (1, 4, n // 2, n):
            got = engine.query(ds, k, partitions=partitions)
            want = naive_tkd(ds, k)
            assert got.indices == want.indices
            assert got.scores == want.scores

    def test_nan_payloads_do_not_affect_answers_or_identity(self):
        plain = random_dataset(64, seed=15, missing=0.4)
        weird = random_dataset(64, seed=15, missing=0.4, payload_nan=True)
        assert plain.fingerprint() == weird.fingerprint()
        engine = fresh_engine()
        got = engine.query(weird, 6, partitions=3)
        want = naive_tkd(plain, 6)
        assert got.indices == want.indices and got.scores == want.scores

    def test_max_directions_and_heavy_missingness(self):
        ds = random_dataset(100, seed=16, missing=0.7, directions="max")
        engine = fresh_engine()
        got = engine.query(ds, 9, partitions=4)
        want = naive_tkd(ds, 9)
        assert got.indices == want.indices and got.scores == want.scores

    def test_survival_and_protocol_stats_reported(self):
        ds = random_dataset(128, seed=17)
        engine = fresh_engine()
        result = engine.query(ds, 5, partitions=4)
        extra = result.stats.extra
        assert extra["partitions"] == 4
        assert 0.0 < extra["survival"] <= 1.0
        assert result.stats.candidates == round(extra["survival"] * 128)
        assert extra["tau"] >= 0
        assert result.stats.index_bytes > 0
        assert engine.stats.partitioned_queries == 1

    @pytest.mark.parametrize("partitions", [2, 3, 7])
    def test_delta_sequences_routed_to_shards_stay_exact(self, partitions):
        rng = np.random.default_rng(partitions)
        ds = random_dataset(65, seed=18, missing=0.3)
        engine = fresh_engine()
        assert engine.query(ds, 7, partitions=partitions).scores == naive_tkd(ds, 7).scores
        current = ds
        for step in range(8):
            kind = step % 3
            if kind == 0:
                rows = rng.integers(0, 6, size=(2, 4)).astype(float)
                rows[0, int(rng.integers(0, 4))] = np.nan
                current = engine.insert(current, rows)
            elif kind == 1:
                current = engine.delete(current, [current.ids[int(rng.integers(0, current.n))]])
            else:
                target = current.ids[int(rng.integers(0, current.n))]
                current = engine.update(current, {target: {int(rng.integers(0, 4)): 5.0}})
            got = engine.query(current, 7, partitions=partitions)
            want = naive_tkd(current, 7)
            assert got.indices == want.indices, f"step {step}"
            assert got.scores == want.scores, f"step {step}"
        # The view advanced by routing, not rebuilding: deltas touched at
        # most a couple of shards each, so some patches must have landed.
        assert engine.stats.deltas_applied == 8

    def test_view_is_advanced_not_rebuilt_for_single_shard_updates(self):
        ds = random_dataset(90, seed=19)
        engine = fresh_engine()
        engine.query(ds, 5, partitions=3)
        with engine._lock:
            view = engine._partitioned.get(ds.fingerprint())
        untouched_before = [shard.dataset for shard in view.shards]
        child = engine.update(ds, {ds.ids[0]: {0: 4.0}})
        with engine._lock:
            child_view = engine._partitioned.get(child.fingerprint())
        assert child_view is not None
        # Shards 1 and 2 kept their dataset objects (and cache entries).
        assert child_view.shards[1].dataset is untouched_before[1]
        assert child_view.shards[2].dataset is untouched_before[2]
        got = engine.query(child, 5, partitions=3)
        want = naive_tkd(child, 5)
        assert got.indices == want.indices and got.scores == want.scores

    def test_random_tie_break_returns_valid_multiset(self):
        ds = random_dataset(64, seed=20)
        engine = fresh_engine()
        got = engine.query(ds, 6, partitions=3, tie_break="random", rng=0)
        want = naive_tkd(ds, 6)
        assert got.score_multiset == want.score_multiset

    def test_result_cache_serves_repeat_partitioned_queries(self):
        ds = random_dataset(70, seed=21)
        engine = fresh_engine()
        first = engine.query(ds, 5, partitions=2)
        second = engine.query(ds, 5, partitions=2)
        assert second is first
        assert engine.stats.result_hits == 1


class TestWindowedExchange:
    """Phase-2 survivor exchange streams in fixed-size windows: per-exchange
    bytes stay capped however many candidates survive, and window size can
    never change an answer (integer adds into disjoint positions commute)."""

    # Low missingness + small k keeps the survivor set under the
    # τ-refinement head, so the survivors actually travel through the
    # exchanger (the refined head is scored in-parent instead).
    WORKLOAD = dict(n=128, seed=25, missing=0.1)

    def test_default_cap_reports_window_count(self):
        ds = random_dataset(**self.WORKLOAD)
        result = fresh_engine().query(ds, 2, partitions=3)
        # survivors fit one 8MB window; single-shard runs exchange nothing
        assert result.stats.extra["exchange_windows"] == 1
        single = fresh_engine().query(ds, 2, partitions=1)
        assert single.stats.extra.get("exchange_windows", 0) == 0

    def test_tiny_window_is_bit_identical_and_counted(self, monkeypatch):
        from repro.engine import partition as partition_module

        ds = random_dataset(**self.WORKLOAD)
        want = fresh_engine().query(ds, 2, partitions=3)
        # 128-byte cap -> 2 survivor rows per window (2 * 8B * d=4 each)
        monkeypatch.setattr(partition_module, "_EXCHANGE_WINDOW_BYTES", 128)
        got = fresh_engine().query(ds, 2, partitions=3)
        assert got.indices == want.indices
        assert got.scores == want.scores
        assert got.stats.extra["exchange_windows"] >= 2
        assert got.stats.extra["exchange_windows"] > want.stats.extra["exchange_windows"]
        reference = naive_tkd(ds, 2)
        assert got.indices == reference.indices

    def test_tiny_window_pooled_path_identical(self, monkeypatch):
        from repro.engine import partition as partition_module

        ds = random_dataset(**self.WORKLOAD)
        want = naive_tkd(ds, 2)
        monkeypatch.setattr(partition_module, "_EXCHANGE_WINDOW_BYTES", 128)
        got = fresh_engine().query(ds, 2, partitions=3, workers=2)
        assert got.indices == want.indices and got.scores == want.scores
        assert got.stats.extra["exchange_windows"] >= 2


class TestWorkersAndAuto:
    def test_workers_pool_is_bit_identical(self):
        ds = random_dataset(300, seed=22, missing=0.25)
        engine = fresh_engine()
        got = engine.query(ds, 8, partitions=3, workers=2)
        want = naive_tkd(ds, 8)
        assert got.indices == want.indices and got.scores == want.scores

    def test_cold_query_builds_each_shard_once_in_process(self):
        """``workers=N`` spawns nothing: phase 1 builds every shard's
        tables in the caller, and phase 2 reuses them."""
        import multiprocessing
        import os

        from repro.engine import session as session_module

        session_module.shutdown_pool()
        ds = random_dataset(2400, seed=27, missing=0.3)  # 600-row shards build tables
        was = telemetry.enabled()
        telemetry.set_enabled(True)
        telemetry.reset()
        try:
            got = fresh_engine().query(ds, 10, partitions=4, workers=2)
            spans = telemetry.collected_spans()
        finally:
            telemetry.set_enabled(was)
            telemetry.reset()
        want = naive_tkd(ds, 10)
        assert got.indices == want.indices and got.scores == want.scores
        assert multiprocessing.active_children() == []
        assert session_module._pool is None
        builds = [s for s in spans if s["name"] == "kernel.build_tables"]
        assert len(builds) == 4
        assert {s["pid"] for s in builds} == {os.getpid()}

    def test_workers_without_partitions_rejected(self):
        ds = random_dataset(20, seed=23)
        with pytest.raises(InvalidParameterError):
            fresh_engine().query(ds, 3, workers=2)

    def test_auto_partitions_is_exact_either_way(self):
        ds = random_dataset(200, seed=24)
        engine = fresh_engine()
        got = engine.query(ds, 5, partitions="auto")
        want = naive_tkd(ds, 5)
        assert got.indices == want.indices and got.scores == want.scores

    def test_partitioned_store_writes_honour_batching(self, tmp_path, monkeypatch):
        """Inside a write batch, a partitioned answer is buffered like a
        monolithic one: no per-query write, one batched write at exit."""
        from repro.engine.store import PersistentStore

        ds = random_dataset(120, seed=26)
        engine = fresh_engine(store=PersistentStore(tmp_path / "store"))
        calls = []
        monkeypatch.setattr(
            engine.store, "put_result", lambda *a, **kw: calls.append("put_result")
        )
        real_put_results = engine.store.put_results
        monkeypatch.setattr(
            engine.store,
            "put_results",
            lambda items: (calls.append("put_results"), real_put_results(items)),
        )
        with engine._batched_store_writes():
            engine.query(ds, 4, partitions=3)
            assert calls == []
        assert calls == ["put_results"]

    def test_bad_partitions_arguments_rejected(self):
        ds = random_dataset(20, seed=25)
        engine = fresh_engine()
        with pytest.raises(InvalidParameterError):
            engine.query(ds, 3, partitions="sideways")
        with pytest.raises(InvalidParameterError):
            engine.query(ds, 3, partitions=0)


class TestPartitionPlanner:
    def test_tiny_datasets_stay_monolithic(self):
        plan = plan_partitioned(100, 4, 0.1, 5)
        assert plan.action == "monolithic"

    def test_unforced_plan_takes_cheapest_ladder_point(self):
        # Unforced, the plan prices every ladder shard count in process
        # and keeps the cheapest; it partitions exactly when that beats
        # the best monolithic algorithm.
        from repro.engine.planner import _PARTITION_LADDER

        plan = plan_partitioned(50_000, 4, 0.6, 200)
        totals = {
            p: estimate_partition_costs(50_000, 4, 0.6, 200, partitions=p)["total"]
            for p in _PARTITION_LADDER
        }
        assert plan.partitions == min(totals, key=totals.get)
        assert plan.estimated_seconds == totals[plan.partitions]
        assert (plan.action == "partition") == (
            plan.estimated_seconds < plan.monolithic_seconds
        )
        assert "partition plan" in plan.summary() and "W=" not in plan.summary()

    def test_survival_estimate_monotonic(self):
        base = estimate_survival(10_000, 10, 0.1, 4)
        assert estimate_survival(10_000, 100, 0.1, 4) >= base  # deeper k
        assert estimate_survival(10_000, 10, 0.5, 4) >= base  # more missing
        assert estimate_survival(10_000, 10, 0.1, 16) >= base  # more shards
        assert 0.0 < base <= 1.0

    def test_estimate_costs_fields(self):
        costs = estimate_partition_costs(20_000, 4, 0.1, 10, partitions=4)
        assert set(costs) == {"total", "phase1", "phase2", "survival"}
        assert costs["total"] > 0
        with pytest.raises(InvalidParameterError):
            estimate_partition_costs(1000, 4, 0.1, 5, partitions=0)


class TestPartitionedScoresAgainstScoreAll:
    def test_exact_totals_for_every_candidate(self):
        ds = random_dataset(128, seed=26, missing=0.45)
        view = PartitionedDataset(ds, 5)
        result = execute_partitioned(view, 128)  # k = n: everyone survives
        full = score_all(ds)
        got = dict(zip(result.indices, result.scores))
        for row, score in got.items():
            assert score == int(full[row])


class TestPhase1Memo:
    """Phase 1 does not depend on k: a view computes it once, a new k pays
    only for τ, the exchange and the selection, and a routed delta
    recomputes only the entries of the shards it touched."""

    @pytest.fixture(autouse=True)
    def _traced(self):
        was = telemetry.enabled()
        telemetry.set_enabled(True)
        telemetry.reset()
        yield
        telemetry.set_enabled(was)
        telemetry.reset()

    @staticmethod
    def _spans(name):
        return [s for s in telemetry.collected_spans() if s["name"] == name]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_k_ladder_matches_naive_and_pays_phase1_once(self, workers):
        # Shards of 600 rows: large enough that their tables get built.
        ds = random_dataset(1200, seed=50, missing=0.3)
        engine = fresh_engine()
        first = engine.query(ds, 1, partitions=2, workers=workers)
        assert first.indices == naive_tkd(ds, 1).indices
        assert len(self._spans("partition.phase1.shard")) == 2
        telemetry.reset()
        for k in range(2, 40, 3):
            got = engine.query(ds, k, partitions=2, workers=workers)
            want = naive_tkd(ds, k)
            assert got.indices == want.indices and got.scores == want.scores, k
        assert not self._spans("partition.phase1.shard")
        assert not self._spans("kernel.build_tables")
        phase1 = self._spans("partition.phase1")
        assert len(phase1) == 13
        assert all(s["attrs"]["computed"] == 0 for s in phase1)

    def test_direct_view_k_ladder_reuses_the_memo(self):
        ds = random_dataset(300, seed=53, missing=0.4)
        view = PartitionedDataset(ds, 4)
        for k in (1, 5, 17, 64, 300):
            got = execute_partitioned(view, k)
            want = naive_tkd(ds, k)
            assert got.indices == want.indices and got.scores == want.scores, k
        assert len(self._spans("partition.phase1.shard")) == 4
        assert len(self._spans("partition.phase1")) == 5

    def test_threads_sharing_one_cold_view_stay_exact(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        ds = random_dataset(400, seed=54, missing=0.3)
        view = PartitionedDataset(ds, 5)
        ks = list(range(1, 25))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(execute_partitioned, view, k) for k in ks]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, got in zip(ks, results):
            want = naive_tkd(ds, k)
            assert got.indices == want.indices and got.scores == want.scores, k

    def test_routed_deltas_recompute_only_touched_shards(self):
        ds = random_dataset(1200, seed=51, missing=0.3)
        engine = fresh_engine()
        engine.query(ds, 5, partitions=4)
        writes = [
            lambda cur: engine.insert(cur, [[1.0, np.nan, 3.0, 2.0]]),
            lambda cur: engine.delete(cur, [cur.ids[700]]),
            lambda cur: engine.update(cur, {cur.ids[30]: {0: 0.0}}),
        ]
        current = ds
        for step, write in enumerate(writes):
            with engine._lock:
                parent_memo = engine._partitioned.get(current.fingerprint())._phase1_memo(
                    partition._SUMMARY_BINS
                )
            current = write(current)
            with engine._lock:
                child_view = engine._partitioned.get(current.fingerprint())
            memo = child_view._phase1_memo(partition._SUMMARY_BINS)
            assert len(memo.shards) == child_view.partitions - 1, step
            for fp, entry in memo.shards.items():
                assert entry is parent_memo.shards[fp]  # carried, not recomputed
            assert memo.merged is None  # lower/upper rebuilt for the child
            telemetry.reset()
            got = engine.query(current, 5 + step, partitions=4)
            want = naive_tkd(current, 5 + step)
            assert got.indices == want.indices and got.scores == want.scores, step
            (phase1,) = self._spans("partition.phase1")
            assert phase1["attrs"]["computed"] == 1
            assert len(self._spans("partition.phase1.shard")) == 1


class TestSelectTopKBoundaryTies:
    """``select_top_k`` sorts only the rows at or above the k-th score; the
    answer must equal a full sort even when many rows tie at the k-th."""

    @staticmethod
    def _full_sort(scores, k, eligible=None, tie_break="index", seed=None):
        candidates = np.flatnonzero(eligible) if eligible is not None else np.arange(scores.size)
        k = min(k, candidates.size)
        if tie_break == "random":
            shuffled = candidates[np.random.default_rng(seed).permutation(candidates.size)]
            keys = -scores[shuffled].astype(np.float64)
            return shuffled[np.argsort(keys, kind="stable")[:k]].tolist()
        keys = -scores[candidates].astype(np.float64)
        return candidates[np.lexsort((candidates, keys))[:k]].tolist()

    @pytest.mark.parametrize("use_eligible", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 50, 199, 200, 500])
    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_ties_at_the_kth_score_match_a_full_sort(self, use_eligible, k, kind):
        from repro.core.result import select_top_k

        rng = np.random.default_rng(k + 7 * use_eligible)
        scores = rng.integers(0, 4, 200)  # ~50 rows share every score
        if kind == "float":
            scores = scores * 0.5
        eligible = rng.random(200) < 0.6 if use_eligible else None
        got = select_top_k(scores, k, eligible=eligible)
        assert got == self._full_sort(scores, k, eligible)
        kth = scores[got[-1]]
        assert (scores[np.flatnonzero(eligible) if use_eligible else slice(None)] == kth).sum() > 1
        for seed in (0, 1):
            got = select_top_k(scores, k, eligible=eligible, tie_break="random", rng=seed)
            assert got == self._full_sort(scores, k, eligible, "random", seed)

    def test_nan_scores_rank_last(self):
        from repro.core.result import select_top_k

        scores = np.array([np.nan, 2.0, np.nan, 1.0, 2.0])
        for k in range(1, 6):
            assert select_top_k(scores, k) == self._full_sort(scores, k)
