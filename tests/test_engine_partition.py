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


def _per_probe_merge(shards, summaries, lower, lo, hi, tau, bins=128):
    """Reference flat/tree merge built from :func:`_per_probe_upper_bounds`."""
    n = lower.shape[0]
    if len(shards) <= partition._TREE_MERGE_MIN_SHARDS:
        upper = lower.copy()
        for shard, summary in zip(shards, summaries):
            ub = _per_probe_upper_bounds(summary, lo, hi)
            upper += ub
            upper[shard.start : shard.stop] -= ub[shard.start : shard.stop]
        return upper
    group_count = max(2, int(round(len(shards) ** 0.5)))
    step = -(-len(shards) // group_count)
    envelope = np.zeros(n, dtype=np.int64)
    for g0 in range(0, len(shards), step):
        gs, ge = shards[g0].start, shards[min(g0 + step, len(shards)) - 1].stop
        group = ShardSummary.from_bounds(lo[gs:ge], hi[gs:ge], bins=bins)
        envelope += _per_probe_upper_bounds(group, lo, hi)
    cand = np.flatnonzero(envelope >= tau)
    tight = lower[cand].astype(np.int64, copy=True)
    for shard, summary in zip(shards, summaries):
        ub = _per_probe_upper_bounds(summary, lo[cand], hi[cand])
        ub[(cand >= shard.start) & (cand < shard.stop)] = 0
        tight += ub
    envelope[cand] = np.minimum(envelope[cand], tight)
    return envelope


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
                summary.upper_bound_counts(probes.take(rows)),
                _per_probe_upper_bounds(summary, *sub),
            )
            empty = summary.upper_bound_counts(probes.take(np.zeros(0, dtype=np.intp)))
            assert empty.shape == (0,) and empty.dtype == np.int64

    def test_index_is_compact(self):
        lo, hi = _sentinels(_random_values(1000, 4, missing=0.3, continuous=False, seed=3))
        probes = _Probes(lo, hi)
        assert all(inverse.dtype == np.uint8 for _, inverse in probes.lo + probes.hi)
        assert probes.distinct == sum(np.unique(col).size for col in np.hstack([lo, hi]).T)

    @pytest.mark.parametrize("partitions", [8, 20, 32])  # flat, tree, tree
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
        tau = int(np.partition(lower, ds.n - 10)[ds.n - 10])
        upper, groups, survivors, distinct = _merged_upper_bounds(
            view.shards, summaries, lower, lo, hi, tau
        )
        assert np.array_equal(upper, _per_probe_merge(view.shards, summaries, lower, lo, hi, tau))
        assert (groups > 0) == (partitions > partition._TREE_MERGE_MIN_SHARDS)
        assert 0 < survivors <= ds.n
        if not groups:
            assert survivors == ds.n
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
        assert 0 < attrs["envelope_survivors"] <= ds.n
        if partitions <= partition._TREE_MERGE_MIN_SHARDS:
            assert attrs["envelope_survivors"] == ds.n
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
        assert got.stats.extra["workers"] == 2

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
        plan = plan_partitioned(100, 4, 0.1, 5, workers=4)
        assert plan.action == "monolithic"

    def test_loose_bound_regimes_partition(self):
        # High missingness floods the monolithic pruning family (the
        # paper's own MovieLens story) — exactly where sharding pays.
        plan = plan_partitioned(50_000, 4, 0.6, 200, workers=8)
        assert plan.action == "partition"
        assert plan.partitions >= 2
        assert plan.estimated_seconds < plan.monolithic_seconds
        assert "partition plan" in plan.summary()

    def test_survival_estimate_monotonic(self):
        base = estimate_survival(10_000, 10, 0.1, 4)
        assert estimate_survival(10_000, 100, 0.1, 4) >= base  # deeper k
        assert estimate_survival(10_000, 10, 0.5, 4) >= base  # more missing
        assert estimate_survival(10_000, 10, 0.1, 16) >= base  # more shards
        assert 0.0 < base <= 1.0

    def test_estimate_costs_fields(self):
        costs = estimate_partition_costs(20_000, 4, 0.1, 10, partitions=4, workers=4)
        assert set(costs) == {"total", "phase1", "phase2", "survival", "spawn"}
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
