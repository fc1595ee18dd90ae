"""Equivalence tests: blocked kernels vs the per-object reference path.

Every kernel in :mod:`repro.engine.kernels` must agree bit-for-bit with
the per-object primitives in :mod:`repro.core.dominance` on random
incomplete datasets across the regimes that stress the masks: near-zero
and near-one missing rates, rows with a single observed column, and pairs
whose observed dimensions overlap in exactly one column.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.dominance import (
    dominance_matrix,
    dominated_mask,
    dominator_mask,
    incomparable_mask,
)
from repro.core.maxscore import max_scores
from repro.core.big import max_bit_scores
from repro.bitmap.index import BitmapIndex
from repro.engine.kernels import (
    PreparedDataset,
    _BitsetTables,
    _popcount_rows,
    _popcount_rows_lookup,
    _use_bitsets,
    auto_block,
    dominance_matrix_blocked,
    dominated_counts,
    dominated_masks,
    dominator_counts,
    incomparable_counts,
    max_bit_score_counts,
    score_block,
    unpack_mask_bits,
    upper_bound_scores,
)
from repro.errors import InvalidParameterError

#: (n, d, missing_rate, seed) grid covering the regimes named in the issue.
GRID = [
    (40, 4, 0.0, 0),     # complete data: classic dominance counting
    (60, 5, 0.2, 1),     # the Table 2 default neighbourhood
    (80, 3, 0.5, 2),     # heavy missingness
    (50, 6, 0.9, 3),     # near-all-missing rows (>=1 observed kept by factory)
    (30, 1, 0.0, 4),     # single dimension: dominance is a total preorder
]


def _grid_dataset(make_incomplete, n, d, missing_rate, seed):
    return make_incomplete(n, d, missing_rate=missing_rate, seed=seed)


class TestScoreBlock:
    @pytest.mark.parametrize("n,d,missing_rate,seed", GRID)
    def test_matches_dominated_mask(self, make_incomplete, n, d, missing_rate, seed):
        ds = _grid_dataset(make_incomplete, n, d, missing_rate, seed)
        masks = score_block(ds, range(ds.n))
        for i in range(ds.n):
            assert (masks[i] == dominated_mask(ds, i)).all(), f"row {i}"

    def test_arbitrary_row_subsets(self, make_incomplete):
        ds = make_incomplete(45, 4, missing_rate=0.3, seed=7)
        rows = [44, 0, 13, 13, 2]  # unsorted, duplicated
        masks = score_block(ds, rows)
        for position, i in enumerate(rows):
            assert (masks[position] == dominated_mask(ds, i)).all()

    def test_single_column_overlap_pairs(self):
        # Objects observing disjoint-except-one dimensions: dominance must
        # be decided on the single shared column only.
        ds = IncompleteDataset(
            [
                [1, 5, None],   # shares only d1 with row 2
                [2, None, 9],
                [3, None, None],
            ]
        )
        masks = score_block(ds, range(3))
        assert masks[0].tolist() == [False, True, True]
        assert masks[1].tolist() == [False, False, True]
        assert not masks[2].any()

    def test_out_of_range_rows_rejected(self, make_incomplete):
        ds = make_incomplete(10, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            score_block(ds, [0, 10])
        with pytest.raises(InvalidParameterError):
            score_block(ds, [-1])


class TestCounts:
    @pytest.mark.parametrize("n,d,missing_rate,seed", GRID)
    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_dominated_counts(self, make_incomplete, n, d, missing_rate, seed, block):
        ds = _grid_dataset(make_incomplete, n, d, missing_rate, seed)
        got = dominated_counts(ds, block=block)
        expected = [int(dominated_mask(ds, i).sum()) for i in range(ds.n)]
        assert got.tolist() == expected

    @pytest.mark.parametrize("n,d,missing_rate,seed", GRID)
    def test_dominator_counts(self, make_incomplete, n, d, missing_rate, seed):
        ds = _grid_dataset(make_incomplete, n, d, missing_rate, seed)
        got = dominator_counts(ds)
        expected = [int(dominator_mask(ds, i).sum()) for i in range(ds.n)]
        assert got.tolist() == expected

    @pytest.mark.parametrize("n,d,missing_rate,seed", GRID)
    def test_incomparable_counts(self, make_incomplete, n, d, missing_rate, seed):
        ds = _grid_dataset(make_incomplete, n, d, missing_rate, seed)
        got = incomparable_counts(ds)
        expected = [int(incomparable_mask(ds, i).sum()) for i in range(ds.n)]
        assert got.tolist() == expected

    def test_incomparable_counts_respects_block(self, make_incomplete):
        ds = make_incomplete(60, 5, missing_rate=0.6, seed=14)
        full = incomparable_counts(ds)
        assert incomparable_counts(ds, block=7).tolist() == full.tolist()
        with pytest.raises(InvalidParameterError):
            incomparable_counts(ds, block=0)

    def test_dominated_and_dominator_are_transposes(self, make_incomplete):
        ds = make_incomplete(60, 4, missing_rate=0.35, seed=11)
        matrix = dominance_matrix_blocked(ds)
        assert dominated_counts(ds).tolist() == matrix.sum(axis=1).tolist()
        assert dominator_counts(ds).tolist() == matrix.sum(axis=0).tolist()

    def test_empty_rows(self, make_incomplete):
        ds = make_incomplete(10, 2, seed=0)
        assert dominated_counts(ds, []).size == 0
        assert dominator_counts(ds, []).size == 0
        assert incomparable_counts(ds, []).size == 0

    def test_invalid_block(self, make_incomplete):
        ds = make_incomplete(10, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            dominated_counts(ds, block=0)


class TestBitsetRoute:
    """The packed-bitset fast path must agree with everything else.

    ``dominated_counts`` switches to prefix/suffix bitsets only for large
    batches (n >= 512, batch >= 256); the GRID datasets above are too
    small to reach it, so these cases cross the thresholds on purpose.
    """

    @pytest.mark.parametrize("missing_rate,seed", [(0.0, 0), (0.25, 1), (0.95, 2)])
    def test_full_scan_matches_per_object(self, make_incomplete, missing_rate, seed):
        ds = make_incomplete(700, 4, missing_rate=missing_rate, seed=seed)
        from repro.engine.kernels import _use_bitsets

        assert _use_bitsets(ds.n, ds.d, ds.n)  # the fast path is active
        got = dominated_counts(ds)
        sample = range(0, ds.n, 23)
        for i in sample:
            assert got[i] == int(dominated_mask(ds, i).sum()), f"row {i}"
        masks = score_block(ds, range(0, ds.n, 11))
        assert masks.sum(axis=1).tolist() == got[::11].tolist()

    def test_duplicates_and_ties(self):
        # 600 objects in 3 duplicate cohorts + a strictly-better row; ties
        # stress the side= choices of the rank lookups.
        rows = [[1.0, 1.0]] * 200 + [[2.0, 2.0]] * 200 + [[2.0, None]] * 199 + [[0.5, 0.5]]
        ds = IncompleteDataset(rows)
        got = dominated_counts(ds)
        expected = [int(dominated_mask(ds, i).sum()) for i in range(ds.n)]
        assert got.tolist() == expected

    def test_forced_small_batch_uses_broadcast(self, make_incomplete):
        ds = make_incomplete(700, 4, missing_rate=0.3, seed=3)
        rows = [0, 5, 650]
        got = dominated_counts(ds, rows)  # batch below threshold: broadcast
        assert got.tolist() == [int(dominated_mask(ds, i).sum()) for i in rows]


class TestMaskEmittingRoute:
    """The packed mask-emitting kernels vs the per-object reference.

    Bit-identical means exactly that: every mask row of the bitset route
    must equal ``dominated_mask``/``dominator_mask``, across a
    missing-rate grid that includes near-all-missing rows, duplicate
    cohorts and a fully missing column.
    """

    #: Missing-rate grid crossing the bitset thresholds (n >= 512).
    MASK_GRID = [(600, 4, 0.0, 0), (640, 5, 0.25, 1), (700, 3, 0.6, 2), (560, 6, 0.95, 3)]

    @pytest.mark.parametrize("n,d,missing_rate,seed", MASK_GRID)
    def test_masks_bit_identical(self, make_incomplete, n, d, missing_rate, seed):
        ds = make_incomplete(n, d, missing_rate=missing_rate, seed=seed)
        prepared = PreparedDataset(ds)
        tables = prepared.tables(build=True)
        rows = np.arange(0, ds.n, 13, dtype=np.intp)
        dominated = unpack_mask_bits(
            tables.dominated_block_bits(prepared.lo, prepared.hi, rows), ds.n
        )
        dominators = unpack_mask_bits(
            tables.dominator_block_bits(prepared.lo, prepared.hi, rows), ds.n
        )
        for position, i in enumerate(rows.tolist()):
            assert (dominated[position] == dominated_mask(ds, i)).all(), f"row {i}"
            assert (dominators[position] == dominator_mask(ds, i)).all(), f"row {i}"

    @pytest.mark.parametrize("n,d,missing_rate,seed", MASK_GRID)
    def test_dominated_masks_function_matches_score_block(
        self, make_incomplete, n, d, missing_rate, seed
    ):
        ds = make_incomplete(n, d, missing_rate=missing_rate, seed=seed)
        rows = list(range(0, ds.n, 17)) + [ds.n - 1, 0]  # unsorted tail + duplicate
        via_masks = dominated_masks(ds, rows, prepared=PreparedDataset(ds))
        via_broadcast = score_block(ds, rows)
        assert (via_masks == via_broadcast).all()

    def test_duplicate_cohorts_and_ties(self):
        rows = [[1.0, 1.0]] * 200 + [[2.0, 2.0]] * 200 + [[2.0, None]] * 199 + [[0.5, 0.5]]
        ds = IncompleteDataset(rows)
        prepared = PreparedDataset(ds)
        prepared.tables(build=True)
        masks = dominated_masks(ds, None, prepared=prepared)
        for i in range(0, ds.n, 41):
            assert (masks[i] == dominated_mask(ds, i)).all(), f"row {i}"
        # Duplicates never dominate each other; the strictly better row
        # dominates every member of both cohorts it beats.
        assert masks[0, :200].sum() == 0
        assert masks[-1].sum() == ds.n - 1

    def test_near_all_missing_rows_and_missing_column(self):
        # Rows observing exactly one dimension (the closest the model
        # allows to all-missing) plus one dimension missing everywhere.
        rng = np.random.default_rng(7)
        n = 600
        values = np.full((n, 3), np.nan)
        observed_dim = rng.integers(0, 2, size=n)  # dim 2 stays all-missing
        values[np.arange(n), observed_dim] = rng.integers(1, 12, size=n).astype(float)
        ds = IncompleteDataset(values)
        assert not ds.observed[:, 2].any()
        prepared = PreparedDataset(ds)
        assert prepared.tables(build=True) is not None
        masks = dominated_masks(ds, None, prepared=prepared)
        counts = dominated_counts(ds, prepared=prepared)
        assert (masks.sum(axis=1) == counts).all()
        for i in range(0, n, 29):
            assert (masks[i] == dominated_mask(ds, i)).all(), f"row {i}"
        dominators = dominator_counts(ds, prepared=prepared)
        for i in range(0, n, 29):
            assert dominators[i] == int(dominator_mask(ds, i).sum()), f"row {i}"

    def test_dominance_matrix_routes_agree(self, make_incomplete):
        ds = make_incomplete(620, 4, missing_rate=0.3, seed=9)
        broadcast = dominance_matrix_blocked(ds, route="broadcast")
        bitset = dominance_matrix_blocked(ds, route="bitset")
        auto = dominance_matrix_blocked(ds)
        assert (bitset == broadcast).all()
        assert (auto == broadcast).all()
        # Small datasets may force the bitset route too (private tables).
        small = make_incomplete(40, 3, missing_rate=0.2, seed=1)
        assert (
            dominance_matrix_blocked(small, route="bitset")
            == dominance_matrix_blocked(small, route="broadcast")
        ).all()

    def test_invalid_route_rejected(self, make_incomplete):
        ds = make_incomplete(20, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            dominance_matrix_blocked(ds, route="quantum")

    @pytest.mark.parametrize("missing_rate,seed", [(0.0, 0), (0.5, 1), (0.9, 2)])
    def test_bitset_incomparable_counts(self, make_incomplete, missing_rate, seed):
        ds = make_incomplete(640, 5, missing_rate=missing_rate, seed=seed)
        prepared = PreparedDataset(ds)
        via_bits = incomparable_counts(ds, prepared=prepared)
        expected = [int(incomparable_mask(ds, i).sum()) for i in range(ds.n)]
        assert via_bits.tolist() == expected

    @pytest.mark.parametrize("missing_rate,seed", [(0.1, 4), (0.7, 5)])
    def test_bitset_dominator_counts(self, make_incomplete, missing_rate, seed):
        ds = make_incomplete(600, 4, missing_rate=missing_rate, seed=seed)
        prepared = PreparedDataset(ds)
        prepared.tables(build=True)
        got = dominator_counts(ds, prepared=prepared)
        expected = [int(dominator_mask(ds, i).sum()) for i in range(ds.n)]
        assert got.tolist() == expected


class TestWordBoundarySizes:
    """Packed-route parity exactly at uint64 word boundaries.

    ``n ∈ {63, 64, 65, 128}`` puts the last object on every side of a
    word edge, stressing the suffix/prefix tail bits, the
    ``observed_bits`` tail mask, and the :func:`unpack_mask_bits` trim.
    The broadcast kernels (these sizes never auto-select the bitset
    route) are the reference.
    """

    BOUNDARY_NS = (63, 64, 65, 128)

    def _prepared(self, make_incomplete, n, *, missing_rate=0.3):
        ds = make_incomplete(n, 4, missing_rate=missing_rate, seed=1000 + n)
        prepared = PreparedDataset(ds)
        assert prepared.tables(build=True) is not None
        return ds, prepared

    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_dominated_counts_parity(self, make_incomplete, n):
        ds, prepared = self._prepared(make_incomplete, n)
        assert dominated_counts(ds, prepared=prepared).tolist() == dominated_counts(ds).tolist()

    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_dominator_counts_parity(self, make_incomplete, n):
        ds, prepared = self._prepared(make_incomplete, n)
        assert dominator_counts(ds, prepared=prepared).tolist() == dominator_counts(ds).tolist()

    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_dominated_masks_parity(self, make_incomplete, n):
        ds, prepared = self._prepared(make_incomplete, n)
        np.testing.assert_array_equal(
            dominated_masks(ds, prepared=prepared), score_block(ds, range(ds.n))
        )

    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_dominance_matrix_routes_parity(self, make_incomplete, n):
        ds, prepared = self._prepared(make_incomplete, n)
        np.testing.assert_array_equal(
            dominance_matrix_blocked(ds, prepared=prepared, route="bitset"),
            dominance_matrix_blocked(ds, route="broadcast"),
        )

    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_incomparable_counts_tail_mask_parity(self, make_incomplete, n):
        # The observed-bitset route inverts the accumulator, so bits past
        # position n-1 in the last word are garbage until the tail mask
        # clears them — exactly what n=63/65 exercise.
        ds, prepared = self._prepared(make_incomplete, n, missing_rate=0.6)
        assert (
            incomparable_counts(ds, prepared=prepared).tolist()
            == incomparable_counts(ds).tolist()
        )

    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_unpack_mask_bits_trims_tail(self, n):
        words = ((n + 63) >> 6)
        all_ones = np.full((2, words), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        unpacked = unpack_mask_bits(all_ones, n)
        assert unpacked.shape == (2, n)
        assert unpacked.all()  # every in-range bit survives, none past n

    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_last_object_round_trips_the_packed_route(self, make_incomplete, n):
        # Single-row batches targeting the final object (the word-edge bit).
        ds, prepared = self._prepared(make_incomplete, n)
        last = [n - 1]
        assert (
            dominated_counts(ds, last, prepared=prepared).tolist()
            == dominated_counts(ds, last).tolist()
        )
        np.testing.assert_array_equal(
            dominated_masks(ds, last, prepared=prepared), score_block(ds, last)
        )


class TestPopcountParity:
    """Both popcount paths (np.bitwise_count and the LUT fallback) agree."""

    def test_random_words(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, size=(37, 9), dtype=np.uint64)
        expected = [sum(bin(int(w)).count("1") for w in row) for row in words]
        assert _popcount_rows(words).tolist() == expected
        assert _popcount_rows_lookup(words).tolist() == expected

    def test_extremes_and_empty(self):
        zeros = np.zeros((3, 4), dtype=np.uint64)
        ones = np.full((3, 4), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        assert _popcount_rows(zeros).tolist() == [0, 0, 0]
        assert _popcount_rows_lookup(zeros).tolist() == [0, 0, 0]
        assert _popcount_rows(ones).tolist() == [256, 256, 256]
        assert _popcount_rows_lookup(ones).tolist() == [256, 256, 256]
        empty = np.zeros((0, 4), dtype=np.uint64)
        assert _popcount_rows(empty).size == 0
        assert _popcount_rows_lookup(empty).size == 0

    def test_noncontiguous_input(self):
        rng = np.random.default_rng(4)
        words = rng.integers(0, 2**64, size=(10, 8), dtype=np.uint64)[::2, 1::2]
        assert _popcount_rows(words).tolist() == _popcount_rows_lookup(words).tolist()

    @pytest.mark.parametrize("n", (63, 64, 65))
    def test_forced_lookup_route_word_boundaries(self, n, monkeypatch):
        """The LUT fallback is bit-identical to bitwise_count at word edges.

        ``_popcount_rows_numpy`` picks its route from ``_HAS_BITWISE_COUNT``
        at call time; forcing the flag exercises the NumPy < 2.0 path on a
        NumPy >= 2.0 machine, at the sizes where tail-word handling breaks
        first (one bit under / exactly at / one bit over a 64-bit word).
        """
        from repro.engine import kernels

        rng = np.random.default_rng(n)
        words = (n + 63) >> 6
        rows = rng.integers(0, 2**64, size=(17, words), dtype=np.uint64)
        # Clear past-n tail bits, as packed kernel rows guarantee.
        tail = n & 63
        if tail:
            rows[:, -1] &= np.uint64((1 << tail) - 1)
        expected = [sum(bin(int(w)).count("1") for w in row) for row in rows]
        assert kernels._popcount_rows_numpy(rows).tolist() == expected
        monkeypatch.setattr(kernels, "_HAS_BITWISE_COUNT", False)
        assert kernels._popcount_rows_numpy(rows).tolist() == expected

    def test_forced_lookup_route_all_missing_rows(self, monkeypatch):
        """All-missing probe rows (empty bitsets) count zero on both routes.

        Datasets drop all-NaN rows at construction, so the empty-bitset
        case reaches the popcount through probe sentinels — equivalently,
        rows of all-zero packed words — and must return exact zeros.
        """
        from repro.engine import kernels

        zeros = np.zeros((5, 2), dtype=np.uint64)
        assert kernels._popcount_rows_numpy(zeros).tolist() == [0] * 5
        monkeypatch.setattr(kernels, "_HAS_BITWISE_COUNT", False)
        assert kernels._popcount_rows_numpy(zeros).tolist() == [0] * 5
        assert _popcount_rows_lookup(zeros).tolist() == [0] * 5

    def test_forced_lookup_inside_query(self, make_incomplete, monkeypatch):
        """A whole query agrees across routes with the fallback forced."""
        from repro.engine import kernels
        from repro.engine.backend import use_backend

        ds = make_incomplete(65, 3, missing_rate=0.4, seed=7)
        with use_backend("numpy"):
            expected = dominated_counts(ds).tolist()
            monkeypatch.setattr(kernels, "_HAS_BITWISE_COUNT", False)
            assert dominated_counts(ds).tolist() == expected


class TestCachedTableEligibility:
    """Satellite: cached tables serve small batches instead of broadcast."""

    def test_use_bitsets_cached_flag(self):
        # Uncached: small batches are ineligible.
        assert not _use_bitsets(4000, 4, 3)
        assert not _use_bitsets(300, 4, 300)  # dataset below threshold
        # Cached: any batch rides the tables (they are already paid for).
        assert _use_bitsets(4000, 4, 3, cached=True)
        assert _use_bitsets(300, 4, 1, cached=True)

    def test_budget_gate_measures_distinct_counts(self, make_incomplete, monkeypatch):
        """Whether tables fit is decided in ``tables()`` on the measured
        distinct counts: discrete data fits a budget its shape-only bound
        (u = n) exceeds, continuous data of the same shape does not."""
        from repro.engine import kernels

        discrete = make_incomplete(700, 4, missing_rate=0.3, seed=3)
        rng = np.random.default_rng(3)
        continuous = IncompleteDataset(rng.random((700, 4)), directions="min")
        budget = kernels._bitset_table_bytes(700, 4) // 4
        monkeypatch.setattr(kernels, "_BITSET_TABLE_BUDGET_BYTES", budget)
        prepared = PreparedDataset(discrete)
        assert prepared.tables(build=True) is not None
        assert prepared.tables(build=False).nbytes < budget
        refused = PreparedDataset(continuous)
        assert refused.tables(build=True) is None
        assert not refused.tables_ready
        got = dominated_counts(continuous, prepared=refused)  # broadcast fallback
        assert not refused.tables_ready
        assert got[:50].tolist() == [int(dominated_mask(continuous, i).sum()) for i in range(50)]

    def test_small_batch_uses_cached_tables(self, make_incomplete, monkeypatch):
        ds = make_incomplete(700, 4, missing_rate=0.3, seed=3)
        prepared = PreparedDataset(ds)
        assert prepared.tables(build=True) is not None
        from repro.engine import kernels

        def broadcast_must_not_run(*args, **kwargs):  # pragma: no cover
            raise AssertionError("broadcast kernel used despite cached tables")

        monkeypatch.setattr(kernels, "_score_block", broadcast_must_not_run)
        rows = [0, 5, 650]
        got = dominated_counts(ds, rows, prepared=prepared)
        monkeypatch.undo()
        assert got.tolist() == [int(dominated_mask(ds, i).sum()) for i in rows]

    def test_unbuilt_tables_small_batch_still_broadcasts(self, make_incomplete):
        ds = make_incomplete(700, 4, missing_rate=0.3, seed=3)
        prepared = PreparedDataset(ds)
        assert not prepared.tables_ready
        got = dominated_counts(ds, [0, 5, 650], prepared=prepared)
        assert not prepared.tables_ready  # small batch must not build them
        assert got.tolist() == [int(dominated_mask(ds, i).sum()) for i in [0, 5, 650]]


class TestDominanceMatrix:
    @pytest.mark.parametrize("n,d,missing_rate,seed", GRID)
    def test_matches_core_matrix(self, make_incomplete, n, d, missing_rate, seed):
        ds = _grid_dataset(make_incomplete, n, d, missing_rate, seed)
        # core.dominance.dominance_matrix is itself kernel-backed now, so
        # compare against the independent per-object reference too.
        blocked = dominance_matrix_blocked(ds, block=9)
        assert (blocked == dominance_matrix(ds)).all()
        for i in range(0, ds.n, 7):
            assert (blocked[i] == dominated_mask(ds, i)).all()


class TestUpperBounds:
    @pytest.mark.parametrize("n,d,missing_rate,seed", GRID)
    def test_upper_bound_scores_are_max_scores(self, make_incomplete, n, d, missing_rate, seed):
        ds = _grid_dataset(make_incomplete, n, d, missing_rate, seed)
        assert upper_bound_scores(ds).tolist() == max_scores(ds).tolist()

    @pytest.mark.parametrize("n,d,missing_rate,seed", GRID)
    def test_max_bit_score_counts_match_bitmap_route(
        self, make_incomplete, n, d, missing_rate, seed
    ):
        ds = _grid_dataset(make_incomplete, n, d, missing_rate, seed)
        via_kernel = max_bit_score_counts(ds)
        via_bitmap = max_bit_scores(ds, index=BitmapIndex(ds))
        assert via_kernel.tolist() == via_bitmap.tolist()

    def test_lemma_3_holds_for_kernel(self, make_incomplete):
        ds = make_incomplete(70, 5, missing_rate=0.25, seed=13)
        assert (max_bit_score_counts(ds) <= upper_bound_scores(ds)).all()

    def test_scores_bounded_by_both(self, make_incomplete):
        ds = make_incomplete(70, 5, missing_rate=0.25, seed=13)
        scores = dominated_counts(ds)
        assert (scores <= max_bit_score_counts(ds)).all()


class TestAutoBlock:
    def test_scales_inversely_with_problem_size(self):
        assert auto_block(100, 2) >= auto_block(100_000, 20)
        assert auto_block(10, 1) == 1024  # clamped high
        assert auto_block(10_000_000, 50) == 8  # clamped low

    def test_respects_budget(self):
        block = auto_block(5000, 6)
        assert 8 <= block <= 1024
        assert block * 5000 * 6 <= 2 * 4_000_000  # within 2x of the budget


def _full_format_tables(lo, hi):
    """The former full table format, kept as the reference: one row per
    object in stable sort order (plus the empty row), and the sorted
    columns with their duplicates. A lookup into sorted columns lands on
    the first or last row of a run of equal values, so the unchanged
    accumulator kernels read it exactly as they read the compact format."""
    n, d = lo.shape
    words = (n + 63) >> 6
    arange = np.arange(n)
    zero = np.zeros((1, words), dtype=np.uint64)
    tables = _BitsetTables.__new__(_BitsetTables)
    tables.n, tables.words = n, words
    tables.suffix, tables.prefix, tables.hi_values, tables.lo_values = [], [], [], []
    for dim in range(d):
        order = np.argsort(hi[:, dim], kind="stable")
        one_hot = np.zeros((n, words), dtype=np.uint64)
        one_hot[arange, order >> 6] = np.uint64(1) << (order & 63).astype(np.uint64)
        suffix = np.bitwise_or.accumulate(one_hot[::-1], axis=0)[::-1]
        tables.suffix.append(np.concatenate([suffix, zero]))
        tables.hi_values.append(hi[order, dim])
        order = np.argsort(lo[:, dim], kind="stable")
        one_hot = np.zeros((n, words), dtype=np.uint64)
        one_hot[arange, order >> 6] = np.uint64(1) << (order & 63).astype(np.uint64)
        tables.prefix.append(np.concatenate([zero, np.bitwise_or.accumulate(one_hot, axis=0)]))
        tables.lo_values.append(lo[order, dim])
    return tables


def _compact_case(n, sigma, continuous, seed):
    rng = np.random.default_rng(seed)
    values = rng.random((n, 4)) if continuous else rng.integers(0, 6, size=(n, 4)).astype(float)
    values[rng.random((n, 4)) < sigma] = np.nan
    values[:, 3] = np.nan  # one all-missing column: only the ±inf sentinels
    empty = np.isnan(values).all(axis=1)
    values[empty, 0] = rng.integers(0, 6, size=int(empty.sum()))
    return IncompleteDataset(values, directions=["min", "max", "min", "min"])


@pytest.mark.parametrize("n", [63, 64, 65, 128])
@pytest.mark.parametrize("sigma", [0.0, 0.3, 0.8])
@pytest.mark.parametrize("continuous", [False, True])
class TestCompactTablesBitIdentity:
    """Compact tables (one row per distinct value) answer exactly like the
    former full format, on both backends, tombstones and probes included."""

    def test_matches_full_format(self, n, sigma, continuous):
        from repro.core.delta import DatasetDelta
        from repro.engine.backend import available_backends, use_backend
        from repro.engine.kernels import SentinelDelta

        ds = _compact_case(n, sigma, continuous, seed=n + int(10 * sigma))
        compact = PreparedDataset(ds)
        compact.tables(build=True)
        full = PreparedDataset(ds)
        full._tables = _full_format_tables(full.lo, full.hi)
        tables = compact.tables(build=False)
        if not continuous:
            assert max(v.size for v in tables.hi_values + tables.lo_values) <= 7
        assert tables.hi_values[3].tolist() == [np.inf]
        assert tables.lo_values[3].tolist() == [-np.inf]

        delta = DatasetDelta.deleting(ds, [ds.ids[0], ds.ids[n // 2], ds.ids[-1]])
        lowered = SentinelDelta.from_delta(delta, ds.directions)
        child = ds.apply_delta(delta)
        rng = np.random.default_rng(n)
        probe_lo = np.vstack([compact.lo[:5], rng.uniform(-1, 6, size=(6, 4)), [[-np.inf] * 4]])
        probe_hi = np.vstack([compact.hi[:5], probe_lo[5:11] + 0.5, [[np.inf] * 4]])
        for name in available_backends():
            with use_backend(name):
                for a, b, size in (
                    (compact, full, ds.n),
                    (compact.patched(lowered), full.patched(lowered), child.n),
                ):
                    rows = np.arange(size)
                    assert np.array_equal(a.dominated_count_rows(rows), b.dominated_count_rows(rows))
                    assert np.array_equal(a.dominator_count_rows(rows), b.dominator_count_rows(rows))
                    assert np.array_equal(a.dominated_bits(rows), b.dominated_bits(rows))
                    assert np.array_equal(a.dominator_bits(rows), b.dominator_bits(rows))
                    assert np.array_equal(
                        a.foreign_dominated_counts(probe_lo, probe_hi),
                        b.foreign_dominated_counts(probe_lo, probe_hi),
                    )
                assert np.array_equal(
                    dominated_counts(child, prepared=compact.patched(lowered)),
                    [int(dominated_mask(child, i).sum()) for i in range(child.n)],
                )


class TestCompactTableSize:
    def test_paper_shape_fits_in_three_megabytes(self):
        from repro.datasets.synthetic import independent_dataset
        from repro.engine import kernels

        ds = independent_dataset(20000, 4, missing_rate=0.3, seed=1)
        assert kernels._bitset_table_bytes(ds.n, ds.d) > kernels._BITSET_TABLE_BUDGET_BYTES
        tables = PreparedDataset(ds).tables(build=True)
        assert tables is not None
        assert tables.nbytes <= 3 * 1024 * 1024
        distinct = [v.size for v in tables.hi_values + tables.lo_values]
        suffix_bytes = sum(t.nbytes for t in tables.suffix + tables.prefix)
        assert suffix_bytes == kernels._bitset_table_bytes(ds.n, ds.d, distinct)
