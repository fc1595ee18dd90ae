"""Per-algorithm behaviour tests: Naive, ESB, UBB, BIG, IBIG.

Cross-algorithm result agreement lives in test_agreement.py; this module
checks each algorithm's *own* contract — candidate soundness, heuristic
counters, early termination, index handling, and edge cases.
"""

from __future__ import annotations

import pytest

from repro.bitmap.binned import BinnedBitmapIndex
from repro.bitmap.index import BitmapIndex
from repro.core.big import BIGTKD, max_bit_scores
from repro.core.dataset import IncompleteDataset
from repro.core.esb import ESBTKD, esb_candidates
from repro.core.ibig import IBIGTKD
from repro.core.maxscore import max_scores
from repro.core.naive import NaiveTKD, naive_tkd
from repro.core.score import score_all
from repro.core.ubb import UBBTKD
from repro.skyband.buckets import BucketIndex


class TestNaive:
    def test_scores_everything(self, fig3_dataset):
        result = NaiveTKD(fig3_dataset).query(2)
        assert result.stats.scores_computed == fig3_dataset.n
        assert result.stats.comparisons == fig3_dataset.n * (fig3_dataset.n - 1)

    def test_is_the_oracle(self, make_incomplete):
        ds = make_incomplete(50, 4, missing_rate=0.3, seed=0)
        result = naive_tkd(ds, 5)
        expected = sorted(score_all(ds).tolist(), reverse=True)[:5]
        assert list(result.score_multiset) == expected


class TestESB:
    def test_candidates_superset_of_answer(self, make_incomplete):
        for seed in range(4):
            ds = make_incomplete(60, 4, missing_rate=0.4, seed=seed)
            for k in (1, 3, 8):
                candidates = set(esb_candidates(ds, k).tolist())
                answer = naive_tkd(ds, k)
                answer_scores = answer.score_multiset
                # Lemma 1 soundness: some tie-equivalent answer must live
                # inside the candidate set — verify by score multiset.
                candidate_scores = sorted(
                    (score_all(ds)[sorted(candidates)]).tolist(), reverse=True
                )[:k]
                assert tuple(candidate_scores) == answer_scores

    def test_candidates_grow_with_k(self, make_incomplete):
        ds = make_incomplete(60, 4, missing_rate=0.4, seed=5)
        sizes = [esb_candidates(ds, k).size for k in (1, 2, 4, 8, 16)]
        assert sizes == sorted(sizes)

    def test_stats_track_candidates(self, fig3_dataset):
        result = ESBTKD(fig3_dataset).query(2)
        assert result.stats.candidates == 11  # Fig. 4
        assert result.stats.scores_computed == 11

    def test_bucket_reuse(self, fig3_dataset):
        buckets = BucketIndex(fig3_dataset)
        algorithm = ESBTKD(fig3_dataset, buckets=buckets)
        algorithm.prepare()
        assert algorithm.buckets is buckets

    def test_complete_data_single_bucket(self):
        ds = IncompleteDataset([[i, 10 - i] for i in range(10)])
        result = ESBTKD(ds).query(3)
        assert len(result) == 3


class TestUBB:
    def test_early_termination_prunes(self, fig3_dataset):
        result = UBBTKD(fig3_dataset).query(2)
        stats = result.stats
        # Example 2: C2 and A2 evaluated, giving tau = 16. The paper stops
        # at B2 (MaxScore 16 <= tau), but B2 at row 6 would outrank the
        # tau-tied C2 at row 11 under the lowest-index tie rule, so it is
        # scored too; Heuristic 1 then fires at B1 (MaxScore 15).
        assert stats.scores_computed == 3
        assert stats.pruned_h1 == fig3_dataset.n - 3
        assert result.ids == ["A2", "C2"]

    def test_no_termination_when_k_equals_n(self, fig3_dataset):
        result = UBBTKD(fig3_dataset).query(fig3_dataset.n)
        assert result.stats.scores_computed == fig3_dataset.n
        assert result.stats.pruned_h1 == 0

    def test_prepared_queue_exposed(self, fig3_dataset):
        algorithm = UBBTKD(fig3_dataset).prepare()
        assert algorithm.queue.size == fig3_dataset.n
        assert (algorithm.maxscores >= score_all(fig3_dataset)).all()

    def test_evaluated_set_is_queue_prefix(self, make_incomplete):
        ds = make_incomplete(80, 4, missing_rate=0.25, seed=1)
        algorithm = UBBTKD(ds).prepare()
        stats = algorithm.query(4).stats
        assert stats.scores_computed + stats.pruned_h1 == ds.n


class TestBIG:
    def test_maxbitscore_never_exceeds_maxscore(self, make_incomplete):
        """Lemma 3 on random data (exact index only)."""
        for seed in range(5):
            ds = make_incomplete(40, 4, missing_rate=0.35, seed=seed)
            assert (max_bit_scores(ds) <= max_scores(ds)).all()

    def test_index_reuse(self, fig3_dataset):
        index = BitmapIndex(fig3_dataset)
        algorithm = BIGTKD(fig3_dataset, index=index)
        algorithm.prepare()
        assert algorithm.index is index

    def test_index_bytes_reported(self, fig3_dataset):
        algorithm = BIGTKD(fig3_dataset).prepare()
        assert algorithm.index_bytes == algorithm.index.size_bits // 8
        assert BIGTKD(fig3_dataset).index_bytes == 0  # before prepare

    def test_heuristic2_counter(self, make_incomplete):
        # On permissive data some objects pass Heuristic 1 yet fail the
        # tighter MaxBitScore test; the counter must record them.
        total_h2 = 0
        for seed in range(6):
            ds = make_incomplete(60, 4, missing_rate=0.5, seed=seed)
            total_h2 += BIGTKD(ds).query(3).stats.pruned_h2
        assert total_h2 > 0

    def test_work_conservation(self, make_incomplete):
        ds = make_incomplete(60, 4, missing_rate=0.4, seed=2)
        stats = BIGTKD(ds).query(4).stats
        assert stats.scores_computed + stats.pruned_h1 + stats.pruned_h2 == ds.n


class TestIBIG:
    def test_index_defaults_to_eq8_bins(self, make_incomplete):
        ds = make_incomplete(100, 3, missing_rate=0.2, cardinality=50, seed=0)
        algorithm = IBIGTKD(ds).prepare()
        assert algorithm.index.bin_count(0) >= 1

    def test_explicit_bins(self, make_incomplete):
        ds = make_incomplete(50, 3, missing_rate=0.2, cardinality=30, seed=1)
        algorithm = IBIGTKD(ds, bins=4).prepare()
        assert all(algorithm.index.bin_count(j) <= 4 for j in range(ds.d))

    def test_prebuilt_index(self, make_incomplete):
        ds = make_incomplete(30, 3, seed=2)
        index = BinnedBitmapIndex(ds, 3)
        algorithm = IBIGTKD(ds, index=index).prepare()
        assert algorithm.index is index

    def test_compressed_store_accounting(self, make_incomplete):
        ds = make_incomplete(60, 3, missing_rate=0.3, cardinality=20, seed=3)
        with_compression = IBIGTKD(ds, bins=8, compress="concise").prepare()
        without = IBIGTKD(ds, bins=8, compress=None).prepare()
        assert with_compression.compression_report is not None
        assert without.compression_report is None
        assert without.index_bytes == without.index.size_bits // 8

    def test_btree_backend_agrees(self, make_incomplete):
        for seed in range(4):
            ds = make_incomplete(50, 4, missing_rate=0.3, cardinality=10, seed=seed)
            fast = IBIGTKD(ds, bins=3, use_btree=False).query(5)
            slow = IBIGTKD(ds, bins=3, use_btree=True).query(5)
            assert fast.score_multiset == slow.score_multiset

    def test_heuristic3_counter_fires(self, make_incomplete):
        total_h3 = 0
        for seed in range(8):
            ds = make_incomplete(80, 4, missing_rate=0.3, cardinality=25, seed=seed)
            total_h3 += IBIGTKD(ds, bins=2).query(3).stats.pruned_h3
        assert total_h3 > 0

    def test_work_conservation(self, make_incomplete):
        ds = make_incomplete(70, 4, missing_rate=0.4, cardinality=15, seed=4)
        stats = IBIGTKD(ds, bins=3).query(4).stats
        assert (
            stats.scores_computed + stats.pruned_h1 + stats.pruned_h2 + stats.pruned_h3
            == ds.n
        )

    def test_stats_extras(self, make_incomplete):
        ds = make_incomplete(30, 3, seed=5)
        stats = IBIGTKD(ds, bins=2).query(2).stats
        assert "bin_counts" in stats.extra
        assert "compression_ratio" in stats.extra

    @pytest.mark.parametrize("bins", [1, 2, 7, 1000])
    def test_exact_for_any_bin_count(self, make_incomplete, bins):
        ds = make_incomplete(60, 4, missing_rate=0.35, cardinality=12, seed=6)
        expected = naive_tkd(ds, 5).score_multiset
        assert IBIGTKD(ds, bins=bins).query(5).score_multiset == expected
