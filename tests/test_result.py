"""Tests for results, tie-breaking, and Algorithm 2's candidate set."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import IncompleteDataset
from repro.core.result import CandidateSet, TKDResult, select_top_k, validate_k
from repro.core.stats import QueryStats
from repro.errors import InvalidParameterError


class TestValidateK:
    def test_valid(self):
        assert validate_k(3, 10) == 3

    def test_clamped_to_n(self):
        assert validate_k(50, 10) == 10

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True])
    def test_invalid_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            validate_k(bad, 10)


class TestSelectTopK:
    def test_index_policy_deterministic(self):
        scores = np.array([5, 9, 9, 1, 9])
        assert select_top_k(scores, 2) == [1, 2]

    def test_ordering_is_descending_score(self):
        scores = np.array([1, 5, 3])
        assert select_top_k(scores, 3) == [1, 2, 0]

    def test_random_policy_is_seeded(self):
        scores = np.array([7, 7, 7, 7, 0])
        a = select_top_k(scores, 2, tie_break="random", rng=42)
        b = select_top_k(scores, 2, tie_break="random", rng=42)
        assert a == b
        assert all(scores[i] == 7 for i in a)

    def test_random_policy_varies_with_seed(self):
        scores = np.zeros(50, dtype=int)
        picks = {tuple(select_top_k(scores, 3, tie_break="random", rng=seed)) for seed in range(20)}
        assert len(picks) > 1

    def test_eligible_mask_restricts(self):
        scores = np.array([10, 9, 8])
        eligible = np.array([False, True, True])
        assert select_top_k(scores, 1, eligible=eligible) == [1]

    def test_k_larger_than_candidates(self):
        scores = np.array([3, 2])
        assert select_top_k(scores, 5) == [0, 1]

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidParameterError):
            select_top_k(np.array([1]), 1, tie_break="coin-flip")

    @staticmethod
    def _sorted_reference(scores, k, tie_break, rng, eligible):
        """The original pure-Python selection, kept as the oracle."""
        scores = np.asarray(scores)
        candidates = np.flatnonzero(eligible) if eligible is not None else np.arange(scores.size)
        k = min(k, candidates.size)
        if tie_break == "index":
            return sorted(candidates.tolist(), key=lambda i: (-float(scores[i]), i))[:k]
        shuffled = candidates[np.random.default_rng(rng).permutation(candidates.size)]
        order = sorted(range(shuffled.size), key=lambda pos: (-float(scores[shuffled[pos]]), pos))
        return [int(shuffled[pos]) for pos in order[:k]]

    @pytest.mark.parametrize("tie_break", ["index", "random"])
    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_matches_sorted_reference_on_heavy_ties(self, tie_break, kind):
        rng = np.random.default_rng([7, kind == "float"])
        for trial in range(60):
            n = int(rng.integers(1, 80))
            scores = rng.integers(0, 4, size=n)
            if kind == "float":
                scores = scores * 0.25 + rng.choice([0.0, 1e-9], size=n)
            eligible = rng.random(n) < 0.6 if trial % 2 else None
            k = int(rng.integers(1, n + 2))
            got = select_top_k(scores, k, tie_break=tie_break, rng=trial, eligible=eligible)
            want = self._sorted_reference(scores, k, tie_break, trial, eligible)
            assert got == want
            assert all(type(i) is int for i in got)


class TestCandidateSet:
    def test_tau_is_minus_one_until_full(self):
        cand = CandidateSet(2)
        assert cand.tau == -1
        cand.offer(0, 5)
        assert cand.tau == -1
        cand.offer(1, 3)
        assert cand.tau == 3

    def test_better_candidate_evicts_minimum(self):
        cand = CandidateSet(2)
        cand.offer(0, 5)
        cand.offer(1, 3)
        assert cand.offer(2, 4)
        assert {idx for idx, _ in cand.items()} == {0, 2}
        assert cand.tau == 4

    def test_equal_to_tau_rejected(self):
        cand = CandidateSet(1)
        cand.offer(0, 5)
        assert not cand.offer(1, 5)
        assert [idx for idx, _ in cand.items()] == [0]

    def test_items_sorted_by_score_then_index(self):
        cand = CandidateSet(3)
        cand.offer(5, 1)
        cand.offer(2, 9)
        cand.offer(9, 9)
        assert cand.items() == [(2, 9), (9, 9), (5, 1)]

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            CandidateSet(0)

    def test_tau_ties_keep_the_lowest_index(self):
        cand = CandidateSet(2)
        assert cand.beats(0, 99)  # anything enters a set that is not full
        cand.offer(9, 5)
        cand.offer(7, 5)
        assert not cand.beats(5, 10)  # ranks behind both held rows
        assert cand.beats(5, 8)  # ranks ahead of row 9
        assert cand.offer(3, 5)  # evicts row 9, the highest index at tau
        assert cand.items() == [(3, 5), (7, 5)]

    def test_matches_canonical_order_in_any_offer_order(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            stream = rng.integers(0, 4, size=40)
            cand = CandidateSet(k)
            for idx in rng.permutation(stream.size).tolist():
                cand.offer(idx, int(stream[idx]))
            want = sorted(range(stream.size), key=lambda i: (-stream[i], i))[:k]
            assert cand.items() == [(i, int(stream[i])) for i in want]

    def test_matches_sorted_oracle_on_random_streams(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            stream = rng.integers(0, 12, size=40).tolist()
            cand = CandidateSet(k)
            for idx, score in enumerate(stream):
                cand.offer(idx, score)
            kept = sorted((s for _, s in cand.items()), reverse=True)
            assert kept == sorted(stream, reverse=True)[:k]


class TestTKDResult:
    def make(self, ids_scores, k=2, algorithm="x"):
        ds = IncompleteDataset([[i + 1] for i in range(6)], ids=list("abcdef"))
        indices = [ds.index_of(i) for i, _ in ids_scores]
        return TKDResult.from_selection(
            ds, indices, [s for _, s in ids_scores], k=k, algorithm=algorithm
        )

    def test_iteration_and_len(self):
        result = self.make([("a", 5), ("b", 3)])
        assert list(result) == [(0, 5), (1, 3)]
        assert len(result) == 2

    def test_score_multiset(self):
        result = self.make([("a", 3), ("b", 5)])
        assert result.score_multiset == (5, 3)

    def test_jaccard_distance(self):
        left = self.make([("a", 1), ("b", 1)])
        right = self.make([("b", 1), ("c", 1)])
        assert left.jaccard_distance(right) == pytest.approx(1 - 1 / 3)
        assert left.jaccard_distance(left) == 0.0

    def test_as_table_contains_ids(self):
        table = self.make([("a", 5)]).as_table()
        assert "a" in table and "score" in table

    def test_default_stats(self):
        result = self.make([("a", 1)], algorithm="esb")
        assert isinstance(result.stats, QueryStats)
