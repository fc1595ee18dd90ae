"""BIG — the Bitmap Index Guided algorithm (paper Section 4.3, Algs. 3–4).

BIG keeps UBB's frame (MaxScore queue + Heuristic 1) but replaces the
pairwise ``Get-Score`` with bitmap arithmetic:

1. ``Q = ∩_i [Qi] − {o}`` and ``P = ∩_i [Pi]`` come from packed ANDs over
   the range-encoded index columns.
2. ``MaxBitScore(o) = |Q|`` is a *tighter* upper bound than ``MaxScore``
   (Lemma 3); **Heuristic 2** discards ``o`` outright when the candidate
   set is full and ``|Q| ≤ τ``.
3. Otherwise the score is assembled as ``score(o) = |G(o)| + |L(o)|`` with
   ``G(o) = P − F(o)`` (strictly worse on every common dimension and
   comparable) and ``L(o) = (Q − P) − nonD(o)`` where ``nonD(o)`` holds the
   candidates whose common observed dimensions all *equal* o's (their
   ``tagT`` counter reaches ``|b_p & b_o|``) — those are not dominated.

Only the small ``Q − P`` rim requires real value comparisons.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..bitmap.index import BitmapIndex
from ..skyband.buckets import BucketIndex
from .base import TKDAlgorithm
from .dataset import IncompleteDataset
from .maxscore import max_scores, maxscore_queue
from .result import CandidateSet, TKDResult
from .stats import QueryStats

__all__ = ["BIGTKD", "big_tkd", "max_bit_scores"]


class BIGTKD(TKDAlgorithm):
    """Bitmap index guided TKD over incomplete data."""

    name = "big"

    def __init__(
        self,
        dataset: IncompleteDataset,
        *,
        index: BitmapIndex | None = None,
        buckets: BucketIndex | None = None,
        enable_h1: bool = True,
        enable_h2: bool = True,
    ) -> None:
        super().__init__(dataset)
        self._index = index
        self._buckets = buckets
        #: Ablation switches for Heuristics 1 (early termination) and 2
        #: (MaxBitScore pruning); the answer stays exact either way.
        self._enable_h1 = bool(enable_h1)
        self._enable_h2 = bool(enable_h2)
        self._maxscore: np.ndarray | None = None
        self._queue: np.ndarray | None = None
        self._filled: np.ndarray | None = None

    def _prepare(self) -> None:
        if self._index is None:
            self._index = BitmapIndex(self.dataset)
        if self._buckets is None:
            self._buckets = BucketIndex(self.dataset)
        self._maxscore = max_scores(self.dataset)
        self._queue = maxscore_queue(self.dataset, self._maxscore)
        self._filled = np.where(self.dataset.observed, self.dataset.minimized, 0.0)

    @property
    def index(self) -> BitmapIndex:
        """The underlying range-encoded bitmap index."""
        self.prepare()
        return self._index

    @property
    def index_bytes(self) -> int:
        if self._index is None:
            return 0
        return self._index.size_bits // 8

    # -- scoring --------------------------------------------------------------

    def _bit_score(
        self, row: int, candidates: CandidateSet, stats: QueryStats
    ) -> int | None:
        """BIG-Score (Algorithm 3). Returns None when Heuristic 2 prunes."""
        dataset = self.dataset
        q_vec = self._index.q_intersection(row)
        q_vec.set(row, False)  # Q = ∩ Qi − {o}
        max_bit_score = q_vec.count()
        if self._enable_h2 and not candidates.beats(max_bit_score, row):
            stats.pruned_h2 += 1
            return None

        p_vec = self._index.p_intersection(row)
        f_vec = self._buckets.incomparable_mask(dataset.patterns[row])
        g_count = p_vec.andnot(f_vec).count()  # |G(o)| = |P − F(o)|

        rim = q_vec.andnot(p_vec)  # Q − P: needs per-dimension verification
        rim_rows = rim.indices()
        if rim_rows.size:
            common = dataset.observed[rim_rows] & dataset.observed[row]
            equal = common & (self._filled[rim_rows] == self._filled[row])
            # nonD(o): tagT == |b_p & b_o| — all common dims equal (this also
            # absorbs incomparable objects, where both sides are zero).
            non_dominated = equal.sum(axis=1) == common.sum(axis=1)
            l_count = int(rim_rows.size - non_dominated.sum())
            stats.comparisons += int(rim_rows.size)
        else:
            l_count = 0
        return g_count + l_count

    def _run(self, k: int, *, tie_break: str, rng, stats: QueryStats) -> tuple[Sequence[int], Sequence[int]]:
        del tie_break, rng  # CandidateSet keeps the canonical boundary ties
        candidates = CandidateSet(k)
        n = self.dataset.n

        for position, index in enumerate(self._queue.tolist()):
            if self._enable_h1 and not candidates.beats(self._maxscore[index], index):
                stats.pruned_h1 = n - position  # Heuristic 1
                break
            score = self._bit_score(index, candidates, stats)
            if score is None:
                continue  # Heuristic 2 pruned it
            stats.scores_computed += 1
            candidates.offer(index, score)

        items = candidates.items()
        return [idx for idx, _ in items], [score for _, score in items]


def big_tkd(dataset: IncompleteDataset, k: int, *, tie_break: str = "index", rng=None) -> TKDResult:
    """One-shot BIG TKD query (builds the bitmap index first)."""
    return BIGTKD(dataset).query(k, tie_break=tie_break, rng=rng)


def max_bit_scores(dataset: IncompleteDataset, *, index: BitmapIndex | None = None) -> np.ndarray:
    """``MaxBitScore(o) = |Q|`` for every object (paper Heuristic 2, Fig. 8).

    Always ≤ ``MaxScore`` for the exact (unbinned) index — Lemma 3.

    Without an *index* the values come from the blocked broadcast kernel
    (:func:`repro.engine.kernels.max_bit_score_counts`) — no bitmap needed;
    pass an existing index to exercise the packed-AND route instead (both
    are property-tested to agree).
    """
    if index is None:
        from ..engine.kernels import max_bit_score_counts

        return max_bit_score_counts(dataset)
    out = np.empty(dataset.n, dtype=np.int64)
    for row in range(dataset.n):
        q_vec = index.q_intersection(row)
        q_vec.set(row, False)
        out[row] = q_vec.count()
    return out
