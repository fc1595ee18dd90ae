"""UBB — the Upper Bound Based algorithm (paper Section 4.2, Alg. 2).

UBB folds ranking into evaluation: objects are visited in descending
``MaxScore`` order (the precomputed priority queue ``F``); each visited
object's exact score is obtained by pairwise comparison (``Get-Score``) and
a k-slot candidate set with threshold ``τ`` is maintained. **Heuristic 1**
terminates the scan the moment the queue head satisfies
``MaxScore(o) ≤ τ`` — every unvisited object is then provably outside the
answer, because queue order bounds all remaining scores by ``τ``.

With ``block=`` set, exact scores are precomputed for whole queue chunks
through the :func:`repro.engine.kernels.score_block` broadcast instead of
one ``Get-Score`` call per object. Scoring has no side effects, so the
visit order, Heuristic 1 decisions, answers *and statistics* are
bit-identical to the per-object walk — at most ``block − 1`` scores past
the termination point are computed speculatively and discarded.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import TKDAlgorithm
from .dataset import IncompleteDataset
from .maxscore import max_scores, maxscore_queue
from .result import CandidateSet, TKDResult
from .score import score_one
from .stats import QueryStats

__all__ = ["UBBTKD", "ubb_tkd"]


class UBBTKD(TKDAlgorithm):
    """Upper bound based TKD over incomplete data."""

    name = "ubb"

    def __init__(
        self,
        dataset: IncompleteDataset,
        *,
        enable_h1: bool = True,
        block: int | None = None,
    ) -> None:
        super().__init__(dataset)
        #: Ablation switch: with Heuristic 1 off, the whole queue is scored
        #: (the candidate-set maintenance still yields the exact answer).
        self._enable_h1 = bool(enable_h1)
        #: When set, exact scores come from blocked kernel sweeps over queue
        #: chunks of this size (identical answers and statistics).
        self._block = None if block is None else int(block)
        self._maxscore: np.ndarray | None = None
        self._queue: np.ndarray | None = None

    def _prepare(self) -> None:
        self._maxscore = max_scores(self.dataset)
        self._queue = maxscore_queue(self.dataset, self._maxscore)

    @property
    def maxscores(self) -> np.ndarray:
        """Per-object ``MaxScore`` bounds (Lemma 2)."""
        self.prepare()
        return self._maxscore

    @property
    def queue(self) -> np.ndarray:
        """The priority queue ``F`` (indices by descending ``MaxScore``)."""
        self.prepare()
        return self._queue

    def _run(self, k: int, *, tie_break: str, rng, stats: QueryStats) -> tuple[Sequence[int], Sequence[int]]:
        del tie_break, rng  # CandidateSet keeps the canonical boundary ties
        dataset = self.dataset
        candidates = CandidateSet(k)
        n = dataset.n

        if self._block is not None:
            self._run_blocked(candidates, stats)
        else:
            for position, index in enumerate(self._queue.tolist()):
                if self._enable_h1 and not candidates.beats(self._maxscore[index], index):
                    stats.pruned_h1 = n - position  # Heuristic 1: head + everything behind it
                    break
                score = score_one(dataset, index)
                stats.scores_computed += 1
                candidates.offer(index, score)
        stats.comparisons = self._pairwise_cost(stats.scores_computed, n)

        items = candidates.items()
        return [idx for idx, _ in items], [score for _, score in items]

    def _run_blocked(self, candidates: CandidateSet, stats: QueryStats) -> None:
        """Chunked queue walk: one kernel sweep per chunk, same semantics.

        The Heuristic 1 check still runs per object *before* its score is
        consumed; precomputed scores behind a termination point are simply
        dropped (speculative work, never visible in results or counters).
        """
        from ..engine.kernels import dominated_counts

        n = self.dataset.n
        for start in range(0, n, self._block):
            chunk = self._queue[start : start + self._block]
            chunk_scores = dominated_counts(self.dataset, chunk, block=chunk.size)
            for offset, index in enumerate(chunk.tolist()):
                if self._enable_h1 and not candidates.beats(self._maxscore[index], index):
                    stats.pruned_h1 = n - (start + offset)  # Heuristic 1
                    return
                stats.scores_computed += 1
                candidates.offer(index, int(chunk_scores[offset]))


def ubb_tkd(dataset: IncompleteDataset, k: int, *, tie_break: str = "index", rng=None) -> TKDResult:
    """One-shot UBB TKD query."""
    return UBBTKD(dataset).query(k, tie_break=tie_break, rng=rng)
