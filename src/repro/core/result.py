"""Query results and tie-breaking for TKD queries.

A TKD query (paper Definition 3) returns the ``k`` objects with highest
``score``. When several objects tie at the k-th score the paper "adopts
random selection as a tie breaker"; for reproducible pipelines the library
defaults to a deterministic lowest-index rule and offers seeded random
tie-breaking as an option.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .._util import coerce_rng, format_table
from ..errors import InvalidParameterError
from .dataset import IncompleteDataset
from .stats import QueryStats

__all__ = ["TKDResult", "CandidateSet", "select_top_k", "validate_k"]

_TIE_BREAKS = ("index", "random")


def validate_k(k, n: int) -> int:
    """Validate a TKD ``k``; values above ``n`` are clamped to ``n``.

    The paper implicitly assumes ``k ≤ |S|``; clamping (rather than raising)
    matches what every reasonable engine does when asked for more rows than
    exist.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
    if k <= 0:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    return int(min(k, n))


def select_top_k(
    scores: np.ndarray,
    k: int,
    *,
    tie_break: str = "index",
    rng=None,
    eligible: np.ndarray | None = None,
) -> list[int]:
    """Pick ``k`` indices with the highest *scores* under a tie-break policy.

    Parameters
    ----------
    scores: integer scores per object index (higher is better).
    k: how many to select (must already be validated).
    tie_break: ``"index"`` (deterministic, lowest index wins among ties) or
        ``"random"`` (seeded by *rng*, the paper's stated policy).
    eligible: optional boolean mask restricting the selectable indices
        (used by ESB, whose candidates are a subset of the dataset).

    Returns the selected indices ordered by descending score (ties in the
    returned ordering follow the same policy).

    Only the rows scoring at least the k-th best value (found by
    ``np.partition``) are sorted; the answer is the one a full sort
    gives, since every row behind that value ranks behind all of them.
    """
    if tie_break not in _TIE_BREAKS:
        raise InvalidParameterError(f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}")
    scores = np.asarray(scores)
    candidates = np.flatnonzero(eligible) if eligible is not None else np.arange(scores.size)
    if k > candidates.size:
        k = candidates.size
    if k <= 0:
        return []
    if tie_break == "random":
        # Draw the permutation over every candidate first, so the
        # filtered, stably sorted head matches a full stable sort.
        candidates = candidates[coerce_rng(rng).permutation(candidates.size)]

    # Scores may be ints (Definition 2) or floats (MFD weighting) — never
    # truncate them in the ordering key.
    keys = -scores[candidates].astype(np.float64)
    kth = np.partition(keys, k - 1)[k - 1]
    within = ~(keys > kth)  # NaN keys (sorted last anyway) never shrink the head
    head, head_keys = candidates[within], keys[within]
    if tie_break == "index":
        return head[np.lexsort((head, head_keys))[:k]].tolist()
    return head[np.argsort(head_keys, kind="stable")[:k]].tolist()


class CandidateSet:
    """The ``S_C``/τ maintenance of Algorithm 2 (lines 7–11).

    Keeps the ``k`` best (index, score) candidates offered so far, ranked
    by the canonical answer order: higher score first, then lower index.
    ``tau`` is the paper's ``τ``: the minimum score in a *full* candidate
    set, or ``-1`` while the set holds fewer than ``k`` objects. Where the
    paper evicts "any" τ-tied candidate, this set evicts the highest
    index, so every loop built on it returns the canonical
    ``tie_break="index"`` answer.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise InvalidParameterError(f"CandidateSet needs k >= 1, got {k}")
        self.k = int(k)
        self._heap: list[tuple[int, int]] = []  # (score, -index): heap[0] ranks last

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        """True once ``k`` candidates are held."""
        return len(self._heap) >= self.k

    @property
    def tau(self) -> int:
        """Current pruning threshold ``τ`` (−1 while not full)."""
        if not self.full:
            return -1
        return self._heap[0][0]

    def beats(self, bound, row: int) -> bool:
        """Could *row*, scoring at most *bound*, still enter the set?

        The one comparison every prune asks (Heuristics 1 and 2): false
        means *row* ranks behind every held candidate even at its bound.
        Heuristic 1 may stop a whole queue on it because every queue
        orders equal bounds by ascending row (``maxscore_queue``'s stable
        argsort, the index backends' lexsort), so nothing behind the
        head can rank ahead of it.
        """
        return not self.full or (bound, -row) > self._heap[0]

    def offer(self, index: int, score: int) -> bool:
        """Apply Algorithm 2 lines 7–11 for one scored object.

        Returns True iff the object was enrolled into ``S_C``.
        """
        if not self.beats(score, index):
            return False
        entry = (int(score), -int(index))
        if self.full:
            heapq.heappushpop(self._heap, entry)
        else:
            heapq.heappush(self._heap, entry)
        return True

    def items(self) -> list[tuple[int, int]]:
        """Current ``(index, score)`` pairs in canonical answer order."""
        return [(-neg, score) for score, neg in sorted(self._heap, reverse=True)]


@dataclass
class TKDResult:
    """Outcome of a top-k dominating query.

    Attributes
    ----------
    indices: selected object row indices, descending score order.
    scores: matching ``score(o)`` values.
    ids: matching object labels.
    k: the requested (validated) ``k``.
    algorithm: name of the algorithm that produced the result.
    stats: the run's :class:`~repro.core.stats.QueryStats`.
    """

    indices: list[int]
    scores: list[int]
    ids: list[str]
    k: int
    algorithm: str
    stats: QueryStats = field(default_factory=QueryStats)

    @classmethod
    def from_selection(
        cls,
        dataset: IncompleteDataset,
        selection: Sequence[int],
        scores: Sequence[int],
        *,
        k: int,
        algorithm: str,
        stats: QueryStats | None = None,
    ) -> "TKDResult":
        """Assemble a result, resolving ids from the dataset."""
        indices = [int(i) for i in selection]
        all_ids = dataset.ids
        return cls(
            indices=indices,
            scores=[int(s) for s in scores],
            ids=[all_ids[i] for i in indices],
            k=int(k),
            algorithm=algorithm,
            stats=stats if stats is not None else QueryStats(algorithm=algorithm),
        )

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(index, score)`` pairs in rank order."""
        return iter(zip(self.indices, self.scores))

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def score_multiset(self) -> tuple[int, ...]:
        """Sorted (descending) tuple of returned scores.

        The invariant that survives ``tie_break="random"``: every correct
        TKD answer for the same ``(S, k)`` has the same score multiset.
        Under ``tie_break="index"`` every exact route agrees on the ids
        too, so compare ``indices`` and ``scores`` there instead.
        """
        return tuple(sorted(self.scores, reverse=True))

    @property
    def id_set(self) -> frozenset:
        """The returned object labels as a set (order-insensitive)."""
        return frozenset(self.ids)

    def jaccard_distance(self, other: "TKDResult") -> float:
        """Jaccard distance ``1 − |A∩B| / |A∪B|`` between two results.

        Used by the paper's Table 4 to compare the incomplete-data answer
        with the answer on imputed (completed) data.
        """
        a, b = self.id_set, other.id_set
        union = a | b
        if not union:
            return 0.0
        return 1.0 - len(a & b) / len(union)

    def as_table(self) -> str:
        """Human-readable ranking table."""
        rows = [
            (rank + 1, self.ids[rank], self.indices[rank], self.scores[rank])
            for rank in range(len(self.indices))
        ]
        return format_table(["rank", "id", "row", "score"], rows)
