"""UBB-style TKD processing on top of the alternative indexes.

:class:`IndexBackedTKD` generalizes the paper's Algorithm 2: visit objects
in descending order of an index-provided upper bound, maintain the k-slot
candidate set with threshold ``τ``, stop as soon as the next bound is
``≤ τ`` (Heuristic 1 with the backend's bound in place of ``MaxScore``),
and obtain exact scores through the backend's filter-and-verify
:meth:`~repro.indexes.base.IncompleteIndex.score`.

This makes the Section 2.2 structures (MOSAIC, BR-tree, quantization)
directly comparable with the paper's own algorithms: same query semantics,
same statistics, different pruning machinery. The registry exposes them as
``"mosaic"``, ``"brtree"``, and ``"quantization"``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.base import TKDAlgorithm
from ..core.dataset import IncompleteDataset
from ..core.result import CandidateSet
from ..core.stats import QueryStats
from ..errors import InvalidParameterError
from .base import IncompleteIndex, dominated_within
from .brtree import BRTreeIndex
from .mosaic import MosaicIndex
from .quantization import QuantizationIndex

__all__ = [
    "INDEX_BACKENDS",
    "IndexBackedTKD",
    "MosaicTKD",
    "BRTreeTKD",
    "QuantizationTKD",
]

#: Backend registry: name → index class.
INDEX_BACKENDS: dict[str, type[IncompleteIndex]] = {
    MosaicIndex.name: MosaicIndex,
    BRTreeIndex.name: BRTreeIndex,
    QuantizationIndex.name: QuantizationIndex,
}


class IndexBackedTKD(TKDAlgorithm):
    """TKD via upper-bound ordering over an alternative incomplete index."""

    name = "index-backed"
    #: Default backend; the concrete registry subclasses pin their own.
    backend_name = "mosaic"

    def __init__(
        self,
        dataset: IncompleteDataset,
        *,
        backend: str | None = None,
        enable_h1: bool = True,
        **backend_options,
    ) -> None:
        super().__init__(dataset)
        backend = (backend or self.backend_name).lower()
        try:
            backend_cls = INDEX_BACKENDS[backend]
        except KeyError:
            raise InvalidParameterError(
                f"unknown index backend {backend!r}; available: {', '.join(INDEX_BACKENDS)}"
            ) from None
        self.index = backend_cls(dataset, **backend_options)
        self._enable_h1 = bool(enable_h1)
        self._bounds: np.ndarray | None = None
        self._queue: np.ndarray | None = None

    def _prepare(self) -> None:
        self.index.build()
        n = self.dataset.n
        bounds = np.empty(n, dtype=np.int64)
        for row in range(n):
            bounds[row] = self.index.upper_bound_score(row)
        self._bounds = bounds
        # Descending bound, ascending row for deterministic visit order.
        self._queue = np.lexsort((np.arange(n), -bounds))

    @property
    def bounds(self) -> np.ndarray:
        """Per-object index upper bounds (the queue keys)."""
        self.prepare()
        return self._bounds

    @property
    def index_bytes(self) -> int:
        return self.index.index_bytes if self._prepared else 0

    def _run(
        self, k: int, *, tie_break: str, rng, stats: QueryStats
    ) -> tuple[Sequence[int], Sequence[int]]:
        del tie_break, rng  # CandidateSet keeps the canonical boundary ties
        candidates = CandidateSet(k)
        n = self.dataset.n

        for position, row in enumerate(self._queue.tolist()):
            if self._enable_h1 and not candidates.beats(self._bounds[row], row):
                stats.pruned_h1 = n - position
                break
            candidate_rows = self.index.candidate_rows(row)
            score = int(dominated_within(self.dataset, row, candidate_rows).sum())
            stats.scores_computed += 1
            stats.comparisons += int(candidate_rows.size)
            candidates.offer(row, score)

        items = candidates.items()
        return [idx for idx, _ in items], [score for _, score in items]


class MosaicTKD(IndexBackedTKD):
    """TKD through per-bucket aR-trees (MOSAIC)."""

    name = "mosaic"
    backend_name = "mosaic"


class BRTreeTKD(IndexBackedTKD):
    """TKD through the bitstring-augmented R-tree."""

    name = "brtree"
    backend_name = "brtree"


class QuantizationTKD(IndexBackedTKD):
    """TKD through the quantization (rank) index."""

    name = "quantization"
    backend_name = "quantization"
