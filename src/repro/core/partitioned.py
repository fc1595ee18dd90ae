"""Partition-pruned streaming TKD for massive incomplete data.

The paper's related work cites TDEP (Han, Li & Gao [24]) for TKD queries
"on massive data" — datasets processed partition-by-partition under a
bounded working memory instead of all at once. This module transplants
that idea to the incomplete-data model:

* The dataset is split into fixed-size row partitions. One pass builds a
  small **synopsis** per partition: the OR and AND of its objects'
  observed-dimension patterns and the per-dimension maxima of its
  observed values.
* Queries then run the UBB control flow (``MaxScore`` queue + Heuristic
  1), but ``Get-Score`` streams over partitions and uses the synopses to
  skip partitions wholesale:

  - a partition whose pattern-OR is disjoint from the probe's pattern
    contains only incomparable objects;
  - a partition where some probe dimension is observed by *every* member
    (pattern-AND) yet the partition maximum on it is below the probe's
    value cannot contain anything the probe dominates.

Peak working memory is one partition of rows plus the synopses — the
shape a disk-resident implementation would have, with partition skips
standing in for saved I/O. Skips are reported in
``stats.extra["partitions_skipped"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._util import require_positive_int
from .base import TKDAlgorithm
from .dataset import IncompleteDataset
from .maxscore import max_scores, maxscore_queue
from .result import CandidateSet, TKDResult
from .stats import QueryStats

__all__ = ["PartitionSynopsis", "PartitionedTKD", "partitioned_tkd"]


@dataclass(frozen=True)
class PartitionSynopsis:
    """One partition's pruning summary (built in a single scan)."""

    #: Row range ``[start, stop)`` of the partition.
    start: int
    stop: int
    #: OR of member observed-patterns: dimensions observed by *some* member.
    pattern_or: int
    #: AND of member observed-patterns: dimensions observed by *all* members.
    pattern_and: int
    #: Per-dimension max over observed values (``-inf`` where none observed).
    max_observed: np.ndarray

    @property
    def count(self) -> int:
        """Number of rows summarised."""
        return self.stop - self.start


def _build_synopses(dataset: IncompleteDataset, partition_rows: int) -> list[PartitionSynopsis]:
    synopses = []
    observed = dataset.observed
    minimized = dataset.minimized
    patterns = dataset.patterns
    for start in range(0, dataset.n, partition_rows):
        stop = min(start + partition_rows, dataset.n)
        pattern_or = 0
        pattern_and = -1
        for row in range(start, stop):
            pattern_or |= patterns[row]
            pattern_and &= patterns[row]
        block_vals = np.where(observed[start:stop], minimized[start:stop], -np.inf)
        synopses.append(
            PartitionSynopsis(
                start=start,
                stop=stop,
                pattern_or=pattern_or,
                pattern_and=pattern_and,
                max_observed=block_vals.max(axis=0),
            )
        )
    return synopses


class PartitionedTKD(TKDAlgorithm):
    """TDEP-inspired bounded-memory TKD over incomplete data."""

    name = "partitioned"

    def __init__(
        self,
        dataset: IncompleteDataset,
        *,
        partition_rows: int = 2048,
        enable_h1: bool = True,
    ) -> None:
        super().__init__(dataset)
        self.partition_rows = require_positive_int(partition_rows, "partition_rows")
        self._enable_h1 = bool(enable_h1)
        self._synopses: list[PartitionSynopsis] | None = None
        self._maxscore: np.ndarray | None = None
        self._queue: np.ndarray | None = None

    def _prepare(self) -> None:
        self._synopses = _build_synopses(self.dataset, self.partition_rows)
        self._maxscore = max_scores(self.dataset)
        self._queue = maxscore_queue(self.dataset, self._maxscore)

    @property
    def synopses(self) -> list[PartitionSynopsis]:
        """Per-partition summaries (built on first use)."""
        self.prepare()
        return list(self._synopses)

    @property
    def index_bytes(self) -> int:
        """Synopsis storage: the only per-partition state kept resident."""
        if not self._prepared:
            return 0
        pattern_bytes = max(1, (self.dataset.d + 7) // 8) * 2
        return sum(s.max_observed.nbytes + pattern_bytes + 16 for s in self._synopses)

    # -- streaming score -----------------------------------------------------

    def _can_skip(self, synopsis: PartitionSynopsis, probe_pattern: int, probe: np.ndarray) -> bool:
        if (synopsis.pattern_or & probe_pattern) == 0:
            return True
        safe = synopsis.pattern_and & probe_pattern
        while safe:
            dim = (safe & -safe).bit_length() - 1
            if synopsis.max_observed[dim] < probe[dim]:
                return True
            safe &= safe - 1
        return False

    def _streaming_score(self, row: int, stats: QueryStats) -> int:
        """Exact ``score(row)`` accumulated partition by partition."""
        dataset = self.dataset
        observed = dataset.observed
        filled = np.where(observed, dataset.minimized, 0.0)
        probe_values = filled[row]
        probe_mask = observed[row]
        probe_pattern = dataset.patterns[row]

        total = 0
        for synopsis in self._synopses:
            if self._can_skip(synopsis, probe_pattern, probe_values):
                stats.extra["partitions_skipped"] = stats.extra.get("partitions_skipped", 0) + 1
                continue
            stats.extra["partitions_scanned"] = stats.extra.get("partitions_scanned", 0) + 1
            block = slice(synopsis.start, synopsis.stop)
            common = observed[block] & probe_mask
            le_all = np.all(~common | (probe_values <= filled[block]), axis=1)
            lt_any = np.any(common & (probe_values < filled[block]), axis=1)
            dominated = le_all & lt_any
            if synopsis.start <= row < synopsis.stop:
                dominated[row - synopsis.start] = False
            total += int(np.count_nonzero(dominated))
            stats.comparisons += synopsis.count
        return total

    def _run(
        self, k: int, *, tie_break: str, rng, stats: QueryStats
    ) -> tuple[Sequence[int], Sequence[int]]:
        del tie_break, rng  # CandidateSet keeps the canonical boundary ties
        candidates = CandidateSet(k)
        n = self.dataset.n
        stats.extra["partition_rows"] = self.partition_rows
        stats.extra["partitions"] = len(self._synopses)

        for position, index in enumerate(self._queue.tolist()):
            if self._enable_h1 and not candidates.beats(self._maxscore[index], index):
                stats.pruned_h1 = n - position
                break
            score = self._streaming_score(index, stats)
            stats.scores_computed += 1
            candidates.offer(index, score)

        items = candidates.items()
        return [idx for idx, _ in items], [score for _, score in items]


def partitioned_tkd(
    dataset: IncompleteDataset,
    k: int,
    *,
    partition_rows: int = 2048,
    tie_break: str = "index",
    rng=None,
) -> TKDResult:
    """One-shot partition-pruned TKD query."""
    algorithm = PartitionedTKD(dataset, partition_rows=partition_rows)
    return algorithm.query(k, tie_break=tie_break, rng=rng)
