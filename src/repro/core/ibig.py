"""IBIG — the Improved BIG algorithm (paper Section 4.4, Alg. 5).

IBIG trades query time for index space along two axes:

* **binning** — the index encodes value *bins* (Eqs. 3–4) instead of
  distinct values, shrinking storage from ``Σ(C_i+1)·N`` to
  ``Σ(ξ_i+1)·N`` bits; the Eq. 8 optimum ``ξ*`` balances the space × time
  product;
* **compression** — columns are kept CONCISE-compressed at rest (the
  paper picks CONCISE over WAH from the Fig. 10 comparison) and
  materialised on demand for query evaluation.

Because a same-bin neighbour may actually be *smaller* than ``o``, the
``Q − P`` rim needs value verification. IBIG-Score therefore gains
**Heuristic 3 (partial-score pruning)**: while collecting strictly-smaller
rim members into ``nonD(o)``, as soon as
``|nonD(o)| > |Q| − |F(o)| − τ`` the object's score provably cannot reach
``τ`` and evaluation aborts.

Two rim-verification backends are provided:

* vectorised NumPy comparisons (default), and
* per-dimension B+-tree bin scans (``use_btree=True``), the paper's own
  description, whose cost is the Eq. 6 model ``log(σN) + ⌈σN/ξ⌉ − 1``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..bitmap.binned import BinnedBitmapIndex
from ..bitmap.binning import optimal_bin_count
from ..bitmap.compression import CompressedColumnStore
from ..btree.bptree import BPlusTree
from ..skyband.buckets import BucketIndex
from .base import TKDAlgorithm
from .dataset import IncompleteDataset
from .maxscore import max_scores, maxscore_queue
from .result import CandidateSet, TKDResult
from .stats import QueryStats

__all__ = ["IBIGTKD", "ibig_tkd"]


class IBIGTKD(TKDAlgorithm):
    """Improved bitmap index guided TKD over incomplete data."""

    name = "ibig"

    def __init__(
        self,
        dataset: IncompleteDataset,
        *,
        bins: int | Sequence[int] | None = None,
        index: BinnedBitmapIndex | None = None,
        buckets: BucketIndex | None = None,
        compress: str | None = "concise",
        use_btree: bool = False,
        enable_h1: bool = True,
        enable_h2: bool = True,
        enable_h3: bool = True,
    ) -> None:
        super().__init__(dataset)
        self._bins = bins
        self._index = index
        self._buckets = buckets
        self._compress = compress
        self._use_btree = bool(use_btree)
        #: Ablation switches for the three heuristics (answers stay exact).
        self._enable_h1 = bool(enable_h1)
        self._enable_h2 = bool(enable_h2)
        self._enable_h3 = bool(enable_h3)
        self._store: CompressedColumnStore | None = None
        self._trees: list[BPlusTree] | None = None
        self._maxscore: np.ndarray | None = None
        self._queue: np.ndarray | None = None
        self._filled: np.ndarray | None = None

    def _prepare(self) -> None:
        dataset = self.dataset
        if self._index is None:
            bins = self._bins
            if bins is None:
                bins = optimal_bin_count(dataset.n, dataset.missing_rate)
            self._index = BinnedBitmapIndex(dataset, bins)
        if self._buckets is None:
            self._buckets = BucketIndex(dataset)
        if self._compress is not None:
            self._store = CompressedColumnStore(self._index, self._compress)
        if self._use_btree:
            self._trees = self._build_trees()
        self._maxscore = max_scores(dataset)
        self._queue = maxscore_queue(dataset, self._maxscore)
        self._filled = np.where(dataset.observed, dataset.minimized, 0.0)

    def _build_trees(self) -> list[BPlusTree]:
        dataset = self.dataset
        trees = []
        for dim in range(dataset.d):
            rows = np.flatnonzero(dataset.observed[:, dim])
            pairs = sorted(
                (float(dataset.minimized[row, dim]), int(row)) for row in rows
            )
            trees.append(BPlusTree.bulk_load(pairs))
        return trees

    # -- public surface --------------------------------------------------------

    @property
    def index(self) -> BinnedBitmapIndex:
        """The binned bitmap index."""
        self.prepare()
        return self._index

    @property
    def index_bytes(self) -> int:
        """Compressed at-rest size when compression is on, else logical size."""
        if self._store is not None:
            return self._store.compressed_bytes
        if self._index is None:
            return 0
        return self._index.size_bits // 8

    @property
    def compression_report(self):
        """The CONCISE/WAH compression report (None when uncompressed)."""
        self.prepare()
        return self._store.report if self._store is not None else None

    # -- IBIG-Score ---------------------------------------------------------------

    def _bit_score(self, row: int, candidates: CandidateSet, stats: QueryStats) -> int | None:
        """Algorithm 5. None = pruned (Heuristic 2 or 3)."""
        dataset = self.dataset
        q_vec = self._index.q_intersection(row)
        q_vec.set(row, False)
        max_bit_score = q_vec.count()
        if self._enable_h2 and not candidates.beats(max_bit_score, row):
            stats.pruned_h2 += 1
            return None

        p_vec = self._index.p_intersection(row)
        f_vec = self._buckets.incomparable_mask(dataset.patterns[row])
        g_count = p_vec.andnot(f_vec).count()  # |G(o)| = |P − F(o)|

        rim = q_vec.andnot(p_vec)
        rim_rows = rim.indices()
        l_count = 0
        if rim_rows.size:
            stats.comparisons += int(rim_rows.size)
            if self._use_btree:
                strictly_less = self._strictly_less_via_btree(row, rim_rows)
            else:
                strictly_less = self._strictly_less_vectorised(row, rim_rows)
            n_less = int(strictly_less.sum())
            if (
                self._enable_h3
                and candidates.full
                and n_less > max_bit_score - f_vec.count() - candidates.tau
            ):
                stats.pruned_h3 += 1  # Heuristic 3: score(o) < tau is certain
                return None
            common = dataset.observed[rim_rows] & dataset.observed[row]
            equal = common & (self._filled[rim_rows] == self._filled[row])
            all_equal = equal.sum(axis=1) == common.sum(axis=1)
            # nonD(o) = strictly-less members ∪ all-equal members (disjoint).
            l_count = int(rim_rows.size - n_less - all_equal.sum())
        return g_count + l_count

    def _strictly_less_vectorised(self, row: int, rim_rows: np.ndarray) -> np.ndarray:
        """Rim members with a common observed dim strictly below o's value."""
        dataset = self.dataset
        common = dataset.observed[rim_rows] & dataset.observed[row]
        return (common & (self._filled[rim_rows] < self._filled[row])).any(axis=1)

    def _strictly_less_via_btree(self, row: int, rim_rows: np.ndarray) -> np.ndarray:
        """Same predicate via per-dimension B+-tree bin scans (paper's route).

        For each observed dimension of ``o`` the candidates that might be
        smaller all sit inside o's bin, below o's value: scan
        ``[bin_lower_edge, o_value)`` and intersect with the rim.
        """
        dataset = self.dataset
        in_rim = np.zeros(dataset.n, dtype=bool)
        in_rim[rim_rows] = True
        out_mask = np.zeros(dataset.n, dtype=bool)
        for dim in range(dataset.d):
            if not dataset.observed[row, dim]:
                continue
            value = float(dataset.minimized[row, dim])
            lower = self._index.bin_lower_edge(row, dim)
            for _key, payload in self._trees[dim].range_scan(lower, value, include_high=False):
                if in_rim[payload]:
                    out_mask[payload] = True
        return out_mask[rim_rows]

    # -- main loop ----------------------------------------------------------------

    def _run(self, k: int, *, tie_break: str, rng, stats: QueryStats) -> tuple[Sequence[int], Sequence[int]]:
        del tie_break, rng  # CandidateSet keeps the canonical boundary ties
        candidates = CandidateSet(k)
        n = self.dataset.n
        stats.extra["bin_counts"] = [self._index.bin_count(j) for j in range(self.dataset.d)]
        if self._store is not None:
            stats.extra["compression_ratio"] = self._store.report.ratio

        for position, index in enumerate(self._queue.tolist()):
            if self._enable_h1 and not candidates.beats(self._maxscore[index], index):
                stats.pruned_h1 = n - position  # Heuristic 1
                break
            score = self._bit_score(index, candidates, stats)
            if score is None:
                continue  # Heuristic 2 or 3 pruned it
            stats.scores_computed += 1
            candidates.offer(index, score)

        items = candidates.items()
        return [idx for idx, _ in items], [score for _, score in items]


def ibig_tkd(
    dataset: IncompleteDataset,
    k: int,
    *,
    bins: int | Sequence[int] | None = None,
    tie_break: str = "index",
    rng=None,
) -> TKDResult:
    """One-shot IBIG TKD query (binned + compressed index built first)."""
    return IBIGTKD(dataset, bins=bins).query(k, tie_break=tie_break, rng=rng)
