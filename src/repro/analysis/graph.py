"""Dominance-graph analysis on incomplete data (networkx substrate).

The paper's central structural point — dominance over incomplete data is
non-transitive and may be **cyclic** (Section 3) — becomes tangible when
the relation is materialised as a directed graph. This module builds that
graph and provides the analyses the examples and tests use:

* :func:`dominance_graph` — nodes are object ids, edge ``o → p`` iff
  ``o ≻ p``; each node carries its ``score`` (out-degree ≡ Definition 2);
* :func:`find_dominance_cycles` — the cycles that make R-tree/transitive
  pruning unsound on incomplete data (always empty for complete data);
* :func:`comparability_stats` — how much of the pairwise space is even
  comparable at a given missing rate (the force behind the paper's
  Fig. 16 trend).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from ..core.dataset import IncompleteDataset
from ..core.dominance import dominated_mask
from ..errors import InvalidParameterError

__all__ = [
    "dominance_graph",
    "find_dominance_cycles",
    "is_transitive",
    "comparability_stats",
    "ComparabilityStats",
]


def dominance_graph(dataset: IncompleteDataset, *, max_n: int = 4000) -> nx.DiGraph:
    """Materialise the full dominance relation as a ``networkx`` digraph.

    Quadratic in the dataset size; guarded by *max_n*.
    """
    if dataset.n > max_n:
        raise InvalidParameterError(
            f"dominance_graph on n={dataset.n} exceeds max_n={max_n}"
        )
    graph = nx.DiGraph()
    all_ids = dataset.ids
    for row, object_id in enumerate(all_ids):
        graph.add_node(object_id, row=row)
    for row, object_id in enumerate(all_ids):
        dominated = np.flatnonzero(dominated_mask(dataset, row))
        for target in dominated:
            graph.add_edge(object_id, all_ids[int(target)])
        graph.nodes[object_id]["score"] = int(dominated.size)
    return graph


def find_dominance_cycles(
    dataset: IncompleteDataset, *, limit: int = 10, max_n: int = 2000
) -> list[list[str]]:
    """Up to *limit* dominance cycles (empty iff the relation is acyclic).

    Complete data can never produce cycles (dominance is a strict partial
    order there); incomplete data can — the paper's Fig. 2-adjacent
    remark — and this surfaces concrete witnesses.
    """
    graph = dominance_graph(dataset, max_n=max_n)
    cycles: list[list[str]] = []
    for cycle in nx.simple_cycles(graph):
        cycles.append(list(cycle))
        if len(cycles) >= limit:
            break
    return cycles


def is_transitive(dataset: IncompleteDataset, *, max_n: int = 500) -> bool:
    """Check whether the dominance relation happens to be transitive.

    True for any complete dataset; typically False once values go missing.
    """
    graph = dominance_graph(dataset, max_n=max_n)
    for a, b in graph.edges:
        for __, c in graph.out_edges(b):
            if c != a and not graph.has_edge(a, c):
                return False
            if c == a:
                return False  # a 2-cycle breaks transitivity outright
    return True


@dataclass(frozen=True)
class ComparabilityStats:
    """Pairwise comparability summary of an incomplete dataset."""

    n: int
    comparable_pairs: int
    total_pairs: int
    dominance_pairs: int

    @property
    def comparable_fraction(self) -> float:
        """Fraction of unordered pairs sharing an observed dimension."""
        if self.total_pairs == 0:
            return 1.0
        return self.comparable_pairs / self.total_pairs

    @property
    def dominance_fraction(self) -> float:
        """Fraction of unordered pairs related by dominance (either way)."""
        if self.total_pairs == 0:
            return 0.0
        return self.dominance_pairs / self.total_pairs


def comparability_stats(dataset: IncompleteDataset, *, max_n: int = 4000) -> ComparabilityStats:
    """Count comparable and dominance-related pairs (one O(n²·d) sweep)."""
    if dataset.n > max_n:
        raise InvalidParameterError(
            f"comparability_stats on n={dataset.n} exceeds max_n={max_n}"
        )
    observed = dataset.observed
    n = dataset.n
    comparable = 0
    dominance = 0
    for row in range(n):
        shared = (observed[row + 1 :] & observed[row]).any(axis=1)
        comparable += int(shared.sum())
        dominance += int(dominated_mask(dataset, row).sum())
    # Dominance is asymmetric, so the ordered-edge total equals the number
    # of unordered pairs related by dominance.
    return ComparabilityStats(
        n=n,
        comparable_pairs=comparable,
        total_pairs=n * (n - 1) // 2,
        dominance_pairs=dominance,
    )
