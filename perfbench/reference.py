"""Exact reference answers, computed independently of the engine.

The engine's own oracle routes (``naive``, module-level ``score_all``)
take about half a minute per n=20000 dataset, so the benchmark carries a
cheaper exact route of its own: blocked NumPy broadcasting over the
minimised matrix (NaN compares false both ways, which is exactly the
"only dimensions observed in both" rule of Definition 1), restricted by
a per-dimension counting upper bound so that only objects that could
reach the top-k are scored exactly.

:class:`Reference` certifies the top ``K`` of one dataset once; every
answer with ``k <= K`` is then checked against it by :meth:`Reference.check`.
:class:`StreamModel` replays a write stream with exact incremental score
maintenance, for checking :class:`~repro.engine.session.ContinuousQuery`
reads.
"""

from __future__ import annotations

import numpy as np

#: Objects scored per broadcast block (block x n x d booleans at a time).
_BLOCK = 256


def exact_scores(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Dominated counts of *rows* against every row of *values*.

    *values* is the minimised ``(n, d)`` matrix (smaller is better, NaN
    where missing). Row ``o`` dominates ``p`` iff no common observed
    dimension has ``o > p`` and at least one has ``o < p``.
    """
    columns = np.ascontiguousarray(values.T)
    out = np.empty(len(rows), dtype=np.int64)
    for start in range(0, len(rows), _BLOCK):
        block = values[rows[start : start + _BLOCK]]
        better = np.zeros((len(block), values.shape[0]), dtype=bool)
        worse = np.zeros_like(better)
        for dim in range(values.shape[1]):
            mine = block[:, dim : dim + 1]
            theirs = columns[dim][None, :]
            better |= mine < theirs
            worse |= mine > theirs
        out[start : start + len(block)] = np.count_nonzero(better & ~worse, axis=1)
    return out


def upper_bounds(values: np.ndarray) -> np.ndarray:
    """Per-object score upper bounds from per-dimension counts.

    For every dimension ``i`` observed in ``o``, each object ``o``
    dominates is either missing ``i`` or no better than ``o`` on it, so
    ``score(o) <= #{p != o : p[i] missing or p[i] >= o[i]}``.
    """
    n, d = values.shape
    bound = np.full(n, n - 1, dtype=np.int64)
    for dim in range(d):
        column = values[:, dim]
        observed = ~np.isnan(column)
        present = np.sort(column[observed])
        at_least = len(present) - np.searchsorted(present, column[observed], side="left")
        counts = at_least + (n - len(present)) - 1
        bound[observed] = np.minimum(bound[observed], counts)
    bound[np.isnan(values).all(axis=1)] = 0
    return bound


class Reference:
    """Certified exact top-``K`` of one dataset (``K`` = largest k checked).

    Objects are scored exactly in descending upper-bound order until the
    next bound cannot beat the K-th best exact score; every object left
    unscored then provably scores at most that value.
    """

    def __init__(self, values: np.ndarray, top: int) -> None:
        self.values = np.asarray(values, dtype=np.float32)
        self.n = self.values.shape[0]
        self.top = int(top)
        bound = upper_bounds(self.values)
        order = np.argsort(-bound, kind="stable")
        exact = np.full(self.n, -1, dtype=np.int64)
        best = np.empty(0, dtype=np.int64)
        position = 0
        while position < self.n:
            rows = order[position : position + 4 * _BLOCK]
            exact[rows] = exact_scores(self.values, rows)
            position += len(rows)
            best = np.sort(np.concatenate([best, exact[rows]]))[::-1][: self.top]
            if len(best) >= self.top and (position >= self.n or bound[order[position]] <= best[-1]):
                break
        self.exact = exact
        #: Upper bound of every object never scored exactly (0 when all were).
        self.unscored_bound = int(bound[order[position]]) if position < self.n else 0
        self.top_scores = best

    def score_of(self, indices) -> np.ndarray:
        """Exact scores of *indices* (computed on demand when not cached)."""
        indices = np.asarray(indices, dtype=np.intp)
        scores = self.exact[indices].copy()
        missing = scores < 0
        if missing.any():
            scores[missing] = exact_scores(self.values, indices[missing])
        return scores

    def check(self, k: int, indices, scores) -> str | None:
        """Why an answer ``(indices, scores)`` for *k* is wrong, or ``None``.

        The answer contract every exact route meets: k distinct valid
        rows, each returned score exact, the score multiset equal to the
        reference's top-k multiset, and no object left out scoring above
        the k-th returned score.
        """
        if k > self.top:
            raise ValueError(f"reference certified only the top {self.top}, asked k={k}")
        indices = np.asarray(indices, dtype=np.intp)
        scores = np.asarray(scores, dtype=np.int64)
        if len(indices) != k or len(scores) != k:
            return f"returned {len(indices)} rows for k={k}"
        if len(set(indices.tolist())) != k or indices.min() < 0 or indices.max() >= self.n:
            return "returned rows are not k distinct valid indices"
        true_scores = self.score_of(indices)
        if not np.array_equal(true_scores, scores):
            return "a returned score is not the object's exact score"
        if not np.array_equal(np.sort(scores)[::-1], self.top_scores[:k]):
            return "score multiset differs from the reference top-k"
        left_out = np.ones(self.n, dtype=bool)
        left_out[indices] = False
        known = left_out & (self.exact >= 0)
        ceiling = max(int(self.exact[known].max(initial=0)), self.unscored_bound)
        if ceiling > scores.min():
            return "an object left out outscores the k-th returned score"
        return None


class StreamModel:
    """Exact scores of a dataset under a stream of id-addressed writes.

    Keeps rows by id and maintains every live object's dominated count
    with one ``O(n·d)`` broadcast per write, independently of the engine.
    """

    def __init__(self, ids, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float32)
        capacity = 2 * len(ids) + 64
        self._values = np.full((capacity, values.shape[1]), np.nan, dtype=np.float32)
        self._values[: len(ids)] = values
        self._live = np.zeros(capacity, dtype=bool)
        self._live[: len(ids)] = True
        self._scores = np.zeros(capacity, dtype=np.int64)
        self._scores[: len(ids)] = exact_scores(values, np.arange(len(ids)))
        self._slot = {object_id: slot for slot, object_id in enumerate(ids)}
        self._free = list(range(capacity - 1, len(ids) - 1, -1))

    def _relations(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(objects *row* dominates, objects dominating *row*) as masks."""
        better = np.zeros(len(self._values), dtype=bool)
        worse = np.zeros_like(better)
        for dim, value in enumerate(row):
            column = self._values[:, dim]
            better |= value < column
            worse |= value > column
        return better & ~worse & self._live, worse & ~better & self._live

    def insert(self, object_id: str, row) -> None:
        row = np.asarray(row, dtype=np.float32)
        dominated, dominators = self._relations(row)
        slot = self._free.pop()
        self._scores[dominators] += 1
        self._values[slot] = row
        self._live[slot] = True
        self._scores[slot] = int(dominated.sum())
        self._slot[object_id] = slot

    def delete(self, object_id: str) -> None:
        slot = self._slot.pop(object_id)
        self._live[slot] = False
        _, dominators = self._relations(self._values[slot])
        self._scores[dominators] -= 1
        self._values[slot] = np.nan
        self._free.append(slot)

    def update(self, object_id: str, row) -> None:
        self.delete(object_id)
        self.insert(object_id, row)

    def score(self, object_id: str) -> int:
        return int(self._scores[self._slot[object_id]])

    def scores_for(self, ids) -> np.ndarray:
        return np.array([self._scores[self._slot[object_id]] for object_id in ids], dtype=np.int64)

    def cold_scores(self, ids) -> np.ndarray:
        """Scores of *ids* recomputed from scratch over the live rows."""
        slots = np.array([self._slot[object_id] for object_id in ids], dtype=np.intp)
        live = np.flatnonzero(self._live)
        position = np.empty(len(self._values), dtype=np.intp)
        position[live] = np.arange(len(live))
        return exact_scores(self._values[live], position[slots])

    def top_scores(self, k: int) -> np.ndarray:
        live = self._scores[self._live]
        return np.sort(live)[::-1][:k]

    def check(self, k: int, pairs) -> str | None:
        """Why a ``[(id, score), ...]`` answer for *k* is wrong, or ``None``."""
        ids = [object_id for object_id, _ in pairs]
        scores = np.array([score for _, score in pairs], dtype=np.int64)
        if len(ids) != k or len(set(ids)) != k:
            return f"returned {len(set(ids))} distinct ids for k={k}"
        if any(object_id not in self._slot for object_id in ids):
            return "returned an id that is not live"
        if not np.array_equal(self.scores_for(ids), scores):
            return "a returned score is not the object's exact score"
        if not np.array_equal(np.sort(scores)[::-1], self.top_scores(k)):
            return "score multiset differs from the reference top-k"
        left_out = self._live.copy()
        left_out[[self._slot[object_id] for object_id in ids]] = False
        if int(self._scores[left_out].max(initial=0)) > scores.min():
            return "an object left out outscores the k-th returned score"
        return None
