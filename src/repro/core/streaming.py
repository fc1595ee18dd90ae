"""Continuous TKD maintenance under insertions and deletions.

The paper's related work surveys *continuous* top-k dominating queries
(Kontaki et al., Santoso & Chiu) over complete data streams; this module
provides the incomplete-data counterpart the paper leaves open: a
:class:`StreamingTKD` structure that keeps every object's ``score``
current while objects arrive and depart.

Since the versioned-engine refactor this class is a **thin facade over
the query engine's continuous path**
(:meth:`repro.engine.session.QueryEngine.continuous`): every mutation is
a :class:`~repro.core.delta.DatasetDelta` applied to a privately owned
:class:`~repro.engine.kernels.PreparedDataset`, so streaming workloads
ride the packed-bitset fast path (dominator masks in ``O(d·n/64)`` per
update once tables exist, the vectorised ``O(n·d)`` broadcast below
that), the planner's patch-vs-rebuild cost model, amortised
doubling-growth storage with tombstoned deletion, and the engine's
stats — instead of the hand-rolled arrays the pre-engine implementation
maintained. The public API is unchanged; scores are identical.

The key observation still makes maintenance cheap: inserting an object
``o`` changes an existing score only where ``p ≻ o`` (each such ``p``
gains exactly one dominated object), and symmetrically for deletion —
a single dominator-mask pass versus ``O(n²·d)`` recomputation.
Non-transitivity costs nothing here because scores are plain dominated
*counts*, not closures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._util import is_missing_cell, parse_cell
from ..errors import (
    AllMissingObjectError,
    DimensionMismatchError,
    DuplicateObjectError,
    InvalidParameterError,
)
from .dataset import IncompleteDataset

__all__ = ["StreamingTKD"]


class StreamingTKD:
    """Incrementally maintained TKD scores over a dynamic incomplete set.

    Parameters
    ----------
    d: dimensionality of the streamed objects.
    directions: per-dimension preference (``"min"``/``"max"``), as for
        :class:`~repro.core.dataset.IncompleteDataset`.
    engine: the :class:`~repro.engine.session.QueryEngine` whose caches,
        planner, and stats the stream rides; defaults to the process-wide
        default session.
    """

    def __init__(
        self, d: int, *, directions: str | Sequence[str] = "min", engine=None
    ) -> None:
        if d <= 0:
            raise InvalidParameterError(f"d must be >= 1, got {d}")
        self._d = int(d)
        if isinstance(directions, str):
            directions = [directions] * d
        directions = [str(x).lower() for x in directions]
        if len(directions) != d:
            raise DimensionMismatchError(f"expected {d} directions, got {len(directions)}")
        for direction in directions:
            if direction not in ("min", "max"):
                raise InvalidParameterError(f"direction must be 'min'/'max', got {direction!r}")
        self._directions = tuple(directions)
        if engine is None:
            from ..engine.session import default_engine

            engine = default_engine()
        self._engine = engine
        #: The engine's ContinuousQuery handle; ``None`` while empty.
        self._live = None
        self._auto = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_dataset(cls, dataset: IncompleteDataset, *, engine=None) -> "StreamingTKD":
        """Seed a streaming structure from a static dataset (ids kept)."""
        stream = cls(dataset.d, directions=dataset.directions, engine=engine)
        stream._live = stream._engine.continuous(dataset)
        return stream

    def to_dataset(self, name: str = "stream-snapshot") -> IncompleteDataset:
        """Materialise the current membership as an immutable dataset."""
        if self._live is None:
            raise InvalidParameterError("cannot snapshot an empty stream")
        current = self._live.dataset
        return IncompleteDataset(
            current.values, ids=current.ids, directions=self._directions, name=name
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert(self, cells: Sequence, *, object_id: str | None = None) -> str:
        """Add one object; returns its id.

        One dominator-mask pass adjusts exactly the scores the newcomer
        changes — ``O(d·n/64)`` against warm packed tables, one ``O(n·d)``
        broadcast otherwise.
        """
        if len(cells) != self._d:
            raise DimensionMismatchError(f"expected {self._d} cells, got {len(cells)}")
        raw = np.array([np.nan if is_missing_cell(c) else parse_cell(c) for c in cells])
        if not (~np.isnan(raw)).any():
            raise AllMissingObjectError("streamed object has no observed dimension")
        if object_id is None:
            object_id = f"s{self._auto}"
            self._auto += 1
        object_id = str(object_id)
        if self._live is None:
            dataset = IncompleteDataset(
                raw[None, :], ids=[object_id], directions=self._directions
            )
            self._live = self._engine.continuous(dataset)
        else:
            if object_id in self:
                raise DuplicateObjectError(f"duplicate object id {object_id!r}")
            self._live.insert(raw[None, :], ids=[object_id])
        return object_id

    def delete(self, object_id: str) -> None:
        """Remove one object; its dominators' scores are rebated and its
        storage slot is tombstoned (compacted lazily by the planner)."""
        if self._live is None:
            raise InvalidParameterError(f"unknown object id {object_id!r}")
        self._live.dataset.index_of(object_id)  # raises for unknown ids
        if self._live.n == 1:
            self._live = None  # datasets cannot be empty; reset instead
            return
        self._live.delete([object_id])

    def update(self, object_id: str, cells: Sequence) -> None:
        """Replace one object's row (full row, or ``{dim: value}`` mapping)."""
        if self._live is None:
            raise InvalidParameterError(f"unknown object id {object_id!r}")
        self._live.update({object_id: cells})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def top_k(self, k: int, *, tie_break: str = "index", rng=None) -> list[tuple[str, int]]:
        """Current TKD answer as ``(id, score)`` pairs, best first."""
        if self._live is None:
            return []
        return self._live.top_k(k, tie_break=tie_break, rng=rng)

    def score_of(self, object_id: str) -> int:
        """Maintained ``score`` of one live object."""
        if self._live is None:
            raise InvalidParameterError(f"unknown object id {object_id!r}")
        return self._live.score_of(object_id)

    @property
    def n(self) -> int:
        """Number of live objects."""
        return 0 if self._live is None else self._live.n

    @property
    def d(self) -> int:
        """Dimensionality."""
        return self._d

    @property
    def ids(self) -> list[str]:
        """Live object ids (storage order)."""
        return [] if self._live is None else self._live.ids

    def __len__(self) -> int:
        return self.n

    def __contains__(self, object_id: str) -> bool:
        return self._live is not None and object_id in self._live
