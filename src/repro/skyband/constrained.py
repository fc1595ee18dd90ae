"""Constrained and group-by skylines on incomplete data.

The paper's Lemma 1 is borrowed from Gao et al., "Processing k-skyband,
constrained skyline, and group-by skyline queries on incomplete data"
(Expert Systems with Applications, 2014) — reference [2]. That companion
paper's other two query types are natural library citizens and are
implemented here under the same Definition 1 dominance:

* **constrained skyline** — the skyline of the objects whose *observed*
  values all satisfy per-dimension range constraints (a missing value
  cannot violate a constraint: there is nothing to test, matching the
  zero-knowledge missing-data model);
* **group-by skyline** — partition objects by their value on a grouping
  dimension (objects missing that dimension form their own group) and
  compute a skyline per group.

Both operate in the dataset's *original* orientation for constraints
(users think in raw units) while dominance runs on the minimized view.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.dataset import IncompleteDataset
from ..core.dominance import dominates
from ..errors import InvalidParameterError

__all__ = ["constrained_skyline", "group_by_skyline", "RangeConstraint"]


class RangeConstraint:
    """A closed interval ``[low, high]`` on one dimension (either side open).

    ``low=None`` / ``high=None`` leave that side unconstrained. Bounds are
    expressed in the dataset's original (user-facing) units.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: float | None = None, high: float | None = None) -> None:
        if low is not None and high is not None and low > high:
            raise InvalidParameterError(f"empty constraint range [{low}, {high}]")
        self.low = None if low is None else float(low)
        self.high = None if high is None else float(high)

    def admits(self, value: float) -> bool:
        """Does an observed *value* satisfy this constraint?"""
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RangeConstraint({self.low}, {self.high})"


def _resolve_dim(dataset: IncompleteDataset, dim) -> int:
    if isinstance(dim, str):
        try:
            return dataset.dim_names.index(dim)
        except ValueError:
            raise InvalidParameterError(
                f"unknown dimension {dim!r}; names: {dataset.dim_names}"
            ) from None
    dim = int(dim)
    if dim < 0 or dim >= dataset.d:
        raise InvalidParameterError(f"dimension {dim} outside [0, {dataset.d})")
    return dim


def _qualifying_rows(dataset: IncompleteDataset, constraints: Mapping) -> np.ndarray:
    keep = np.ones(dataset.n, dtype=bool)
    for dim, constraint in constraints.items():
        dim = _resolve_dim(dataset, dim)
        if isinstance(constraint, (tuple, list)):
            constraint = RangeConstraint(*constraint)
        elif not isinstance(constraint, RangeConstraint):
            raise InvalidParameterError(
                f"constraint for dim {dim} must be RangeConstraint or (low, high)"
            )
        observed = dataset.observed[:, dim]
        column = dataset.values[:, dim]
        ok = np.ones(dataset.n, dtype=bool)
        if constraint.low is not None:
            ok &= ~observed | (column >= constraint.low)
        if constraint.high is not None:
            ok &= ~observed | (column <= constraint.high)
        keep &= ok
    return keep


def _skyline_among(dataset: IncompleteDataset, rows: Sequence[int]) -> list[int]:
    """Skyline (no dominator among *rows*) under Definition 1 dominance.

    Quadratic in ``len(rows)``: non-transitive dominance leaves no sound
    shortcut, exactly the paper's point.
    """
    rows = [int(r) for r in rows]
    out = []
    for candidate in rows:
        if not any(
            other != candidate and dominates(dataset, other, candidate)
            for other in rows
        ):
            out.append(candidate)
    return out


def constrained_skyline(
    dataset: IncompleteDataset,
    constraints: Mapping,
) -> list[int]:
    """Row indices of the constrained skyline.

    *constraints* maps dimension (index or name) to a
    :class:`RangeConstraint` or a ``(low, high)`` tuple, e.g.::

        constrained_skyline(zillow, {"price": (None, 500_000), "bedrooms": (3, None)})

    An object qualifies iff none of its *observed* values violates a
    constraint; the skyline is then computed among qualifiers only
    (dominance is still judged against qualifiers, per [2]).
    """
    if not constraints:
        raise InvalidParameterError("constrained_skyline needs at least one constraint")
    rows = np.flatnonzero(_qualifying_rows(dataset, constraints))
    return _skyline_among(dataset, rows.tolist())


def group_by_skyline(
    dataset: IncompleteDataset,
    dim,
    *,
    missing_group: str = "<missing>",
) -> dict:
    """Per-group skylines, grouping on one dimension's raw value.

    Returns ``{group_key: [row indices]}``; objects missing the grouping
    dimension collect under *missing_group*. Dominance inside a group is
    evaluated on the **other** dimensions (grouping on a dimension and
    then letting it dominate within the group would be double counting,
    following [2]).
    """
    dim = _resolve_dim(dataset, dim)
    if dataset.d < 2:
        raise InvalidParameterError("group-by skyline needs >= 2 dimensions")
    other_dims = [j for j in range(dataset.d) if j != dim]

    groups: dict = {}
    for row in range(dataset.n):
        if dataset.observed[row, dim]:
            value = dataset.values[row, dim]
            key = int(value) if float(value).is_integer() else float(value)
        else:
            key = missing_group
        groups.setdefault(key, []).append(row)

    out: dict = {}
    for key, rows in groups.items():
        # Skyline within the group on the non-grouping dimensions; objects
        # with nothing observed there are trivially skyline members.
        rows_with_view = [
            row for row in rows if dataset.observed[row][other_dims].any()
        ]
        orphans = [row for row in rows if row not in set(rows_with_view)]
        if rows_with_view:
            projected = dataset.project(other_dims)
            # Map original rows into the projection (ids are preserved).
            proj_index = {object_id: i for i, object_id in enumerate(projected.ids)}
            all_ids = dataset.ids
            view_rows = [proj_index[all_ids[row]] for row in rows_with_view]
            skyline_local = set(_skyline_among(projected, view_rows))
            members = [
                row
                for row, proj_row in zip(rows_with_view, view_rows)
                if proj_row in skyline_local
            ]
        else:
            members = []
        out[key] = sorted(members + orphans)
    return out
