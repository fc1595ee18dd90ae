"""Constrained and group-by TKD queries on incomplete data.

The companion paper the running Lemma 1 comes from (Gao et al. [2])
studies *constrained* and *group-by* variants of its skyline queries;
this module lifts both variants to the TKD query, reusing the whole
algorithm registry:

* :func:`constrained_tkd` — answer a TKD query among only the objects
  whose **observed** values satisfy per-dimension range constraints
  (a missing value cannot violate a constraint — the zero-knowledge
  missing-data model has nothing to test). Scores are counted *within*
  the qualifying set: "which affordable listings dominate the most
  affordable listings", not the most listings overall.
* :func:`group_by_tkd` — partition objects on one dimension's raw value
  (missing values form their own group) and answer a per-group TKD query
  on the remaining dimensions.

Both delegate to :func:`repro.core.query.top_k_dominating` over derived
datasets, so every algorithm — paper or extension — supports them.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import InvalidParameterError
from .dataset import IncompleteDataset
from .query import top_k_dominating
from .result import TKDResult

__all__ = ["constrained_tkd", "group_by_tkd"]


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
    from ..skyband.constrained import RangeConstraint

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


def constrained_tkd(
    dataset: IncompleteDataset,
    k: int,
    constraints: Mapping,
    *,
    algorithm: str = "big",
    tie_break: str = "index",
    rng=None,
    **options,
) -> TKDResult:
    """TKD among the objects satisfying per-dimension range constraints.

    *constraints* maps dimension (index or name) to a
    :class:`~repro.skyband.constrained.RangeConstraint` or ``(low, high)``
    tuple in the dataset's original (user-facing) units, e.g.::

        constrained_tkd(zillow, 5, {"price": (None, 500_000), "bedrooms": (3, None)})

    The result's ``indices`` refer to the **original** dataset's rows.
    Raises when no object qualifies — an empty search region is almost
    always a caller mistake, not an empty answer.
    """
    if not constraints:
        raise InvalidParameterError("constrained_tkd needs at least one constraint")
    rows = np.flatnonzero(_qualifying_rows(dataset, constraints))
    if rows.size == 0:
        raise InvalidParameterError("no object satisfies the given constraints")
    restricted = dataset.subset(rows.tolist(), name=f"{dataset.name or 'dataset'}|constrained")
    result = top_k_dominating(
        restricted, k, algorithm=algorithm, tie_break=tie_break, rng=rng, **options
    )
    # Lift row indices back to the original dataset (ids are preserved).
    result.indices = [int(rows[i]) for i in result.indices]
    return result


def group_by_tkd(
    dataset: IncompleteDataset,
    dim,
    k: int,
    *,
    algorithm: str = "big",
    missing_group: str = "<missing>",
    tie_break: str = "index",
    rng=None,
    **options,
) -> dict:
    """Per-group TKD results, grouping on one dimension's raw value.

    Returns ``{group_key: TKDResult}``. Objects missing the grouping
    dimension collect under *missing_group*. Dominance inside a group is
    judged on the **other** dimensions only (grouping on a value and then
    letting it dominate within the group would double-count it, following
    [2]); each result's ``indices`` refer to the original dataset's rows.
    Objects observing nothing outside the grouping dimension are excluded
    from their group's ranking (they are incomparable to every member
    there); a group consisting only of such objects is omitted.
    """
    dim = _resolve_dim(dataset, dim)
    if dataset.d < 2:
        raise InvalidParameterError("group-by TKD needs >= 2 dimensions")
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
    all_ids = dataset.ids
    for key, rows in groups.items():
        member_set = dataset.subset(rows, name=f"{dataset.name or 'dataset'}|{key}")
        # Objects with nothing observed outside the grouping dimension
        # cannot participate in other-dims dominance; give them score 0.
        viewable = member_set.observed[:, other_dims].any(axis=1)
        if not viewable.any():
            continue
        projected = member_set.subset(np.flatnonzero(viewable).tolist()).project(
            other_dims, drop_all_missing=False
        )
        result = top_k_dominating(
            projected, min(k, projected.n), algorithm=algorithm,
            tie_break=tie_break, rng=rng, **options,
        )
        # Lift indices: projection preserves ids, so map through them.
        original_by_id = {all_ids[row]: row for row in rows}
        result.indices = [original_by_id[object_id] for object_id in result.ids]
        out[key] = result
    return out
