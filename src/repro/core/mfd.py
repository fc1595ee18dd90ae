"""The MFD (missing-flexible dominance) weighted operator (paper Section 3).

The paper sketches MFD as a fairness refinement — and names generalising
its algorithms to MFD as future work; this module implements that
generalisation in its direct form.

For two objects with ``o ≻ o'`` under Definition 1, MFD attaches a weight

    W(o, o') = Σ_{i ∈ D1} w_i  +  λ · Σ_{j ∈ D2} w_j

where ``D1`` holds the dimensions observed in *both* objects, ``D2`` those
observed in exactly one, and dimensions missing in both are ignored. The
MFD score of ``o`` is the sum of ``W(o, o')`` over everything it
dominates, so dominance asserted on many (heavily weighted) dimensions
counts for more than dominance established on a thin overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import require_fraction
from ..errors import InvalidParameterError
from .dataset import IncompleteDataset
from .result import select_top_k, validate_k

__all__ = [
    "mfd_weight",
    "mfd_scores",
    "mfd_max_scores",
    "MFDResult",
    "top_k_dominating_mfd",
]


def _coerce_weights(weights, d: int) -> np.ndarray:
    if weights is None:
        return np.full(d, 1.0 / d)
    arr = np.asarray(weights, dtype=np.float64)
    if arr.shape != (d,):
        raise InvalidParameterError(f"expected {d} weights, got shape {arr.shape}")
    if (arr < 0).any():
        raise InvalidParameterError("MFD weights must be non-negative")
    return arr


def mfd_weight(
    dataset: IncompleteDataset,
    i: int,
    j: int,
    *,
    weights=None,
    lam: float = 0.5,
) -> float:
    """``W(o_i, o_j)`` — the MFD recognition weight of the pair.

    Defined regardless of whether ``o_i ≻ o_j`` holds; scoring only sums it
    over dominated objects.
    """
    weights = _coerce_weights(weights, dataset.d)
    lam = require_fraction(lam, "lam", inclusive_low=False, inclusive_high=False)
    both = dataset.observed[i] & dataset.observed[j]
    one = dataset.observed[i] ^ dataset.observed[j]
    return float(weights[both].sum() + lam * weights[one].sum())


def mfd_scores(
    dataset: IncompleteDataset,
    *,
    weights=None,
    lam: float = 0.5,
    block: int | None = None,
) -> np.ndarray:
    """MFD score of every object: ``Σ_{o' : o ≻ o'} W(o, o')``.

    Blocked and fully vectorised: dominated-masks come from
    :func:`repro.engine.kernels.dominated_masks` a block at a time — the
    packed-bitset tables when the engine session has them cached (or the
    full scan justifies building them), the broadcast kernel otherwise —
    and the pairwise weights are assembled without materialising per-pair
    masks via

        ``W(o, p) = λ·(a_o + a_p) + (1 − 2λ)·b_op``

    where ``a_o = Σ_i w_i·[i ∈ Iset(o)]`` and ``b_op`` weights the shared
    observed dimensions (one matmul per block).
    """
    from ..engine.kernels import auto_block, dominated_masks, prepared_for_scan

    weights = _coerce_weights(weights, dataset.d)
    lam = require_fraction(lam, "lam", inclusive_low=False, inclusive_high=False)
    observed = dataset.observed
    n = dataset.n
    if block is None:
        block = auto_block(n, dataset.d)
    # One eligibility decision for the whole scan: the per-block batches
    # below are too small to trigger a table build on their own.
    prepared = prepared_for_scan(dataset)

    observed_weight = observed @ weights  # a_o per object, (n,)
    weighted_masks = observed * weights  # (n, d)
    out = np.zeros(n, dtype=np.float64)
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n), dtype=np.intp)
        dominated = dominated_masks(dataset, rows, prepared=prepared)  # (b, n)
        shared_weight = weighted_masks[rows] @ observed.T  # b_op, (b, n)
        pair_weights = lam * (
            observed_weight[rows][:, None] + observed_weight[None, :]
        ) + (1.0 - 2.0 * lam) * shared_weight
        out[rows] = (dominated * pair_weights).sum(axis=1)
    return out


def _mfd_score_one(
    dataset: IncompleteDataset, row: int, weights: np.ndarray, lam: float, prepared=None
) -> float:
    """Exact MFD score of a single object (one vectorised pass).

    With cached bitset tables (*prepared*) the dominated-mask costs
    ``2·d`` packed row gathers instead of an ``O(n·d)`` broadcast — the
    fast path of the UBB-style candidate loop below.
    """
    from ..engine.kernels import dominated_masks

    dominated = dominated_masks(dataset, [row], prepared=prepared)[0]
    if not dominated.any():
        return 0.0
    observed = dataset.observed
    both = observed[dominated] & observed[row]
    one = observed[dominated] ^ observed[row]
    return float((both @ weights + lam * (one @ weights)).sum())


def mfd_max_scores(
    dataset: IncompleteDataset,
    *,
    weights=None,
    lam: float = 0.5,
) -> np.ndarray:
    """Upper bound on each object's MFD score (the Lemma 2 generalisation).

    For any dominated ``p``: dimensions in ``Iset(o)`` contribute at most
    ``w_i`` (full credit when ``p`` also observes them, ``λ·w_i``
    otherwise), and dimensions outside ``Iset(o)`` at most ``λ·w_i`` —
    so ``W(o, p) ≤ Wmax(o)`` and ``mfd_score(o) ≤ MaxScore(o) · Wmax(o)``.
    This is the bound that lets the paper's "easily generalized" UBB-style
    evaluation carry over to MFD (and it is property-tested).
    """
    from .maxscore import max_scores

    weights = _coerce_weights(weights, dataset.d)
    lam = require_fraction(lam, "lam", inclusive_low=False, inclusive_high=False)
    observed = dataset.observed
    w_max = observed @ weights + lam * ((~observed) @ weights)
    return max_scores(dataset) * w_max


@dataclass
class MFDResult:
    """Answer of an MFD-weighted TKD query (scores are real-valued)."""

    indices: list[int]
    scores: list[float]
    ids: list[str]
    k: int
    lam: float
    #: Objects whose exact MFD score was evaluated (n for method="naive").
    evaluated: int = 0

    @property
    def id_set(self) -> frozenset:
        """Returned labels as a set."""
        return frozenset(self.ids)

    @property
    def score_multiset(self) -> tuple[float, ...]:
        """Scores sorted descending (the tie-break-independent invariant)."""
        return tuple(sorted((round(s, 9) for s in self.scores), reverse=True))


def top_k_dominating_mfd(
    dataset: IncompleteDataset,
    k: int,
    *,
    weights=None,
    lam: float = 0.5,
    method: str = "ubb",
    tie_break: str = "index",
    rng=None,
) -> MFDResult:
    """TKD query under the MFD operator (paper's future-work extension).

    ``method="naive"`` scores everything; ``method="ubb"`` (default)
    generalises the paper's UBB: objects are visited in descending
    ``MaxScore(o) · Wmax(o)`` order and evaluation stops as soon as the
    bound drops to the current k-th best weighted score.
    """
    k = validate_k(k, dataset.n)
    weights_arr = _coerce_weights(weights, dataset.d)
    lam = require_fraction(lam, "lam", inclusive_low=False, inclusive_high=False)

    if method not in ("naive", "ubb"):
        raise InvalidParameterError(f"method must be 'naive' or 'ubb', got {method!r}")

    if method == "naive":
        scores = mfd_scores(dataset, weights=weights_arr, lam=lam)
        selection = select_top_k(scores, k, tie_break=tie_break, rng=rng)
        evaluated = dataset.n
        chosen_scores = [float(scores[i]) for i in selection]
    else:
        from ..engine.kernels import prepared_for_scan

        bounds = mfd_max_scores(dataset, weights=weights_arr, lam=lam)
        order = np.argsort(-bounds, kind="stable")
        # The candidate loop scores objects one at a time. Ride bitset
        # tables that are already cached, but don't build them upfront —
        # Heuristic 1 may prune the loop to ~k evaluations, where the
        # O(d·n²/64) build would dominate. If evaluation count proves the
        # bounds loose, build once and let the tail of the loop fly.
        prepared = prepared_for_scan(dataset, batch=1)
        kept: list[tuple[int, float]] = []
        tau = -1.0
        evaluated = 0
        for index in order.tolist():
            if len(kept) == k and bounds[index] <= tau:
                break  # Heuristic 1, weighted form
            if evaluated == 256 and prepared is not None:
                prepared.warm()  # loose bounds: the scan now justifies tables
            score = _mfd_score_one(dataset, index, weights_arr, lam, prepared=prepared)
            evaluated += 1
            if len(kept) < k:
                kept.append((index, score))
            elif score > tau:
                kept.remove(min(kept, key=lambda item: (item[1], -item[0])))
                kept.append((index, score))
            if len(kept) == k:
                tau = min(score for _, score in kept)
        kept.sort(key=lambda item: (-item[1], item[0]))
        selection = [index for index, _ in kept]
        chosen_scores = [float(score) for _, score in kept]

    all_ids = dataset.ids
    return MFDResult(
        indices=list(selection),
        scores=chosen_scores,
        ids=[all_ids[i] for i in selection],
        k=k,
        lam=float(lam),
        evaluated=evaluated,
    )
