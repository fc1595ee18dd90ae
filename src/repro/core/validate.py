"""Answer verification: certify a TKD result against its dataset.

A downstream system trusting a pruning algorithm wants a cheap,
independent certificate. :func:`verify_result` re-derives everything the
exhaustive oracle would say about a returned answer:

1. every claimed score is re-computed exactly (``O(k·n·d)``),
2. the returned score multiset equals the true top-k multiset
   (``O(n²·d)`` unless ``full=False``),
3. structural sanity: k objects, unique, valid indices, ids aligned.

Used by the test-suite, the benches' assertions, and available to users
who want belt-and-braces checking of a production answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from ..errors import InvalidParameterError
from .dataset import IncompleteDataset
from .result import TKDResult
from .score import score_all, score_many

__all__ = ["VerificationReport", "verify_result"]


@dataclass
class VerificationReport:
    """Outcome of verifying one answer."""

    ok: bool
    #: Human-readable failure descriptions (empty when ok).
    problems: list[str] = field(default_factory=list)
    #: True scores of the returned objects (claim order).
    recomputed_scores: list[int] = field(default_factory=list)
    #: The exhaustive top-k score multiset (only when full=True).
    expected_multiset: tuple | None = None

    def raise_if_failed(self) -> None:
        """Raise ``InvalidParameterError`` describing the first problem."""
        if not self.ok:
            raise InvalidParameterError(f"answer verification failed: {self.problems[0]}")


def verify_result(
    dataset: IncompleteDataset,
    result: TKDResult,
    *,
    full: bool = True,
) -> VerificationReport:
    """Independently verify a :class:`TKDResult` against *dataset*.

    With ``full=True`` (default) the exhaustive score vector is computed
    and the top-k multiset compared; with ``full=False`` only the returned
    objects' claims are re-checked (linear in ``k·n``).
    """
    problems: list[str] = []
    n = dataset.n

    indices = list(result.indices)
    if len(indices) != len(set(indices)):
        problems.append("returned objects are not unique")
    for index in indices:
        if not (0 <= index < n):
            problems.append(f"index {index} outside dataset of {n} objects")
    if len(indices) != min(result.k, n):
        problems.append(
            f"returned {len(indices)} objects for k={result.k} over n={n}"
        )
    all_ids = dataset.ids
    if [all_ids[i] for i in indices if 0 <= i < n] != [
        result.ids[pos] for pos, i in enumerate(indices) if 0 <= i < n
    ]:
        problems.append("ids are not aligned with indices")

    valid = [i for i in indices if 0 <= i < n]
    recomputed = score_many(dataset, valid).tolist() if valid else []
    for position, (index, claimed) in enumerate(zip(indices, result.scores)):
        if index in valid:
            actual = recomputed[valid.index(index)]
            if actual != claimed:
                problems.append(
                    f"object {all_ids[index]} claims score {claimed}, actual {actual}"
                )
    if sorted(result.scores, reverse=True) != list(result.scores):
        problems.append("scores are not in descending order")

    expected_multiset = None
    if full and not problems:
        all_scores = score_all(dataset)
        expected_multiset = tuple(
            sorted(all_scores.tolist(), reverse=True)[: len(indices)]
        )
        if tuple(sorted(result.scores, reverse=True)) != expected_multiset:
            problems.append(
                f"score multiset {tuple(sorted(result.scores, reverse=True))} "
                f"!= exhaustive top-k {expected_multiset}"
            )

    return VerificationReport(
        ok=not problems,
        problems=problems,
        recomputed_scores=[int(s) for s in recomputed],
        expected_multiset=expected_multiset,
    )
