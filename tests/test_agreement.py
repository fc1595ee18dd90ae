"""Cross-algorithm agreement: every exact route returns one answer.

The paper breaks ties at the k-th score arbitrarily; this library fixes
them (``tie_break="index"``: score descending, then lowest index), so
every algorithm and every engine route must return exactly ``naive``'s
ids and scores, not just the same score multiset.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryEngine, top_k_dominating
from repro.core.dataset import IncompleteDataset
from repro.core.query import ALGORITHMS as REGISTRY
from repro.core.score import score_all, score_one
from repro.engine.session import PreparedDatasetCache

ALGORITHMS = ("naive", "esb", "ubb", "big", "ibig")


@st.composite
def incomplete_datasets(draw, max_n=28, max_d=4, max_value=5):
    """Arbitrary incomplete datasets (≥1 observed value per object)."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    cells = draw(
        st.lists(
            st.lists(
                st.one_of(st.none(), st.integers(0, max_value)),
                min_size=d,
                max_size=d,
            ),
            min_size=n,
            max_size=n,
        )
    )
    anchor_dims = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    anchor_values = draw(st.lists(st.integers(0, max_value), min_size=n, max_size=n))
    for row, (dim, value) in enumerate(zip(anchor_dims, anchor_values)):
        if all(cell is None for cell in cells[row]):
            cells[row][dim] = value
    return IncompleteDataset(cells)


def assert_same_answer(got, want, label=""):
    assert got.indices == want.indices, label
    assert got.scores == want.scores, label


class TestAgreementOnRandomData:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_score_multisets_match(self, make_incomplete, seed, k):
        ds = make_incomplete(60, 4, missing_rate=0.35, cardinality=8, seed=seed)
        reference = top_k_dominating(ds, k, algorithm="naive")
        for algorithm in ALGORITHMS[1:]:
            assert_same_answer(top_k_dominating(ds, k, algorithm=algorithm), reference, algorithm)

    @pytest.mark.parametrize("missing_rate", [0.0, 0.1, 0.5, 0.8])
    def test_across_missing_rates(self, make_incomplete, missing_rate):
        ds = make_incomplete(50, 4, missing_rate=missing_rate, seed=11)
        reference = top_k_dominating(ds, 5, algorithm="naive")
        for algorithm in ALGORITHMS[1:]:
            assert_same_answer(top_k_dominating(ds, 5, algorithm=algorithm), reference, algorithm)

    def test_with_max_directions(self):
        rng = np.random.default_rng(1)
        values = rng.integers(1, 9, size=(40, 3)).astype(float)
        holes = rng.random((40, 3)) < 0.3
        values[holes] = np.nan
        values[np.isnan(values).all(axis=1), 0] = 5.0
        ds = IncompleteDataset(values, directions="max")
        reference = top_k_dominating(ds, 4, algorithm="naive")
        for algorithm in ALGORITHMS[1:]:
            assert_same_answer(top_k_dominating(ds, 4, algorithm=algorithm), reference, algorithm)

    def test_with_heavy_duplicates(self):
        rng = np.random.default_rng(2)
        values = rng.integers(1, 3, size=(50, 3)).astype(float)  # tiny domain
        ds = IncompleteDataset(values)
        reference = top_k_dominating(ds, 6, algorithm="naive")
        for algorithm in ALGORITHMS[1:]:
            assert_same_answer(top_k_dominating(ds, 6, algorithm=algorithm), reference, algorithm)


class TestReturnedScoresAreExact:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_claimed_scores_verified(self, make_incomplete, algorithm):
        ds = make_incomplete(45, 4, missing_rate=0.3, seed=7)
        result = top_k_dominating(ds, 6, algorithm=algorithm)
        for index, claimed in result:
            assert score_one(ds, index) == claimed

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_nothing_outside_beats_the_answer(self, make_incomplete, algorithm):
        ds = make_incomplete(45, 4, missing_rate=0.3, seed=8)
        result = top_k_dominating(ds, 6, algorithm=algorithm)
        cutoff = min(result.scores)
        outside = set(range(ds.n)) - set(result.indices)
        scores = score_all(ds)
        assert all(scores[i] <= cutoff for i in outside)


class TestHypothesisAgreement:
    @given(incomplete_datasets(), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_all_algorithms_agree(self, ds, k):
        reference = top_k_dominating(ds, k, algorithm="naive").score_multiset
        for algorithm in ALGORITHMS[1:]:
            got = top_k_dominating(ds, k, algorithm=algorithm).score_multiset
            assert got == reference, algorithm

    @given(incomplete_datasets(), st.integers(1, 8), st.integers(0, 27))
    @settings(max_examples=60, deadline=None)
    def test_every_route_matches_naive(self, ds, k, copied):
        """The differential oracle: every registered algorithm and the
        engine's auto, partitioned and incremental routes return naive's
        exact ids and scores."""
        reference = top_k_dominating(ds, k, algorithm="naive")
        for algorithm in REGISTRY:
            assert_same_answer(top_k_dominating(ds, k, algorithm=algorithm), reference, algorithm)

        def engine():
            return QueryEngine(dataset_cache=PreparedDatasetCache())

        assert_same_answer(engine().query(ds, k), reference, "auto")
        assert_same_answer(engine().query(ds, k, partitions=2), reference, "partitions=2")

        # Inserting a copy of an existing row adds a tie on purpose.
        live = engine()
        live.scores(ds)
        child = live.insert(ds, [ds.values[copied % ds.n]])
        got = live.query(child, k)
        assert got.algorithm == "incremental"
        assert_same_answer(got, top_k_dominating(child, k, algorithm="naive"), "incremental")

    @given(incomplete_datasets(max_n=20), st.integers(1, 4), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_ibig_exact_for_arbitrary_bins(self, ds, k, bins):
        reference = top_k_dominating(ds, k, algorithm="naive").score_multiset
        got = top_k_dominating(ds, k, algorithm="ibig", bins=bins).score_multiset
        assert got == reference
