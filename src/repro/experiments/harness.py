"""Experiment harness: paper parameters, scaling, dataset cache, timers.

The paper's Table 2 fixes the experimental grid; :class:`PaperDefaults`
records it verbatim. Absolute sizes (N up to 250K on a Java/C testbed)
are impractical for a pure-Python reproduction's default runs, so every
experiment takes a ``scale`` factor (default from the ``REPRO_SCALE``
environment variable, falling back to laptop-friendly values) that
multiplies the object counts while preserving every *relative* shape the
paper reports.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.dataset import IncompleteDataset
from ..core.query import make_algorithm
from ..datasets.loader import load_dataset
from ..engine.session import _options_key

__all__ = ["PaperDefaults", "PAPER", "env_scale", "DatasetCache", "time_algorithm", "run_query_series"]


@dataclass(frozen=True)
class PaperDefaults:
    """Table 2 — parameter ranges and default values (defaults in bold there)."""

    k_values: tuple[int, ...] = (4, 8, 16, 32, 64)
    default_k: int = 8

    n_values: tuple[int, ...] = (50_000, 100_000, 150_000, 200_000, 250_000)
    default_n: int = 100_000

    dim_values: tuple[int, ...] = (5, 10, 15, 20, 25)
    default_dim: int = 10

    missing_rates: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20, 0.30, 0.40)
    default_missing_rate: float = 0.10

    cardinalities: tuple[int, ...] = (50, 100, 200, 400, 800)
    default_cardinality: int = 100

    #: IBIG bin counts the paper settles on per dataset (Section 5.1).
    ibig_bins: dict = field(
        default_factory=lambda: {
            "movielens": 2,
            "nba": 64,
            "zillow": [6, 10, 35, 3000, 1000],
            "ind": 32,
            "ac": 32,
        }
    )

    #: Real-dataset shapes (Section 5 descriptions).
    real_shapes: dict = field(
        default_factory=lambda: {
            "movielens": {"n": 3700, "d": 60, "missing": 0.95},
            "nba": {"n": 16000, "d": 4, "missing": 0.20},
            "zillow": {"n": 200000, "d": 5, "missing": 0.142},
        }
    )


#: The canonical Table 2 instance.
PAPER = PaperDefaults()


def env_scale(default: float = 0.04) -> float:
    """The global experiment scale factor (``REPRO_SCALE`` env override).

    ``scale=1.0`` is paper scale; the default keeps a full figure sweep in
    seconds-to-minutes territory on a laptop.
    """
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


#: Floors keeping tiny scales meaningful per dataset. MovieLens needs a
#: few thousand objects before per-object pruning amortises against the
#: vectorised Naive baseline (its 95% missingness weakens every bound —
#: the paper's own Fig. 18a observation).
_MIN_OBJECTS = {"movielens": 1200, "nba": 1600, "zillow": 2000, "ind": 1000, "ac": 1000}


class DatasetCache:
    """Memoising dataset factory for experiment sweeps."""

    def __init__(self, scale: float | None = None, seed: int = 0) -> None:
        self.scale = env_scale() if scale is None else float(scale)
        self.seed = int(seed)
        self._cache: dict[tuple, IncompleteDataset] = {}

    def get(
        self,
        name: str,
        *,
        n: int | None = None,
        dim: int | None = None,
        cardinality: int | None = None,
        missing_rate: float | None = None,
    ) -> IncompleteDataset:
        """Fetch (and cache) one dataset with Table 2 defaults filled in."""
        dim = PAPER.default_dim if dim is None else dim
        cardinality = PAPER.default_cardinality if cardinality is None else cardinality
        missing_rate = PAPER.default_missing_rate if missing_rate is None else missing_rate
        key = (name, n, dim, cardinality, missing_rate)
        if key not in self._cache:
            if n is None:
                # Derive from the paper-scale size; the floor only guards
                # this derived path — an explicit n is taken literally.
                paper_n = {"ind": PAPER.default_n, "ac": PAPER.default_n}.get(
                    name, PAPER.real_shapes.get(name, {}).get("n", PAPER.default_n)
                )
                n = max(int(round(paper_n * self.scale)), _MIN_OBJECTS.get(name, 500))
            n = max(n, 2)
            effective_scale = n / {"movielens": 3700, "nba": 16000, "zillow": 200000}.get(name, n)
            if name in ("ind", "ac"):
                self._cache[key] = load_dataset(
                    name,
                    scale=n / PAPER.default_n,
                    seed=self.seed,
                    dim=dim,
                    cardinality=cardinality,
                    missing_rate=missing_rate,
                )
            else:
                self._cache[key] = load_dataset(name, scale=effective_scale, seed=self.seed)
        return self._cache[key]


def time_algorithm(
    dataset: IncompleteDataset,
    algorithm: str,
    k: int,
    *,
    repeats: int = 1,
    engine=None,
    **options,
) -> dict:
    """Prepare once, run the query *repeats* times, report both timings.

    Returns a row dict with preprocessing seconds, best query seconds, and
    the run's :class:`~repro.core.stats.QueryStats` (from the last run).

    Pass a :class:`repro.engine.QueryEngine` to share preparations across
    an entire sweep: the first point of a series pays the index build, the
    remaining points reuse it (exactly the paper's Table 3 vs Figs. 12–17
    separation, now enforced by the session instead of by discipline).
    The engine also pre-warms the kernel-level
    :class:`~repro.engine.kernels.PreparedDataset` (sentinel arrays and,
    where eligible, packed bitset tables) so those builds land in the
    preparation phase rather than inside the first timed query.

    When the engine has a :class:`~repro.engine.store.PersistentStore`
    (``REPRO_CACHE_DIR``, or ``QueryEngine(store=...)``), each measured
    point is persisted — result *and* measured timings — and a re-run of
    the same sweep in a later process returns the stored row without
    executing anything (``row["stored"] = True``), so regenerating a
    figure is near-free and reports the originally measured timings
    rather than a distorted warm-cache re-measurement.
    """
    store = engine.store if engine is not None else None
    key = None
    if store is not None:
        # One timing row per algorithm and options; session answers live
        # under their own route-independent key.
        key = (engine.fingerprint(dataset), int(k), algorithm.lower(), _options_key(options))
        entry = store.get_entry(*key)
        if entry is not None and "query_s" in entry[1]:
            result, meta = entry
            return {
                "dataset": dataset.name or "?",
                "algorithm": algorithm,
                "k": k,
                "n": dataset.n,
                "d": dataset.d,
                "preprocess_s": float(meta.get("preprocess_s", 0.0)),
                "query_s": float(meta["query_s"]),
                "index_bytes": int(meta.get("index_bytes", 0)),
                "stats": result.stats,
                "result": result,
                "stored": True,
            }
    if engine is not None:
        engine.prepare_dataset(dataset).warm()
        instance = engine.prepared(dataset, algorithm, **options)
    else:
        instance = make_algorithm(dataset, algorithm, **options)
        instance.prepare()
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = instance.query(k)
        best = min(best, time.perf_counter() - start)
    if store is not None:
        store.put_result(
            *key,
            result,
            rebuild_seconds=instance.preprocess_seconds + best,
            meta={
                "preprocess_s": instance.preprocess_seconds,
                "query_s": best,
                "index_bytes": instance.index_bytes,
            },
        )
    return {
        "dataset": dataset.name or "?",
        "algorithm": algorithm,
        "k": k,
        "n": dataset.n,
        "d": dataset.d,
        "preprocess_s": instance.preprocess_seconds,
        "query_s": best,
        "index_bytes": instance.index_bytes,
        "stats": result.stats,
        "result": result,
    }


def run_query_series(
    dataset: IncompleteDataset,
    algorithms: Sequence[str],
    k: int,
    *,
    options_for: Callable[[str], dict] | None = None,
    repeats: int = 1,
    engine=None,
) -> list[dict]:
    """One figure point per algorithm on a fixed dataset/k.

    With an *engine*, preparations are cached across the series (and any
    other series sharing the same engine and dataset).
    """
    rows = []
    for algorithm in algorithms:
        options = options_for(algorithm) if options_for else {}
        rows.append(
            time_algorithm(dataset, algorithm, k, repeats=repeats, engine=engine, **options)
        )
    return rows
