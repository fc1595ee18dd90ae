#!/usr/bin/env python
"""Versioned, delta-aware engine: updates without rebuilds.

The batch engine of PRs 1–3 froze a dataset at preparation time — one
changed tuple invalidated every fingerprint-keyed structure. This demo
walks the layer that changed that:

1. **Deltas and lineage** — insert/delete/update batches produce new
   dataset *versions* whose fingerprints derive from the parent's
   (``H(parent, delta)``), so identity costs ``O(|delta|·d)`` per change
   instead of an ``O(n·d)`` rehash.
2. **Patched tables** — the engine patches the packed bitset tables to
   the child version (tombstoned deletions, bits moved for updates) and
   adjusts dominated counts for affected objects only; answers stay
   bit-identical to a cold rebuild.
3. **Incremental queries** — ``engine.query(child, k)`` answers straight
   from the maintained score vector (``algorithm="incremental"``).
4. **Continuous top-k** — ``engine.continuous`` keeps a leaderboard
   current through a stream of arrivals, departures, and edits.
5. **Persistence** — with a store, prepared tables warm-start new
   processes and the lineage of every version is recorded.

Run:  python examples/versioned_updates.py
"""

import tempfile
import time

import numpy as np

from repro import IncompleteDataset, QueryEngine
from repro.core.score import score_all
from repro.engine.kernels import PreparedDataset
from repro.engine.planner import plan_delta
from repro.engine.session import PreparedDatasetCache
from repro.engine.store import PersistentStore


def make_catalog(n, rng):
    price = rng.gamma(4.0, 50.0, n).round(2)
    latency = rng.gamma(2.0, 20.0, n).round(1)
    defects = rng.integers(0, 40, n).astype(float)
    values = np.column_stack([price, latency, defects])
    values[rng.random(values.shape) < 0.2] = np.nan
    values[np.isnan(values).all(axis=1), 0] = 100.0
    return values


def main() -> None:
    rng = np.random.default_rng(7)
    dataset = IncompleteDataset(
        make_catalog(4000, rng),
        dim_names=["price", "latency_ms", "defects"],
        name="supplier-catalog",
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        engine = QueryEngine(dataset_cache=PreparedDatasetCache(), store=cache_dir)
        engine.prepare_dataset(dataset).tables(build=True)
        engine.scores(dataset)

        # 1. One supplier fixes a defect count: a delta, not a rebuild.
        supplier = dataset.ids[1234]
        start = time.perf_counter()
        v1 = engine.update(dataset, {supplier: {"defects": 0}})
        delta_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        PreparedDataset(v1).tables(build=True)
        rebuild_ms = (time.perf_counter() - start) * 1e3
        print(f"single update applied in {delta_ms:.2f}ms "
              f"(a cold re-prepare costs {rebuild_ms:.2f}ms)")
        print(f"lineage: {v1.version.depth} delta(s) from root, "
              f"fingerprint {v1.fingerprint()[:12]}…")

        # 2. The planner prices patch vs rebuild per delta.
        print(plan_delta(v1.n, v1.d, updates=1, changed_dims=1).summary())
        print(plan_delta(v1.n, v1.d, inserts=v1.n // 2).summary())

        # 3. Queries on the new version ride the maintained scores.
        result = engine.query(v1, 5)
        print(f"top-5 after the fix (algorithm={result.algorithm}):")
        print(result.as_table())
        assert np.array_equal(engine.scores(v1), score_all(v1))  # exact

        # 4. A live procurement feed: arrivals, churn, and edits.
        live = engine.continuous(v1, k=5)
        for step in range(200):
            live.insert(make_catalog(1, rng))
            if step % 3 == 0:
                live.delete([live.ids[int(rng.integers(0, live.n))]])
            if step % 5 == 0:
                live.update({live.ids[int(rng.integers(0, live.n))]: {"latency_ms": 1.0}})
        podium = ", ".join(f"{oid}({score})" for oid, score in live.top_k(5))
        print(f"after 200 feed steps (n={live.n}, "
              f"tombstone debt {live.prepared.tombstone_debt:.0%}): {podium}")

        # 5. Persist the tables; a fresh engine warm-starts from disk.
        engine.persist_prepared(v1)
        fresh = QueryEngine(dataset_cache=PreparedDatasetCache(), store=cache_dir)
        warmed = fresh.prepare_dataset(v1)
        print(f"fresh process warm-start: tables_ready={warmed.tables_ready} "
              f"(loaded {fresh.stats.prepared_loaded} prepared entr{'y' if fresh.stats.prepared_loaded == 1 else 'ies'})")
        chain = PersistentStore(cache_dir).resolve_lineage(v1.fingerprint())
        print(f"store lineage records for v1: {len(chain)} link(s)")
        print()
        print(engine.stats.summary())


if __name__ == "__main__":
    main()
