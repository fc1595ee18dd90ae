#!/usr/bin/env python
"""Incremental-update acceptance benchmark for the versioned engine.

Two claims, each measured and enforced:

1. **Patch beats re-prepare** — advancing a prepared dataset by a
   single-row update through :meth:`QueryEngine.update` (delta apply +
   lineage fingerprint + table patch + incremental score maintenance)
   must beat a full re-prepare of the same engine state (fresh
   sentinels + cold ``O(d·u·n/64)`` bitset-table build + one full score
   sweep) by at least 10x at n=4000, d=4.
2. **Exactness** — the patched tables must answer ``dominated_counts``
   bit-identically to a cold rebuild of the child version, and the
   incrementally maintained score vector must equal ``score_all``.

A streaming mix (inserts + tombstoned deletes + updates through
:meth:`QueryEngine.continuous`) is also timed and reported, without a
floor — CI runners are too noisy to gate on throughput.

Run:  PYTHONPATH=src python benchmarks/bench_engine_incremental.py
      PYTHONPATH=src python benchmarks/bench_engine_incremental.py \
          --n 700 --min-speedup 0.5          # CI smoke (tiny size)

Writes the measurements to ``--json`` (default
``benchmarks/BENCH_incremental.json``). Exits 1 when the speedup floor
is missed, 2 when the incremental path disagrees with a cold rebuild.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.score import score_all
from repro.datasets.synthetic import independent_dataset
from repro.engine.kernels import PreparedDataset, dominated_counts
from repro.engine.session import PreparedDatasetCache, QueryEngine


def best_of(repeats: int, fn, *args, **kwargs):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, value


def full_reprepare(dataset) -> PreparedDataset:
    """What a fingerprint-invalidating update costs without the delta path.

    The incremental path maintains *both* the packed tables and the full
    score vector, so the fair baseline rebuilds both: fresh sentinels,
    cold table build, and one full ``dominated_counts`` sweep.
    """
    prepared = PreparedDataset(dataset)
    prepared.tables(build=True)
    dominated_counts(dataset, prepared=prepared)
    return prepared


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4000, help="dataset size")
    parser.add_argument("--d", type=int, default=4, help="dimensions")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--stream-ops", type=int, default=200)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="floor for re-prepare seconds / incremental-update seconds",
    )
    parser.add_argument(
        "--json",
        default=os.path.join(os.path.dirname(__file__), "BENCH_incremental.json"),
    )
    args = parser.parse_args()

    dataset = independent_dataset(args.n, args.d, missing_rate=0.15, seed=0)
    engine = QueryEngine(dataset_cache=PreparedDatasetCache())
    engine.prepare_dataset(dataset).tables(build=True)
    engine.scores(dataset)  # seed incremental maintenance

    # -- claim 1: single-row update, patch vs full re-prepare ---------------
    # The owned continuous handle is the engine's designed update fast
    # path: in-place table patches, no copy-on-write spawn per version.
    target = dataset.ids[args.n // 2]
    live = engine.continuous(dataset, k=8)
    counter = [0]

    def continuous_update():
        counter[0] += 1
        live.update({target: {0: float(counter[0] % 97)}})
        return live.dataset

    patch_s, child = best_of(args.repeats, continuous_update)
    reprepare_s, cold = best_of(args.repeats, full_reprepare, child)
    speedup = reprepare_s / patch_s if patch_s > 0 else float("inf")
    print(
        f"single-row update at n={args.n}, d={args.d}: "
        f"incremental {patch_s * 1e3:.2f}ms vs re-prepare {reprepare_s * 1e3:.2f}ms "
        f"-> {speedup:.1f}x (floor {args.min_speedup:.1f}x)"
    )

    # The copy-on-write versioned path (every parent version stays
    # queryable in the shared cache) is reported but not gated.
    versioned_s, vchild = best_of(
        args.repeats,
        lambda: engine.update(dataset, {target: {0: float(counter[0] % 89)}}),
    )
    print(f"versioned (copy-on-write) update: {versioned_s * 1e3:.2f}ms "
          f"({reprepare_s / versioned_s:.1f}x vs re-prepare)")

    # -- claim 2: exactness --------------------------------------------------
    patched = live.prepared
    if not patched.tables_ready:
        print("FAIL: continuous handle lost its tables", file=sys.stderr)
        return 2
    via_patch = dominated_counts(child, prepared=patched)
    via_cold = dominated_counts(child, prepared=cold)
    if not np.array_equal(via_patch, via_cold):
        print("FAIL: patched tables disagree with a cold rebuild", file=sys.stderr)
        return 2
    maintained = live.scores
    if not np.array_equal(maintained, score_all(child)):
        print("FAIL: maintained scores disagree with score_all", file=sys.stderr)
        return 2
    if not np.array_equal(engine.scores(vchild), score_all(vchild)):
        print("FAIL: versioned-path scores disagree with score_all", file=sys.stderr)
        return 2
    print(f"exactness: patched tables and maintained scores match cold recompute "
          f"(n={child.n})")

    # -- streaming mix (reported, not gated) --------------------------------
    live = engine.continuous(dataset, k=8)
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for step in range(args.stream_ops):
        live.insert(rng.integers(0, 100, size=(1, args.d)).astype(float))
        if step % 3 == 0:
            live.delete([live.ids[int(rng.integers(0, live.n))]])
        if step % 5 == 0:
            live.update({live.ids[int(rng.integers(0, live.n))]: {0: float(step % 89)}})
        live.top_k(8)
    stream_s = time.perf_counter() - start
    ops = args.stream_ops + args.stream_ops // 3 + args.stream_ops // 5 + args.stream_ops
    print(
        f"streaming mix: {ops} ops+queries in {stream_s:.2f}s "
        f"({ops / stream_s:.0f}/s, debt {live.prepared.tombstone_debt:.0%})"
    )
    if not np.array_equal(live.scores, score_all(live.dataset)):
        print("FAIL: streaming scores disagree with score_all", file=sys.stderr)
        return 2

    payload = {
        "n": args.n,
        "d": args.d,
        "incremental_update_seconds": patch_s,
        "versioned_update_seconds": versioned_s,
        "reprepare_seconds": reprepare_s,
        "speedup": speedup,
        "min_speedup": args.min_speedup,
        "stream_ops_per_second": ops / stream_s,
        "engine": engine.stats.summary(),
    }
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {args.json}")

    if speedup < args.min_speedup:
        print(
            f"FAIL: incremental update speedup {speedup:.2f}x below the "
            f"{args.min_speedup:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
