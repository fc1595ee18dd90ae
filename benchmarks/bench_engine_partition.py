#!/usr/bin/env python
"""Partitioned-execution acceptance benchmark.

Two claims, each measured and enforced:

1. **Sharding beats the monolithic engine where bounds are loose** — at
   n=20000, d=4 and a high missing rate (σ = 0.8, the regime where the
   paper's own pruning family degrades, Fig. 18a), a cold
   ``QueryEngine.query(partitions=P)`` must beat a cold monolithic
   ``engine.query`` (cost-based ``algorithm="auto"``) by at least 2x
   wall-clock. Both routes run in process and are timed best-of-N, each
   attempt in a fresh session with a private prepared cache.
2. **Exactness** — the partitioned and the monolithic answers must both
   be bit-identical to ``naive`` (indices and scores, deterministic
   tie-breaking).

The phase-2 **candidate-survival fraction** (what share of objects had
to be exchanged after the summary bounds + τ refinement) is logged and
written to the JSON payload, along with phase timings.

Run:  PYTHONPATH=src python benchmarks/bench_engine_partition.py
      PYTHONPATH=src python benchmarks/bench_engine_partition.py \
          --n 1500 --partitions 3 --min-speedup 0.0  # CI smoke

Writes the measurements to ``--json`` (default
``benchmarks/BENCH_partition.json``). Exits 1 when the speedup floor is
missed, 2 when the partitioned answer disagrees with the monolithic one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.datasets.synthetic import independent_dataset
from repro.engine.session import PreparedDatasetCache, QueryEngine


def timed_cold_query(dataset, k, repeats, **query_kwargs):
    """Best-of-N cold query: fresh session + private cache per attempt."""
    best, result = float("inf"), None
    for _ in range(repeats):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        start = time.perf_counter()
        result = engine.query(dataset, k, **query_kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20000, help="dataset size")
    parser.add_argument("--d", type=int, default=4, help="dimensions")
    parser.add_argument("--k", type=int, default=10, help="answer size")
    parser.add_argument(
        "--missing-rate",
        type=float,
        default=0.8,
        help="σ of the workload; high missingness is where monolithic "
        "bounds degrade and sharding pays (default 0.8)",
    )
    parser.add_argument("--partitions", type=int, default=8, help="shard count")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="floor for monolithic seconds / partitioned seconds",
    )
    parser.add_argument(
        "--json",
        default=os.path.join(os.path.dirname(__file__), "BENCH_partition.json"),
    )
    args = parser.parse_args()

    dataset = independent_dataset(
        args.n, args.d, missing_rate=args.missing_rate, seed=0
    )
    print(
        f"workload: n={args.n} d={args.d} k={args.k} σ={args.missing_rate} "
        f"(P={args.partitions}, best of {args.repeats} cold queries)"
    )

    mono_s, mono = timed_cold_query(dataset, args.k, args.repeats)
    print(f"monolithic auto ({mono.algorithm}): {mono_s * 1e3:.0f}ms")

    part_s, part = timed_cold_query(
        dataset, args.k, args.repeats, partitions=args.partitions
    )
    extra = part.stats.extra
    survival = extra.get("survival", 1.0)
    speedup = mono_s / part_s if part_s > 0 else float("inf")
    print(
        f"partitioned P={extra.get('partitions')}: "
        f"{part_s * 1e3:.0f}ms -> {speedup:.1f}x (floor {args.min_speedup:.1f}x)"
    )
    print(
        f"phase 1 {extra.get('phase1_seconds', 0.0) * 1e3:.0f}ms, "
        f"phase 2 {extra.get('phase2_seconds', 0.0) * 1e3:.0f}ms, "
        f"candidate survival {survival:.1%} "
        f"({part.stats.candidates} of {args.n}; {extra.get('refined', 0)} refined, "
        f"tau={extra.get('tau')})"
    )

    # Every exact route returns the canonical answer (score descending,
    # then lowest index), so each is held to bit-identity with naive.
    from repro.core.query import top_k_dominating

    reference = top_k_dominating(dataset, args.k, algorithm="naive")
    answers = (
        ("partitioned", part),
        (f"monolithic auto ({mono.algorithm})", mono),
    )
    for label, answer in answers:
        if answer.indices != reference.indices or answer.scores != reference.scores:
            print(f"FAIL: {label} answer is not bit-identical to naive", file=sys.stderr)
            return 2
    print(f"exactness: every route bit-identical to naive for k={args.k}")

    payload = {
        "n": args.n,
        "d": args.d,
        "k": args.k,
        "missing_rate": args.missing_rate,
        "partitions": args.partitions,
        "repeats": args.repeats,
        "monolithic_seconds": mono_s,
        "monolithic_algorithm": mono.algorithm,
        "partitioned_seconds": part_s,
        "speedup": speedup,
        "min_speedup": args.min_speedup,
        "candidate_survival": survival,
        "candidates": part.stats.candidates,
        "refined": extra.get("refined", 0),
        "phase1_seconds": extra.get("phase1_seconds", 0.0),
        "phase2_seconds": extra.get("phase2_seconds", 0.0),
    }
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {args.json}")

    if speedup < args.min_speedup:
        print(
            f"FAIL: partitioned speedup {speedup:.2f}x below the "
            f"{args.min_speedup:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
