#!/usr/bin/env python
"""Out-of-core partitioned-execution acceptance benchmark.

The claim under test: a query whose prepared bitset tables are **far
larger than RAM** (monolithic n=1M, d=4 needs ~1TB) completes on one
box by sharding the data, spilling every shard's tables to
memory-mapped files, and keeping only a byte-budgeted *resident set* of
attachments hot — with peak RSS tracking the budget, not the table sum.

Measured and enforced:

1. **Completion under budget** — ``QueryEngine.query(partitions=P)``
   with ``memory_budget`` ≤ ``--budget-fraction`` of the total prepared
   shard-table bytes must finish and report ``spill=True``.
2. **Peak RSS** — ``resource.getrusage`` high-water mark must stay
   under budget + a fixed process overhead allowance (``--max-rss`` to
   override, 0 disables the gate).
3. **Exactness** — at ``--check-n`` (where a monolithic reference is
   feasible) the out-of-core answer must be bit-identical to ``naive``.

Reported (not gated): wall time, protocol time (``query_seconds``) and
its split into phase 1, phase 2 and the rest (bound merge plus
selection, ``unattributed_seconds``), resident-set hit rate,
phase-2 candidate survival, spill file count/bytes, and the monolithic
table estimate that makes the direct route impossible.

Run:  PYTHONPATH=src python benchmarks/bench_engine_outofcore.py            # full 1M
      PYTHONPATH=src python benchmarks/bench_engine_outofcore.py \
          --n 30000 --partitions 16 --check-n 3000                          # CI smoke

Writes measurements to ``--json`` (default
``benchmarks/BENCH_outofcore.json``). Exits 1 on a floor violation, 2
when the out-of-core answer disagrees with the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from repro.datasets.synthetic import independent_dataset
from repro.engine.kernels import _bitset_table_bytes
from repro.engine.session import PreparedDatasetCache, QueryEngine


def peak_rss_bytes() -> int:
    """Process high-water resident set (ru_maxrss is KB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss * 1024 if sys.platform != "darwin" else rss


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1_000_000, help="dataset size")
    parser.add_argument("--d", type=int, default=4, help="dimensions")
    parser.add_argument("--k", type=int, default=10, help="answer size")
    parser.add_argument("--missing-rate", type=float, default=0.3)
    parser.add_argument(
        "--partitions",
        type=int,
        default=0,
        help="shard count (default 0: smallest power of two giving "
        "shards of ≤4096 rows, the sweet spot for per-shard tables)",
    )
    parser.add_argument(
        "--budget-fraction",
        type=float,
        default=0.25,
        help="resident budget as a fraction of total spilled table bytes "
        "(default 0.25 — the engine may keep at most a quarter hot)",
    )
    parser.add_argument(
        "--rss-overhead",
        type=int,
        default=1_500_000_000,
        help="allowance added to the budget for the RSS gate: dataset "
        "arrays, interpreter, and kernel temporaries (default 1.5GB)",
    )
    parser.add_argument(
        "--max-rss",
        type=int,
        default=-1,
        help="absolute peak-RSS cap in bytes (-1: budget + overhead; 0: no gate)",
    )
    parser.add_argument(
        "--check-n",
        type=int,
        default=20_000,
        help="size of the n-reduced bit-identity check against naive "
        "(0 disables; the full n has no feasible reference)",
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        help="directory for the spill store (default: a fresh temp dir, "
        "removed afterwards)",
    )
    parser.add_argument(
        "--json",
        default=os.path.join(os.path.dirname(__file__), "BENCH_outofcore.json"),
    )
    args = parser.parse_args()

    partitions = args.partitions
    if partitions <= 0:
        partitions = 1
        while -(-args.n // partitions) > 4096:
            partitions *= 2
    shard_n = -(-args.n // partitions)
    table_total = partitions * _bitset_table_bytes(shard_n, args.d)
    budget = max(int(table_total * args.budget_fraction), 1)
    mono_bytes = _bitset_table_bytes(args.n, args.d)
    print(
        f"workload: n={args.n} d={args.d} k={args.k} σ={args.missing_rate} "
        f"P={partitions} (shards of ~{shard_n} rows)"
    )
    print(
        f"monolithic tables would need ~{mono_bytes / 1e9:.0f}GB; "
        f"sharded spill total ~{table_total / 1e6:.0f}MB, "
        f"resident budget {budget / 1e6:.0f}MB "
        f"({args.budget_fraction:.0%} of the spill)"
    )

    dataset = independent_dataset(args.n, args.d, missing_rate=args.missing_rate, seed=0)

    spill_dir = args.spill_dir
    own_spill = spill_dir is None
    if own_spill:
        spill_dir = tempfile.mkdtemp(prefix="repro-outofcore-")
    rss_before = peak_rss_bytes()
    try:
        engine = QueryEngine(
            dataset_cache=PreparedDatasetCache(), store=spill_dir, memory_budget=budget
        )
        start = time.perf_counter()
        result = engine.query(dataset, args.k, partitions=partitions)
        wall = time.perf_counter() - start
        cache = engine.dataset_cache
        extra = result.stats.extra
        spill_files = list(engine.store.shard_entries())
        spill_bytes = sum(e.get("bytes", 0) for e in spill_files)
    finally:
        if own_spill:
            shutil.rmtree(spill_dir, ignore_errors=True)

    peak = peak_rss_bytes()
    hit_rate = cache.resident_hit_rate
    survival = extra.get("survival", 1.0)
    phase1 = extra.get("phase1_seconds", 0.0)
    phase2 = extra.get("phase2_seconds", 0.0)
    query_seconds = result.stats.query_seconds
    # Bound merge plus final selection: the protocol time neither phase
    # clock covers.
    unattributed = query_seconds - phase1 - phase2
    print(
        f"out-of-core query: {wall:.2f}s wall, {query_seconds:.2f}s in the protocol "
        f"(phase 1 {phase1:.2f}s, phase 2 {phase2:.2f}s, "
        f"merge + select {unattributed:.2f}s), spill={extra.get('spill')}"
    )
    print(
        f"resident set: {cache.resident_hits} hits / {cache.resident_misses} misses "
        f"({hit_rate:.1%} hit rate), {cache.resident_evictions} evictions, "
        f"{len(spill_files)} spill files / {spill_bytes / 1e6:.0f}MB"
    )
    print(
        f"phase-2 survival {survival:.2%} ({result.stats.candidates} of {args.n}), "
        f"merge={extra.get('merge')} ({extra.get('merge_groups', 0)} groups), "
        f"tau={extra.get('tau')}"
    )
    print(f"peak RSS {peak / 1e9:.2f}GB (was {rss_before / 1e9:.2f}GB before the query)")

    failures = []
    if not extra.get("spill"):
        failures.append("query did not take the out-of-core path (spill=False)")
    max_rss = args.max_rss if args.max_rss >= 0 else budget + args.rss_overhead
    if max_rss and peak > max_rss:
        failures.append(f"peak RSS {peak / 1e9:.2f}GB exceeds the {max_rss / 1e9:.2f}GB cap")

    check = None
    if args.check_n:
        from repro.core.query import top_k_dominating

        small = independent_dataset(
            args.check_n, args.d, missing_rate=args.missing_rate, seed=0
        )
        # A quarter of the check query's own 8-shard table total, so the
        # reference-sized run is forced down the spill path too.
        small_budget = max(
            8 * _bitset_table_bytes(-(-args.check_n // 8), args.d) // 4, 1
        )
        small_engine = QueryEngine(
            dataset_cache=PreparedDatasetCache(), memory_budget=small_budget
        )
        ooc = small_engine.query(small, args.k, partitions=8)
        reference = top_k_dominating(small, args.k, algorithm="naive")
        check = {
            "n": args.check_n,
            "spill": bool(ooc.stats.extra.get("spill")),
            "identical": ooc.indices == reference.indices
            and ooc.scores == reference.scores,
        }
        if not check["spill"]:
            failures.append("bit-identity check did not exercise the spill path")
        if not check["identical"]:
            print(
                "FAIL: out-of-core answer is not bit-identical to naive "
                f"at n={args.check_n}",
                file=sys.stderr,
            )
            return 2
        print(f"exactness: bit-identical to naive at n={args.check_n} (spilled)")

    payload = {
        "n": args.n,
        "d": args.d,
        "k": args.k,
        "missing_rate": args.missing_rate,
        "partitions": partitions,
        "monolithic_table_bytes": mono_bytes,
        "spill_table_bytes": table_total,
        "memory_budget_bytes": budget,
        "budget_fraction": args.budget_fraction,
        "wall_seconds": wall,
        "query_seconds": query_seconds,
        "phase1_seconds": phase1,
        "phase2_seconds": phase2,
        "unattributed_seconds": unattributed,
        "peak_rss_bytes": peak,
        "max_rss_bytes": max_rss,
        "resident_hits": cache.resident_hits,
        "resident_misses": cache.resident_misses,
        "resident_evictions": cache.resident_evictions,
        "resident_hit_rate": hit_rate,
        "spill_files": len(spill_files),
        "spill_bytes": spill_bytes,
        "candidate_survival": survival,
        "candidates": result.stats.candidates,
        "merge": extra.get("merge"),
        "merge_groups": extra.get("merge_groups", 0),
        "tau": extra.get("tau"),
        "bit_identity_check": check,
    }
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {args.json}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
