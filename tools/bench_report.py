#!/usr/bin/env python
"""Aggregate every committed ``benchmarks/BENCH_*.json`` into one table.

Each enforced benchmark writes its measurements (and the floors it held
them to) as a JSON report next to the runner that produced it.  This tool
reads them all and prints one trajectory table — headline ratios, the
floor each was enforced against, and the workload shape — so the
performance story across PRs is readable in one place:

    PYTHONPATH=src python tools/bench_report.py
    PYTHONPATH=src python tools/bench_report.py --dir benchmarks --json -

Headline metrics are any numeric top-level keys ending in ``speedup``,
``_ratio``, ``_rate`` or ``_per_second``.  Floors are matched from
``min_<metric>`` keys, a ``floors`` mapping, or a bare ``min_speedup``
for ``*_speedup`` metrics.  Unknown layouts degrade to metric-only rows
rather than failing: the table must never go stale just because one
benchmark grew a new field.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HEADLINE_SUFFIXES = ("speedup", "_ratio", "_rate", "_per_second")
SHAPE_KEYS = ("n", "d", "k", "workers", "partitions")


def _floors(report: dict) -> dict[str, float]:
    floors = {
        key[4:]: value
        for key, value in report.items()
        if key.startswith("min_") and isinstance(value, (int, float))
    }
    nested = report.get("floors")
    if isinstance(nested, dict):
        for key, value in nested.items():
            if isinstance(value, (int, float)):
                floors.setdefault(key, value)
    return floors


def _floor_for(metric: str, floors: dict[str, float]) -> float | None:
    if metric in floors:
        return floors[metric]
    if metric.endswith("speedup") and "speedup" in floors:
        return floors["speedup"]
    return None


def collect(directory: Path) -> list[dict]:
    rows: list[dict] = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            rows.append({"benchmark": path.stem, "error": str(exc)})
            continue
        if not isinstance(report, dict):
            rows.append({"benchmark": path.stem, "error": "not a JSON object"})
            continue
        floors = _floors(report)
        shape = ", ".join(
            f"{key}={report[key]}"
            for key in SHAPE_KEYS
            if isinstance(report.get(key), (int, float))
        )
        metrics = []
        for key, value in report.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if not key.endswith(HEADLINE_SUFFIXES):
                continue
            if key.startswith("min_") or key == "missing_rate":
                continue  # floors and workload shape, not measurements
            metrics.append(
                {"metric": key, "value": float(value), "floor": _floor_for(key, floors)}
            )
        rows.append({"benchmark": path.stem, "shape": shape, "metrics": metrics})
    return rows


def render(rows: list[dict]) -> str:
    table = [("benchmark", "metric", "value", "floor", "status", "workload")]
    for row in rows:
        if "error" in row:
            table.append((row["benchmark"], "-", "-", "-", "ERROR", row["error"]))
            continue
        if not row["metrics"]:
            table.append((row["benchmark"], "-", "-", "-", "-", row["shape"]))
            continue
        for i, metric in enumerate(row["metrics"]):
            floor = metric["floor"]
            status = (
                "-"
                if floor is None
                else ("ok" if metric["value"] >= floor else "BELOW")
            )
            table.append(
                (
                    row["benchmark"] if i == 0 else "",
                    metric["metric"],
                    f"{metric['value']:.2f}",
                    "-" if floor is None else f"{floor:.2f}",
                    status,
                    row["shape"] if i == 0 else "",
                )
            )
    widths = [max(len(line[col]) for line in table) for col in range(len(table[0]))]
    out = []
    for idx, line in enumerate(table):
        out.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
        if idx == 0:
            out.append("  ".join("-" * width for width in widths))
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dir",
        default=Path(__file__).resolve().parent.parent / "benchmarks",
        type=Path,
        help="directory holding BENCH_*.json reports",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also dump the aggregated rows as JSON ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    rows = collect(args.dir)
    if not rows:
        print(f"no BENCH_*.json reports under {args.dir}", file=sys.stderr)
        return 1
    print(render(rows))
    if args.json == "-":
        print(json.dumps(rows, indent=2))
    elif args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
