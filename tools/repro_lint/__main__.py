"""CLI: ``python -m repro_lint src tests benchmarks`` (exit 0 = clean)."""

from __future__ import annotations

import argparse
import sys

from .core import RULES, lint_paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description="Engine-invariant static analysis for the repro codebase.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalogue")
    parser.add_argument(
        "--select",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--embedded-sha",
        metavar="BACKEND_PY",
        help="print the sha256 of the embedded C source in the given backend file (CI cache key)",
    )
    parser.add_argument(
        "--ctypes-report",
        metavar="BACKEND_PY",
        help="print the per-function ctypes verification summary and exit",
    )
    args = parser.parse_args(argv)

    # ensure all rules are registered before --list-rules
    from . import rules, lockorder, ctypes_check  # noqa: F401

    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]['summary']}")
        return 0
    if args.embedded_sha:
        print(ctypes_check.embedded_source_sha(args.embedded_sha))
        return 0
    if args.ctypes_report:
        report = ctypes_check.verified_declarations(args.ctypes_report)
        total = sum(entry["declarations"] for entry in report)
        for entry in report:
            status = "ok" if entry["py_args"] is not None and entry["restype_checked"] else "MISSING"
            print(
                f"{entry['function']}: {len(entry['c_args'])} args + restype "
                f"({entry['declarations']} declarations) [{status}]"
            )
        print(f"total declarations verified: {total}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro_lint: error: no paths given", file=sys.stderr)
        return 2

    selected = None
    if args.select:
        selected = {c.strip() for c in args.select.split(",") if c.strip()}
        unknown = selected - set(RULES) - {"REP000"}
        if unknown:
            print(f"repro_lint: error: unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    run = lint_paths(args.paths, selected)
    for finding in run.findings:
        print(finding.render())
    status = "clean" if not run.findings else f"{len(run.findings)} finding(s)"
    print(f"repro-lint: {run.files_scanned} file(s) scanned, {status}")
    return 1 if run.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
