"""The repository benchmark: three closed-loop workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_queries --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck --runs 10

One run generates its workload's inputs from ``--seed``, sets up fresh
sessions (timed as ``setup_s``), drives the workload's calls for
``--seconds`` seconds, checks every answer against an independent exact
reference, and prints a human-readable report followed, as the last
line, by ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates traced and untraced calls and reports the
per-layer split from the engine's spans plus the benchmark's own spans
around every public call. ``--selfcheck`` runs two back-to-back sets of
untraced runs, alternating workloads, and reports whether the two sets
agree within each metric's bound.

Every run writes its full record (host facts, every metric with the
end-to-end metric each layer metric should move) under
``.bench_build/perfbench/records/``. The run reads and writes only
inside the checkout: native library cache, temporary and spill
directories live under ``.bench_build/perfbench/`` too.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"


def isolate_environment() -> Path:
    """Drop every ``REPRO_*`` knob and keep caches and temp files private.

    A persistent store (``REPRO_CACHE_DIR``) would serve earlier runs'
    answers, and the tracing, budget and backend knobs would change what
    is measured. Returns this run's private temporary directory, which
    also receives the engine's ephemeral spill directories.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    scratch = WORK / "tmp" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    return scratch


def import_program():
    """Import the engine from the checkout's ``src`` (exit non-zero if absent)."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure at {source / 'repro'}")
    sys.path.insert(0, str(source))
    import repro.engine  # noqa: F401


def load_config() -> dict:
    """``BENCHMARK.json``, checked against :data:`spec.LAYER_TARGETS`."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in config["per_layer"]}
    if declared != set(spec.LAYER_TARGETS):
        sys.exit(
            "perfbench: BENCHMARK.json per_layer and spec.LAYER_TARGETS differ: "
            f"{sorted(declared ^ set(spec.LAYER_TARGETS))}"
        )
    return config


# -- host, memory, leaks ------------------------------------------------------


def prepare_process() -> dict:
    """Finish per-process lazy start-up before any clock, and describe the host.

    Builds (or loads) the native library, resolves the kernel backend and
    runs the planner's start-up calibration: start-up cost, like imports,
    stays outside ``setup_s``.
    """
    import numpy as np

    from repro.engine import backend, planner

    backend.native_available()
    active = backend.get_backend()
    planner.calibration()
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": _cpu_model(),
        "backend": active.name,
        "native_build_mode": backend.native_build_mode(),
        "native_build_error": backend.native_build_error(),
        "simd_route": backend.simd_route(),
        "native_threads": backend.native_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of every live pool worker."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kilobytes += sum(_vm_hwm_kb(child.pid) for child in multiprocessing.active_children())
    return kilobytes / 1024.0


class SegmentWatch:
    """Shared-memory segments of this run that outlive a call.

    Segment names carry the creating pid (``<prefix>-<pid>-<n>``), so
    segments of other processes on the host are told apart from this
    process's and its pool workers'.
    """

    def __init__(self) -> None:
        from repro.engine import backend

        self.prefix = getattr(backend, "_SHM_PREFIX", "reproshm") + "-"
        self.pids = {os.getpid()}
        self.reported: set[str] = set()

    def new_leaks(self) -> list[str]:
        self.pids |= {child.pid for child in multiprocessing.active_children()}
        try:
            names = os.listdir("/dev/shm")
        except OSError:
            return []
        ours = set()
        for name in names:
            pid = name[len(self.prefix) :].split("-", 1)[0]
            if name.startswith(self.prefix) and pid.isdigit() and int(pid) in self.pids:
                ours.add(name)
        leaked = sorted(ours - self.reported)
        self.reported |= ours
        return leaked


def spill_dirs(scratch: Path) -> set[str]:
    return {path.name for path in scratch.glob("repro-spill-*")}


# -- statistics -----------------------------------------------------------------


def percentile(samples: list[float], fraction: float) -> float | None:
    """Nearest-rank percentile, or ``None`` unless 10+ samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(fraction * len(ordered), 6)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- one run ---------------------------------------------------------------------


def run(args) -> int:
    scratch = isolate_environment()
    import_program()
    from repro.engine import telemetry
    from repro.engine.session import shutdown_pool

    from workloads import WORKLOADS

    config = load_config()
    traced = bool(args.trace)
    telemetry.set_enabled(False)
    host = prepare_process()
    workload = WORKLOADS[args.workload](args.seed)
    segments = SegmentWatch()
    leaks: list[str] = []

    # -- set-up: fresh sessions to the first answer on every dataset ---------
    setups = 1 if traced else workload.setups
    setup_seconds, setup_calls, session = [], [], None
    for _ in range(setups):
        if session is not None:
            del session
            gc.collect()
            leaks += [f"spill directory {name}" for name in spill_dirs(scratch)]
        gc.collect()
        # Pool workers keep shard caches across engines: a fresh session
        # starts from a fresh pool.
        shutdown_pool()
        telemetry.reset()
        telemetry.set_enabled(traced)
        start = telemetry.clock()
        with telemetry.trace("bench.setup"):
            session = workload.fresh()
        setup_seconds.append(telemetry.clock() - start)
        setup_calls += session.calls
        leaks += [f"/dev/shm segment {name} left by a set-up" for name in segments.new_leaks()]
    setup_spans = telemetry.drain_spans()
    telemetry.set_enabled(False)

    # -- timed phase: a closed loop until the deadline ---------------------------
    calls, traced_flags = [], []
    mode_seconds = {True: 0.0, False: 0.0}
    mode_calls = {True: 0, False: 0}
    start = telemetry.clock()
    deadline = start + args.seconds
    step = 0
    now = start
    while now < deadline:
        on = traced and step % 2 == 0
        telemetry.set_enabled(on)
        made = workload.step(session)
        telemetry.set_enabled(False)
        after = telemetry.clock()
        mode_seconds[on] += after - now
        mode_calls[on] += len(made)
        now = after
        calls += made
        traced_flags += [on] * len(made)
        leaked = segments.new_leaks()
        if leaked:
            leaks.append(f"/dev/shm segments {leaked} left after timed step {step}")
        step += 1
    wall = now - start
    timed_spans = telemetry.drain_spans()
    peak = peak_rss_mb()

    # -- checks, outside every clock -------------------------------------------
    all_calls = setup_calls + calls
    failures = workload.verify(all_calls)
    layers, regret_by_shape = {}, None
    if traced:
        layers = layer_metrics(workload, session, calls, traced_flags, setup_spans, timed_spans, mode_seconds, mode_calls)
        regret_by_shape = layers.pop("planner.regret_by_shape", None)
    del session
    gc.collect()
    shutdown_pool()
    leaks += [f"spill directory {name}" for name in spill_dirs(scratch)]
    leaks += [f"/dev/shm segment {name}" for name in segments.new_leaks()]
    shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(all_calls)
    failed = len(failures) + len(leaks)
    reads = [c.seconds for c in calls if c.kind in ("query", "read")]
    writes = [c.seconds for c in calls if c.kind in ("insert", "delete", "update")]
    end_to_end = {
        "setup_s": statistics.median(setup_seconds),
        "query_p50_ms": statistics.median(reads) * 1e3,
        "ops_per_s": len(calls) / wall,
        "peak_rss_mb": peak,
    }
    extra = {"error_rate": failed / attempted}
    notes = []
    if percentile(reads, 0.5) is None:
        notes.append(f"query_p50_ms rests on {len(reads)} reads, fewer than ten of them beyond it")
    p90 = percentile(reads, 0.9)
    if p90 is not None:
        extra["query_p90_ms"] = p90 * 1e3
    if writes:
        extra["update_p50_ms"] = statistics.median(writes) * 1e3
        p90 = percentile(writes, 0.9)
        if p90 is not None:
            extra["update_p90_ms"] = p90 * 1e3

    declared = config["per_layer" if traced else "end_to_end"]
    values = layers if traced else end_to_end
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "host": host,
        "setup_seconds": setup_seconds,
        "samples": {"reads": len(reads), "writes": len(writes), "cached": len(calls) - len(reads) - len(writes), "setups": len(setup_seconds)},
        "timed_wall_s": wall,
        "strata": strata(workload, calls),
        "end_to_end": {**end_to_end, **extra},
        "per_layer": {
            m["name"]: {**metrics[m["name"]], "moves": spec.LAYER_TARGETS[m["name"]][0], "workload": spec.LAYER_TARGETS[m["name"]][1]}
            for m in declared
        }
        if traced
        else {},
        "planner_regret_by_shape": regret_by_shape,
        "attempted": attempted,
        "failed": failed,
        "failures": [f"call {index}: {reason}" for index, reason in sorted(failures.items())][:20] + leaks,
        "notes": notes,
    }
    record_path = Path(args.record) if args.record else WORK / "records" / f"{workload.name}-seed{args.seed}-trace{int(traced)}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print_report(record, {m["name"]: m["unit"] for m in config["end_to_end"]})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def strata(workload, calls) -> dict:
    """Timed calls per stratum (shape, operation type): count and median ms."""
    groups: dict[str, list[float]] = {}
    for call in calls:
        groups.setdefault(str(workload.stratum(call)), []).append(call.seconds)
    return {key: {"count": len(values), "median_ms": statistics.median(values) * 1e3} for key, values in sorted(groups.items())}


def layer_metrics(workload, session, calls, traced_flags, setup_spans, timed_spans, mode_seconds, mode_calls) -> dict:
    """The per-layer split of one traced run."""
    from repro.engine import telemetry

    summary = telemetry.phase_summary(timed_spans)
    rows = {row["name"]: row for row in summary["phases"]}
    traced_calls = max(mode_calls[True], 1)
    out = {}
    for metric, (span, field) in spec.SPAN_TIMES.items():
        row = rows.get(span)
        out[metric] = row[field] * 1e3 / traced_calls if row else 0.0
    builds = [s for s in setup_spans + timed_spans if s["name"] == "kernel.build_tables"]
    out["kernels.build_tables_count"] = float(len(builds))
    out["kernels.build_tables_ms"] = sum(s["wall"] for s in builds) * 1e3
    attaches = rows.get("spill.attach")
    out["spill.attach_count"] = attaches["count"] / traced_calls if attaches else 0.0
    for kind in ("insert", "delete", "update", "read"):
        own = [c.seconds for c, on in zip(calls, traced_flags) if on and c.kind == kind]
        if own:
            out[f"stream.{kind}_ms"] = statistics.mean(own) * 1e3
    # Traced and untraced calls alternate; compare them stratum by stratum
    # (shape, operation type) so that 1 - traced/untraced ops_per_s is
    # taken over the same call mix on both sides.
    latencies = {True: {}, False: {}}
    for call, on in zip(calls, traced_flags):
        if call.error is None:
            latencies[on].setdefault(workload.stratum(call), []).append(call.seconds)
    common = latencies[True].keys() & latencies[False].keys()
    if common:
        traced_mix = sum(statistics.mean(latencies[True][key]) for key in common)
        plain_mix = sum(statistics.mean(latencies[False][key]) for key in common)
        out["trace.overhead"] = 1.0 - plain_mix / traced_mix
    out["trace.attributed"] = summary["attributed_wall"] / mode_seconds[True] if mode_seconds[True] else 0.0
    out.update(workload.layer_metrics(session, calls))
    return out


def print_report(record: dict, units: dict) -> None:
    host = record["host"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']}: {record['why']}"
    )
    print(
        f"host: nproc={host['nproc']} affinity={host['cpu_affinity']} backend={host['backend']} "
        f"build={host['native_build_mode']} simd={host['simd_route']} threads={host['native_threads']} "
        f"python={host['python']} numpy={host['numpy']}"
    )
    samples = record["samples"]
    print(
        f"samples: {samples['reads']} reads, {samples['writes']} writes, "
        f"{samples['cached']} cached answers, {samples['setups']} set-ups"
    )

    if not record["trace"]:
        for name, value in record["end_to_end"].items():
            unit = units.get(name) or spec.WORKLOAD_END_TO_END[name]
            print(f"  {name:<16} {value:>14.4f} {unit}")
    else:
        for name, entry in record["per_layer"].items():
            print(f"  {name:<28} {entry['value']:>14.4f} {entry['unit']:<6} moves {entry['moves']} on {entry['workload']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for note in record["notes"]:
        print(f"NOTE {note}")


# -- steadiness self-check -----------------------------------------------------


def selfcheck(args) -> int:
    """Two back-to-back sets of untraced runs, alternating workloads."""
    config = load_config()
    seconds = args.seconds or config["run_seconds"]
    names = [workload["name"] for workload in config["workloads"]]
    out_dir = WORK / "selfcheck"
    out_dir.mkdir(parents=True, exist_ok=True)
    sets: list[dict] = []
    for index in range(2):
        values: dict = {}
        for run_index in range(args.runs):
            seed = 1 + index * args.runs + run_index
            for name in names:
                record_path = out_dir / f"{name}-seed{seed}.json"
                command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0", "--record", str(record_path)]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
                if done.returncode != 0:
                    print(done.stdout + done.stderr)
                    return 1
                record = json.loads(record_path.read_text())
                print(f"set {'AB'[index]} {name} seed={seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in record["end_to_end"].items()), flush=True)
                for metric, value in record["end_to_end"].items():
                    values.setdefault((name, metric), []).append(value)
        sets.append(values)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    bounds.update({name: bounds["query_p50_ms"] for name in spec.WORKLOAD_END_TO_END})
    bounds["error_rate"] = 0.0
    steady = True
    print(f"{'workload':<16} {'metric':<14} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for key in sorted(sets[0]):
        name, metric = key
        bound = bounds[metric]
        medians = []
        for index, values in enumerate(sets):
            series = values.get(key, [])
            if len(series) < 2:
                continue
            q1, median, q3 = quartiles(series)
            medians.append(median)
            spread = (q3 - q1) / median if median else 0.0
            ok = spread <= bound
            if metric == "error_rate":
                ok = max(series) == 0.0
            steady &= ok
            verdict = "SPREAD" if not ok else "ok" if spread <= bound / 3 else "ok, above a third of the bound"
            print(f"{name:<16} {metric:<14} {'AB'[index]:<3} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound:>6.2f}  {verdict}")
        if len(medians) == 2 and metric != "error_rate":
            shift = (medians[1] - medians[0]) / medians[0]
            agree = abs(shift) <= bound
            steady &= agree
            print(f"{name:<16} {metric:<14} B/A {shift:>+12.3f}  {'agree' if agree else 'DISAGREE'} within {bound:.2f}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="where to write this run's full record")
    parser.add_argument("--selfcheck", action="store_true", help="run two sets of runs and compare them")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set (--selfcheck)")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if not args.workload or args.seconds is None:
        parser.error("--workload and --seconds are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
