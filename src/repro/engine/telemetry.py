"""Engine-wide telemetry: hierarchical spans, metrics, exporters.

The engine spans six layers, two process boundaries (the ``query_many``
pool, spill I/O) and a native C kernel library — and until this module
the only visibility was counters read after the fact. Telemetry answers
"where did this query spend its time?" on any production query:

* **Spans** — :func:`trace` opens one node of a wall/CPU-timed tree::

      with trace("phase2.exchange") as span:
          span.set("survivors", survivors)

  Near-zero-cost when disabled: one module-flag check, no allocation
  (a shared no-op singleton is returned). Enabled via ``REPRO_TRACE=1``,
  ``QueryEngine(trace=True)`` or the CLI ``--trace`` flag. Each finished
  span records wall seconds, per-thread CPU seconds, thread id, process
  id and structured attributes, and parents to the span active on the
  same thread when it started.

* **Cross-process propagation** — :func:`propagation_context` rides the
  existing pool-task payloads into workers; :func:`begin_remote` adopts
  it there, so worker spans join the coordinator's trace, and
  :func:`end_remote` drains them for the trip back, where
  :func:`absorb_spans` re-attaches them. One query — one coherent tree,
  across every process that served it.

* **Metrics registry** — :class:`MetricsRegistry` (via :func:`metrics`)
  unifies the ad-hoc ``EngineStats``/``StoreStats``/``stats.extra``
  counters behind one locked API: monotonic counters, gauges and
  histograms over fixed exponential buckets. ``stats.extra`` remains as
  a deprecated compatibility shim; span attributes are the replacement.

* **Exporters** — :func:`export_jsonl` (one span per line),
  :func:`export_chrome_trace` (Chrome ``trace_event`` JSON, loadable in
  Perfetto / ``chrome://tracing``), :func:`load_spans` to read either
  back, and :func:`render_summary`, the per-phase latency/attribution
  table behind ``repro trace summary``.

Timing discipline: this module is the one sanctioned home of
``time.*`` calls in the engine layer (repro-lint REP009). Engine code
that needs a raw timestamp uses :func:`clock` (monotonic, for
durations) or :func:`wall_clock` (epoch, for metadata) instead of
importing :mod:`time` itself.

The enabled flag is process-wide, like backend selection: spans from
every session in the process interleave into one collector, and the
single-word read on the disabled fast path is an intentional benign
race (same contract as ``backend._active_backend``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from bisect import bisect_right
from pathlib import Path

from ._lockcheck import make_lock

__all__ = [
    "MetricsRegistry",
    "Span",
    "absorb_spans",
    "begin_remote",
    "clock",
    "collected_spans",
    "drain_spans",
    "enabled",
    "end_remote",
    "export_chrome_trace",
    "export_jsonl",
    "load_spans",
    "metrics",
    "phase_summary",
    "propagation_context",
    "render_summary",
    "set_enabled",
    "trace",
    "wall_clock",
]

#: Monotonic clock for durations — the engine-layer alias for
#: ``time.perf_counter`` (REP009 keeps raw ``time.*`` calls out of the
#: other engine modules).
clock = time.perf_counter

#: Epoch clock for metadata timestamps (store entry ages, span starts).
#: Never feed this into an identity/fingerprint computation.
wall_clock = time.time

#: Per-thread CPU clock backing a span's ``cpu`` field.
_thread_time = time.thread_time

_enabled = os.environ.get("REPRO_TRACE", "") not in ("", "0", "false", "False")

#: Finished-span collector. Bounded so a fully traced long run (the
#: ``REPRO_TRACE=1`` CI leg runs the whole tier-1 suite) cannot grow
#: without limit: past the cap the oldest spans are dropped and counted.
_MAX_SPANS = 100_000
_spans: list[dict] = []
_spans_dropped = 0
_spans_lock = make_lock("telemetry-spans", reentrant=False)

#: Unique-in-process span sequence; ids are ``"<pid-hex>.<seq-hex>"`` so
#: spans minted in different worker processes can never collide.
_ids = itertools.count(1)

#: Ambient parent adopted from another process (``begin_remote``):
#: ``(trace_id, span_id)`` that root spans of this process attach to.
_remote_parent: tuple | None = None

_tls = threading.local()


def enabled() -> bool:
    """Whether span collection is currently on (process-wide)."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Turn span collection on or off, process-wide.

    Like backend selection this is deliberately global: one query flows
    through module-level kernels, shared caches and pool workers, so a
    per-session flag could only ever trace fragments of it.
    """
    global _enabled
    _enabled = bool(flag)


def _next_id() -> str:
    return f"{os.getpid():x}.{next(_ids):x}"


class _NoopSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def set(self, key, value) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Span:
    """One live node of a trace tree (use via :func:`trace`)."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "start_wall",
        "_t0",
        "_cpu0",
    )

    def __init__(self, name: str, trace_id: str, parent_id: str | None) -> None:
        self.name = str(name)
        self.trace_id = trace_id
        self.span_id = _next_id()
        self.parent_id = parent_id
        self.attrs: dict = {}
        self.start_wall = wall_clock()
        self._t0 = clock()
        self._cpu0 = _thread_time()

    def set(self, key, value) -> "Span":
        """Attach one structured attribute (JSON-safe values please)."""
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = getattr(_tls, "stack", None)
        if stack and stack[-1] is self:
            stack.pop()
        record = {
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start": self.start_wall,
            "wall": clock() - self._t0,
            "cpu": _thread_time() - self._cpu0,
            "attrs": self.attrs,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        _record(record)
        return False


def trace(name: str):
    """Open a span named *name* (context manager).

    The disabled fast path is one global read and a constant return —
    no allocation, no locking — so instrumentation may stay on hot
    paths permanently. When enabled, the span parents to the innermost
    span open on this thread, or to the remote context adopted via
    :func:`begin_remote`, or starts a new trace.
    """
    if not _enabled:
        return _NOOP_SPAN
    stack = getattr(_tls, "stack", None)
    if stack:
        top = stack[-1]
        return Span(name, top.trace_id, top.span_id)
    if _remote_parent is not None:
        return Span(name, _remote_parent[0], _remote_parent[1])
    return Span(name, _next_id(), None)


def _record(record: dict) -> None:
    global _spans_dropped
    with _spans_lock:
        _spans.append(record)
        if len(_spans) > _MAX_SPANS:
            del _spans[: len(_spans) - _MAX_SPANS]
            _spans_dropped += 1


def collected_spans() -> list[dict]:
    """A snapshot of the collected span records (oldest first)."""
    with _spans_lock:
        return list(_spans)


def drain_spans() -> list[dict]:
    """Pop and return every collected span record."""
    with _spans_lock:
        out, _spans[:] = list(_spans), []
        return out


def absorb_spans(records) -> None:
    """Append span records shipped back from a worker process."""
    if not records:
        return
    with _spans_lock:
        _spans.extend(records)
        if len(_spans) > _MAX_SPANS:
            del _spans[: len(_spans) - _MAX_SPANS]


def reset() -> None:
    """Drop collected spans and any adopted remote context (tests)."""
    global _remote_parent, _spans_dropped
    with _spans_lock:
        _spans.clear()
        _spans_dropped = 0
    _remote_parent = None
    if getattr(_tls, "stack", None):
        _tls.stack = []


# -- cross-process propagation ----------------------------------------------


def propagation_context() -> tuple | None:
    """The picklable trace context a pool-task payload should carry.

    ``(trace_id, span_id)`` of the innermost open span — the node worker
    spans will parent to — or ``None`` when tracing is off (workers then
    skip collection entirely, whatever their inherited module state).
    """
    if not _enabled:
        return None
    stack = getattr(_tls, "stack", None)
    if stack:
        top = stack[-1]
        return (top.trace_id, top.span_id)
    return _remote_parent


def begin_remote(context: tuple | None) -> None:
    """Adopt a coordinator's trace context at the start of a pool task.

    Clears any spans inherited by fork (they belong to the parent) and
    enables or disables collection to match the coordinator: a ``None``
    context means the coordinator is not tracing, so this task must not
    collect either.
    """
    global _remote_parent
    with _spans_lock:
        _spans.clear()
    if getattr(_tls, "stack", None):
        _tls.stack = []
    if context is None:
        _remote_parent = None
        set_enabled(False)
        return
    _remote_parent = (str(context[0]), str(context[1]))
    set_enabled(True)


def end_remote() -> list[dict]:
    """Close out a pool task: return its spans for the result payload."""
    global _remote_parent
    _remote_parent = None
    spans = drain_spans()
    set_enabled(False)
    return spans


# -- metrics registry --------------------------------------------------------

#: Fixed exponential histogram bucket upper bounds (seconds-oriented:
#: 1 µs … ~17 min by powers of four). Fixed — not per-histogram — so
#: observations from any process or PR merge bucket-for-bucket.
HISTOGRAM_BUCKETS = tuple(1e-6 * 4**i for i in range(16))


class MetricsRegistry:
    """Counters, gauges and histograms behind one lock.

    The unified successor of the scattered ``EngineStats`` /
    ``StoreStats`` / ``stats.extra`` counters: every mutation happens
    under the registry lock (lockcheck-registered as the ``telemetry``
    domain), and :meth:`snapshot` returns a JSON-safe copy. Histogram
    buckets are the fixed exponential :data:`HISTOGRAM_BUCKETS`.
    """

    def __init__(self) -> None:
        self._lock = make_lock("telemetry")
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict] = {}

    def count(self, name: str, value: float = 1) -> None:
        """Add *value* (default 1) to the monotonic counter *name*."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge *name* to *value* (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the gauge *name* to *value* if higher (skew-style gauges)."""
        with self._lock:
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram *name*."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = {
                    "buckets": [0] * (len(HISTOGRAM_BUCKETS) + 1),
                    "count": 0,
                    "sum": 0.0,
                }
            hist["buckets"][bisect_right(HISTOGRAM_BUCKETS, value)] += 1
            hist["count"] += 1
            hist["sum"] += float(value)

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def histogram_value(self, name: str) -> dict | None:
        """``{"buckets": [...], "count": n, "sum": s}`` or ``None``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                return None
            return {
                "buckets": list(hist["buckets"]),
                "count": hist["count"],
                "sum": hist["sum"],
            }

    def snapshot(self) -> dict:
        """JSON-safe copy of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "buckets": list(hist["buckets"]),
                        "count": hist["count"],
                        "sum": hist["sum"],
                    }
                    for name, hist in sorted(self._histograms.items())
                },
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker's :meth:`snapshot` into this registry."""
        if not isinstance(snapshot, dict):
            return
        with self._lock:
            for name, value in (snapshot.get("counters") or {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in (snapshot.get("gauges") or {}).items():
                current = self._gauges.get(name)
                if current is None or value > current:
                    self._gauges[name] = float(value)
            for name, incoming in (snapshot.get("histograms") or {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = {
                        "buckets": [0] * (len(HISTOGRAM_BUCKETS) + 1),
                        "count": 0,
                        "sum": 0.0,
                    }
                for i, bucket in enumerate(incoming.get("buckets") or []):
                    if i < len(hist["buckets"]):
                        hist["buckets"][i] += bucket
                hist["count"] += incoming.get("count", 0)
                hist["sum"] += incoming.get("sum", 0.0)

    def publish_stats(self, prefix: str, stats) -> None:
        """Publish a stats dataclass's numeric fields as gauges.

        The bridge from the legacy counter objects (``EngineStats``,
        ``StoreStats``) into the registry: each numeric field lands as
        ``<prefix>.<field>``.
        """
        from dataclasses import fields as dataclass_fields

        for field in dataclass_fields(stats):
            value = getattr(stats, field.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.gauge(f"{prefix}.{field.name}", value)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


# -- exporters ---------------------------------------------------------------


def export_jsonl(spans, path) -> int:
    """Write span records as JSON lines; returns the span count."""
    spans = list(spans)
    with open(path, "w") as handle:
        for record in spans:
            handle.write(json.dumps(record, default=str) + "\n")
    return len(spans)


def export_chrome_trace(spans, path) -> int:
    """Write spans in Chrome ``trace_event`` format (Perfetto-loadable).

    Each span becomes one complete ("X") event: microsecond timestamps
    from the span's epoch start, its process/thread ids, and the span
    attributes under ``args``. Returns the event count.
    """
    events = []
    for record in spans:
        args = dict(record.get("attrs") or {})
        args["cpu_ms"] = round(float(record.get("cpu", 0.0)) * 1e3, 3)
        args["span"] = record.get("span")
        if record.get("parent"):
            args["parent"] = record["parent"]
        events.append(
            {
                "name": record.get("name", "?"),
                "cat": str(record.get("trace", "")),
                "ph": "X",
                "ts": float(record.get("start", 0.0)) * 1e6,
                "dur": float(record.get("wall", 0.0)) * 1e6,
                "pid": int(record.get("pid", 0)),
                "tid": int(record.get("tid", 0)),
                "args": args,
            }
        )
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as handle:
        json.dump(payload, handle, default=str)
    return len(events)


def export_trace(spans, path) -> int:
    """Write spans to *path*, format chosen by suffix.

    ``.jsonl`` → JSON-lines span log; anything else → Chrome
    ``trace_event`` JSON.
    """
    if str(path).endswith(".jsonl"):
        return export_jsonl(spans, path)
    return export_chrome_trace(spans, path)


def load_spans(path) -> list[dict]:
    """Read span records back from either exporter's output.

    Autodetect: a file that parses as one JSON document is the Chrome
    export (or a single JSONL record); anything else is read as JSON
    lines. Both shapes normalise to the span-record dicts the collector
    produced.
    """
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    if isinstance(payload, dict) and "traceEvents" not in payload:
        return [payload]  # a one-record JSONL log
    if isinstance(payload, (dict, list)):
        events = payload.get("traceEvents", []) if isinstance(payload, dict) else payload
        spans = []
        for event in events:
            if event.get("ph") not in (None, "X"):
                continue
            args = dict(event.get("args") or {})
            span_id = args.pop("span", None)
            parent = args.pop("parent", None)
            cpu_ms = args.pop("cpu_ms", 0.0)
            spans.append(
                {
                    "name": event.get("name", "?"),
                    "trace": event.get("cat", ""),
                    "span": span_id,
                    "parent": parent,
                    "pid": event.get("pid", 0),
                    "tid": event.get("tid", 0),
                    "start": float(event.get("ts", 0.0)) / 1e6,
                    "wall": float(event.get("dur", 0.0)) / 1e6,
                    "cpu": float(cpu_ms) / 1e3,
                    "attrs": args,
                }
            )
        return spans
    return []


# -- per-phase summary -------------------------------------------------------


def phase_summary(spans) -> dict:
    """Aggregate spans into per-phase wall/CPU totals and attribution.

    Returns ``{"phases": [...], "roots": n, "total_wall": s,
    "attributed_wall": s, "attribution": fraction}`` where each phase
    row is ``{"name", "count", "wall", "cpu", "share"}`` sorted by wall
    time descending. *Attribution* is the fraction of root-span wall
    time covered by child spans — the "≥95% of wall time lands in a
    named phase" acceptance number; the *share* column is each phase's
    **self** time (its wall minus its own children's) over root wall,
    so shares sum to ≤1 even in deep trees.
    """
    spans = list(spans)
    by_id = {record.get("span"): record for record in spans if record.get("span")}
    child_wall: dict[str, float] = {}
    for record in spans:
        parent = record.get("parent")
        if parent in by_id:
            child_wall[parent] = child_wall.get(parent, 0.0) + float(record.get("wall", 0.0))

    roots = [r for r in spans if not r.get("parent") or r.get("parent") not in by_id]
    total_wall = sum(float(r.get("wall", 0.0)) for r in roots)
    root_self = sum(
        max(float(r.get("wall", 0.0)) - child_wall.get(r.get("span"), 0.0), 0.0)
        for r in roots
    )
    attributed = max(total_wall - root_self, 0.0)

    phases: dict[str, dict] = {}
    root_ids = {r.get("span") for r in roots}
    for record in spans:
        if record.get("span") in root_ids:
            continue
        name = record.get("name", "?")
        row = phases.setdefault(name, {"name": name, "count": 0, "wall": 0.0, "cpu": 0.0, "self": 0.0})
        wall = float(record.get("wall", 0.0))
        row["count"] += 1
        row["wall"] += wall
        row["cpu"] += float(record.get("cpu", 0.0))
        row["self"] += max(wall - child_wall.get(record.get("span"), 0.0), 0.0)
    rows = sorted(phases.values(), key=lambda row: (-row["wall"], row["name"]))
    for row in rows:
        row["share"] = row["self"] / total_wall if total_wall > 0 else 0.0
    return {
        "phases": rows,
        "roots": len(roots),
        "total_wall": total_wall,
        "attributed_wall": attributed,
        "attribution": attributed / total_wall if total_wall > 0 else 0.0,
    }


def render_summary(spans) -> str:
    """The ``repro trace summary`` table: per-phase latency attribution."""
    summary = phase_summary(spans)
    lines = [
        f"{'phase':<32} {'count':>6} {'wall ms':>10} {'cpu ms':>10} {'self %':>7}"
    ]
    lines.append("-" * len(lines[0]))
    for row in summary["phases"]:
        lines.append(
            f"{row['name']:<32} {row['count']:>6} "
            f"{row['wall'] * 1e3:>10.2f} {row['cpu'] * 1e3:>10.2f} "
            f"{row['share']:>6.1%}"
        )
    lines.append("")
    pids = {record.get("pid") for record in spans}
    lines.append(
        f"{summary['roots']} root span(s), {len(list(spans))} spans across "
        f"{len(pids)} process(es); total {summary['total_wall'] * 1e3:.2f} ms, "
        f"{summary['attribution']:.1%} attributed to named phases"
    )
    return "\n".join(lines)
