"""Persistent, fingerprint-keyed cross-process cache (the store layer).

The paper charges preprocessing (Table 3) separately from query cost
(Figs. 12–17) because one preparation serves many queries — but in-memory
caches make that amortisation die with the process: every
``query_many(workers=N)`` worker rebuilt everything, and the parent's
result cache evaporated on exit. :class:`PersistentStore` is the on-disk
layer that makes cache reuse survive the process:

* **result entries** — ``(fingerprint, k, algorithm, options_key)`` →
  serialized :class:`~repro.core.result.TKDResult`, so a repeated sweep
  (same CSV, same k-ladder) in a *new* process answers from disk with
  bit-identical results under deterministic tie-breaking;
* **planner calibration** — the :mod:`repro.engine.planner` bias
  multipliers learned from observed runtimes, so ``algorithm="auto"``
  starts a new process already converged.

Durability and safety properties:

* **content addressing** — keys embed the dataset's content fingerprint
  (:func:`repro.engine.session.dataset_fingerprint`), so different data
  can never collide and equal-content datasets share entries, exactly
  like the in-memory caches;
* **atomic writes** — every file is written to a temp sibling and
  ``os.replace``-d into place, so a crashed writer can never leave a
  half-written store for the next reader;
* **advisory file locking** — read-modify-write cycles hold an exclusive
  ``fcntl`` lock on a sidecar lockfile (shared for reads), so concurrent
  processes (``query_many`` workers, parallel CLI runs) interleave
  safely on POSIX hosts; where ``fcntl`` is unavailable the store
  degrades to atomic-replace-only semantics;
* **versioned schema** — files carry ``(schema, package version)``;
  anything written by another version is ignored (and overwritten on the
  next write), so stale formats self-invalidate instead of
  half-deserializing;
* **cost-aware eviction** — each entry records the measured seconds it
  took to compute (*rebuild cost*) and its serialized size; when the
  byte budget overflows, the entries with the *lowest rebuild-seconds
  per byte* go first, keeping the answers that are most expensive to
  recompute per byte of disk they occupy.

Opt in per engine (``QueryEngine(store=...)``), per CLI run
(``repro query ... --store DIR``), or process-wide by exporting
``REPRO_CACHE_DIR``. ``repro cache stats|clear|path`` inspects a store
from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from ..errors import InvalidParameterError
from . import telemetry
from ._lockcheck import make_lock
from .telemetry import wall_clock as _wall_clock

try:  # POSIX advisory locking; absent e.g. on Windows.
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "PersistentStore",
    "SpilledTables",
    "StoreStats",
    "STORE_SCHEMA",
    "MAX_LINEAGE_PAYLOAD_CELLS",
]

#: On-disk schema revision; bump on any incompatible layout change.
#: 2: added fingerprint-lineage records and persisted prepared tables.
#: 3: lineage records may embed small delta payloads (patch-forward);
#:    older stores self-invalidate and are rewritten on the next write.
#: 4: planner calibration records gained per-kernel-backend speedups
#:    ("backends"), so a cold process auto-selects its backend without
#:    re-measuring.
#: 5: spilled shard tables — raw aligned binary files (``shard-*.bin``)
#:    plus a shards index, attachable as memory-mapped views for
#:    out-of-core partitioned execution.
#: 6: compact rank tables — prepared ``.npz`` entries and shard files
#:    carry one row per distinct value (``hi_values{d}``/``lo_values{d}``)
#:    instead of the full per-object tables and sort orders.
STORE_SCHEMA = 6

#: Deltas at most this many matrix cells embed their payload in the
#: lineage record, so a cold process can patch a stored ancestor's tables
#: forward instead of requiring the exact version on disk.
MAX_LINEAGE_PAYLOAD_CELLS = 4096

#: Default byte budget for serialized result entries (results are small —
#: k ids/scores each — so this admits hundreds of thousands of answers).
_DEFAULT_STORE_BUDGET_BYTES = 64 * 1024 * 1024

#: Default byte budget for persisted prepared tables (``O(d·u·n/8)`` each,
#: so this holds a handful of warm-startable datasets).
_DEFAULT_PREPARED_BUDGET_BYTES = 256 * 1024 * 1024

#: Default byte budget for spilled shard tables. Spill files are the
#: backing store of out-of-core partitioned queries — the whole point is
#: that they exceed RAM — so the disk budget is generous; ``compact()``
#: age-evicts stale ones.
_DEFAULT_SHARD_BUDGET_BYTES = 16 * 1024 * 1024 * 1024

#: Spill-file arrays start on this alignment (matches the shared-memory
#: segment layout in :mod:`repro.engine.backend`), so mapped views are
#: cache-line aligned.
_SPILL_ALIGN = 64

#: Half-life (seconds) of the age decay in the eviction cost model: an
#: entry this old is worth half its rebuild-seconds-per-byte, so stale
#: entries yield before equally-expensive fresh ones.
_AGE_HALF_LIFE_SECONDS = 7 * 24 * 3600.0

_RESULTS_FILE = "results.json"
_PLANNER_FILE = "planner.json"
_LINEAGE_FILE = "lineage.json"
_PREPARED_FILE = "prepared.json"
_SHARDS_FILE = "shards.json"
_LOCK_FILE = ".lock"

#: Ceiling on recorded lineage entries; compaction prunes the oldest.
_MAX_LINEAGE_ENTRIES = 4096


def _package_version() -> str:
    from .. import __version__  # deferred: the package imports the engine

    return __version__


@dataclass
class StoreStats:
    """Effectiveness counters of one :class:`PersistentStore` handle."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    #: Times a stale-format (schema/version mismatch) file was ignored.
    invalidations: int = 0
    #: Spilled shard files dropped by budget or age eviction.
    evicted_shard_files: int = 0

    def merge(self, other: "StoreStats") -> None:
        """Fold another handle's counters in (used by parallel query_many)."""
        self.hits += other.hits
        self.misses += other.misses
        self.writes += other.writes
        self.evictions += other.evictions
        self.invalidations += other.invalidations
        self.evicted_shard_files += other.evicted_shard_files

    def summary(self) -> str:
        text = (
            f"store: {self.hits}/{self.hits + self.misses} warm hits, "
            f"{self.writes} writes, {self.evictions} evictions"
        )
        if self.evicted_shard_files:
            text += f", {self.evicted_shard_files} spilled shard files dropped"
        return text


def _json_safe(value) -> bool:
    """Whether *value* survives a JSON round trip unchanged (scalars and
    lists/dicts of scalars — what ``stats.extra`` holds in practice)."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_json_safe(item) for item in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _json_safe(v) for k, v in value.items())
    return False


def _encode_stats(stats) -> dict:
    """Serialize the JSON-safe fields of a QueryStats.

    ``extra``'s JSON-safe entries ride along under an ``"extra"`` key so
    per-query annotations (the partition protocol counters, span-adjacent
    metadata) survive the store round trip.
    """
    payload = {}
    for field in dataclass_fields(stats):
        if field.name == "extra":
            continue
        value = getattr(stats, field.name)
        if isinstance(value, (int, float, str)):
            payload[field.name] = value
    extra = {k: v for k, v in stats.extra.items() if _json_safe(v)}
    if extra:
        payload["extra"] = extra
    return payload


def _decode_result(payload: dict):
    """Rebuild a TKDResult from its stored payload.

    Forward-compatible on the stats record: keys persisted by a newer
    (or older) package whose ``QueryStats`` had fields this version does
    not know are routed into ``stats.extra`` instead of being silently
    dropped — an old store meeting new stats fields keeps the data.
    """
    from ..core.result import TKDResult  # deferred: core imports the engine
    from ..core.stats import QueryStats

    stats_payload = payload.get("stats") or {}
    known = {field.name for field in dataclass_fields(QueryStats)}
    stats = QueryStats(
        **{k: v for k, v in stats_payload.items() if k in known and k != "extra"}
    )
    extra = stats_payload.get("extra")
    if isinstance(extra, dict):
        stats.extra.update(extra)
    for key, value in stats_payload.items():
        if key not in known:
            stats.extra.setdefault(key, value)
    return TKDResult(
        indices=[int(i) for i in payload["indices"]],
        scores=list(payload["scores"]),
        ids=[str(i) for i in payload["ids"]],
        k=int(payload["k"]),
        algorithm=str(payload["algorithm"]),
        stats=stats,
    )


def _encode_result(result) -> dict:
    return {
        "indices": [int(i) for i in result.indices],
        "scores": list(result.scores),
        "ids": [str(i) for i in result.ids],
        "k": int(result.k),
        "algorithm": str(result.algorithm),
        "stats": _encode_stats(result.stats),
    }


def _effective_cost_per_byte(body: dict, now: float, *, field: str = "rebuild_seconds") -> float:
    """Seconds-per-byte (from *field*) decayed by entry age — the one
    eviction key every budget in this store shares."""
    cost = float(body.get(field) or 0.0) / max(int(body.get("bytes") or 1), 1)
    age = max(now - float(body.get("created") or now), 0.0)
    return cost * 0.5 ** (age / _AGE_HALF_LIFE_SECONDS)


def result_digest(fingerprint: str, k: int, algorithm: str, options_key: tuple) -> str:
    """Stable file-level key for one result entry.

    ``repr`` of the frozen options tuple is deterministic (strings,
    numbers and nested tuples only — see ``session._freeze``), so the
    digest is stable across processes and ``PYTHONHASHSEED`` values.
    """
    raw = repr((str(fingerprint), int(k), str(algorithm).lower(), options_key))
    return hashlib.sha256(raw.encode()).hexdigest()


def _write_spill(handle, state: dict) -> tuple[list, int]:
    """Write prepared-state arrays to *handle* as aligned raw binary.

    Returns ``(layout, total_bytes)`` where layout rows are
    ``[key, dtype_str, shape, offset]`` — everything a reader needs to
    rebuild zero-copy views over one mapping (mirrors the
    ``SharedTables`` segment layout in :mod:`repro.engine.backend`).
    """
    import numpy as np

    layout: list = []
    offset = 0
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        aligned = -(-offset // _SPILL_ALIGN) * _SPILL_ALIGN
        if aligned > offset:
            handle.write(b"\x00" * (aligned - offset))
        handle.write(arr.tobytes())
        layout.append([str(key), arr.dtype.str, list(arr.shape), aligned])
        offset = aligned + arr.nbytes
    return layout, offset


class SpilledTables:
    """One shard's prepared tables as read-only views over a mapped file.

    The out-of-core analogue of ``backend.SharedTables``: instead of a
    ``/dev/shm`` segment the arrays live in a ``shard-*.bin`` store file,
    and *attaching* is an ``mmap`` — no bytes are read until the kernels
    touch them, and dropping the handle releases the (clean, file-backed)
    pages back to the OS. That makes eviction under a resident-set budget
    "drop the mapping", not "recompute the tables".
    """

    __slots__ = ("path", "layout", "nbytes", "_mapped")

    def __init__(self, path, layout, *, nbytes: int = 0) -> None:
        self.path = Path(path)
        self.layout = [
            (str(key), str(dtype), tuple(int(x) for x in shape), int(offset))
            for key, dtype, shape, offset in layout
        ]
        self.nbytes = int(nbytes)
        self._mapped = None

    def arrays(self) -> dict:
        """Zero-copy (read-only) views over the mapped spill file."""
        import numpy as np

        if self._mapped is None:
            self._mapped = np.memmap(self.path, dtype=np.uint8, mode="r")
        out = {}
        for key, dtype, shape, offset in self.layout:
            out[key] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=self._mapped, offset=offset)
        return out

    def prepared(self):
        """A query-serving ``PreparedDataset`` over the mapped arrays.

        The instance is read-only (its storage pages are a ``mode="r"``
        mapping): it answers every count/mask kernel, but delta patching
        must go through ``patched()`` copies, never in place.
        """
        from .kernels import PreparedDataset  # deferred: session imports this module

        return PreparedDataset.from_state(self.arrays())


class PersistentStore:
    """An on-disk, cross-process cache keyed by content fingerprints.

    Parameters
    ----------
    directory: where the store lives (created on first use). One store
        directory may be shared by any number of processes.
    max_bytes: budget for the serialized result entries; overflow evicts
        the entries with the lowest rebuild-seconds-per-byte first.

    Handles are thread-safe (one internal lock) and cheap: the results
    file is re-read only when its mtime changes, so repeated ``get``
    calls against an unchanged store cost one ``stat``.
    """

    def __init__(
        self,
        directory,
        *,
        max_bytes: int = _DEFAULT_STORE_BUDGET_BYTES,
        max_prepared_bytes: int = _DEFAULT_PREPARED_BUDGET_BYTES,
        max_shard_bytes: int = _DEFAULT_SHARD_BUDGET_BYTES,
    ) -> None:
        if max_bytes <= 0:
            raise InvalidParameterError(f"store budget must be >= 1 byte, got {max_bytes}")
        if max_prepared_bytes <= 0:
            raise InvalidParameterError(
                f"prepared budget must be >= 1 byte, got {max_prepared_bytes}"
            )
        if max_shard_bytes <= 0:
            raise InvalidParameterError(
                f"shard spill budget must be >= 1 byte, got {max_shard_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.max_prepared_bytes = int(max_prepared_bytes)
        self.max_shard_bytes = int(max_shard_bytes)
        self.stats = StoreStats()
        self._lock = make_lock("store")
        self._version = _package_version()
        #: (stat signature, entries dict) of the last results.json parse.
        self._cached: tuple[tuple, dict] | None = None
        #: Lineage records buffered in memory; flushed in one locked
        #: rewrite (reads, save_planner, compact) so the sub-millisecond
        #: delta hot path never pays a per-record file rewrite.
        self._pending_lineage: list[dict] = []

    # -- plumbing -----------------------------------------------------------

    @property
    def path(self) -> Path:
        """The store directory (what ``repro cache path`` prints)."""
        return self.directory

    @contextmanager
    def _locked(self, *, exclusive: bool):
        """Advisory inter-process lock around one read or read-modify-write."""
        with self._lock:
            handle = open(self.directory / _LOCK_FILE, "a+b")
            try:
                if fcntl is not None:
                    fcntl.flock(handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
                yield
            finally:
                try:
                    if fcntl is not None:
                        fcntl.flock(handle, fcntl.LOCK_UN)
                finally:
                    handle.close()

    def _atomic_write(self, name: str, payload: dict) -> None:
        """Serialize *payload* to ``name`` via temp-sibling + ``os.replace``."""
        target = self.directory / name
        tmp = target.with_name(f"{name}.tmp-{os.getpid()}-{threading.get_ident()}")
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, target)

    def _read_file(self, name: str) -> dict | None:
        """Parse one store file; stale versions and corrupt JSON read as absent."""
        target = self.directory / name
        try:
            payload = json.loads(target.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != STORE_SCHEMA or payload.get("version") != self._version:
            self.stats.invalidations += 1
            return None
        return payload

    def _load_entries(self) -> dict:
        """The current result entries, cached against the file's stat."""
        target = self.directory / _RESULTS_FILE
        try:
            stat = target.stat()
            signature = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            signature = None
        if self._cached is not None and self._cached[0] == signature:
            return self._cached[1]
        payload = self._read_file(_RESULTS_FILE)
        entries = payload.get("entries", {}) if payload else {}
        if not isinstance(entries, dict):
            entries = {}
        self._cached = (signature, entries)
        return entries

    def _write_entries(self, entries: dict) -> None:
        self._atomic_write(
            _RESULTS_FILE,
            {"schema": STORE_SCHEMA, "version": self._version, "entries": entries},
        )
        self._cached = None  # next read re-stats the fresh file

    # -- result entries -----------------------------------------------------

    def get_result(self, fingerprint: str, k: int, algorithm: str, options_key: tuple = ()):
        """Fetch one stored result, or ``None`` (counted as hit/miss)."""
        entry = self.get_entry(fingerprint, k, algorithm, options_key)
        return None if entry is None else entry[0]

    def get_entry(self, fingerprint: str, k: int, algorithm: str, options_key: tuple = ()):
        """Like :meth:`get_result` but returns ``(result, meta)``.

        ``meta`` is the free-form dict the writer attached (the experiment
        harness stores measured timings there); ``{}`` when absent.
        """
        digest = result_digest(fingerprint, k, algorithm, options_key)
        with self._locked(exclusive=False):
            entry = self._load_entries().get(digest)
        if entry is not None:
            try:
                result = _decode_result(entry["result"])
            except (KeyError, TypeError, ValueError):
                entry = None
        with self._lock:
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        if telemetry.enabled():
            telemetry.metrics().count(
                "store.read.miss" if entry is None else "store.read.hit"
            )
        if entry is None:
            return None
        return result, entry.get("meta") or {}

    def put_result(
        self,
        fingerprint: str,
        k: int,
        algorithm: str,
        options_key: tuple,
        result,
        *,
        rebuild_seconds: float = 0.0,
        meta: dict | None = None,
    ) -> None:
        """Persist one result under its fingerprint key (read-modify-write).

        ``rebuild_seconds`` is the measured cost of recomputing the entry
        (the engine passes the query's wall-clock time); eviction keeps
        high rebuild-cost-per-byte entries longest.
        """
        self.put_results(
            [
                {
                    "fingerprint": fingerprint,
                    "k": k,
                    "algorithm": algorithm,
                    "options_key": options_key,
                    "result": result,
                    "rebuild_seconds": rebuild_seconds,
                    "meta": meta,
                }
            ]
        )

    def put_results(self, items) -> None:
        """Persist a batch of results in one lock + atomic rewrite."""
        items = list(items)
        if not items:
            return
        with self._locked(exclusive=True):
            self._cached = None  # another process may have written meanwhile
            entries = dict(self._load_entries())
            for item in items:
                encoded = _encode_result(item["result"])
                meta = item.get("meta") or None
                body = {
                    "key": [
                        str(item["fingerprint"]),
                        int(item["k"]),
                        str(item["algorithm"]).lower(),
                        repr(item.get("options_key", ())),
                    ],
                    "result": encoded,
                    "meta": meta,
                    "rebuild_seconds": float(item.get("rebuild_seconds") or 0.0),
                    "created": _wall_clock(),
                }
                body["bytes"] = len(json.dumps(body, separators=(",", ":")))
                digest = result_digest(
                    item["fingerprint"], item["k"], item["algorithm"], item.get("options_key", ())
                )
                entries[digest] = body
                self.stats.writes += 1
            if telemetry.enabled():
                telemetry.metrics().count("store.write", len(items))
            self._evict(entries)
            self._write_entries(entries)

    def _evict(self, entries: dict, *, now: float | None = None) -> None:
        """Shed lowest effective-cost-per-byte entries until the budget fits.

        The cost model is rebuild-seconds-per-byte *decayed by age*
        (half-life :data:`_AGE_HALF_LIFE_SECONDS`): an entry nobody has
        refreshed in a week is worth half a fresh one, so long-lived
        server stores shed stale sweeps before yesterday's. Recency of
        *writes* still plays no role beyond the timestamp — a just-written
        entry is evicted immediately when it is the cheapest effective
        loss.
        """
        if now is None:
            now = _wall_clock()
        while len(entries) > 1 and self._total_bytes(entries) > self.max_bytes:
            victim = min(
                entries, key=lambda digest: _effective_cost_per_byte(entries[digest], now)
            )
            del entries[victim]
            self.stats.evictions += 1
            if telemetry.enabled():
                telemetry.metrics().count("store.evict")

    @staticmethod
    def _total_bytes(entries: dict) -> int:
        return sum(int(body.get("bytes") or 0) for body in entries.values())

    # -- fingerprint lineage ------------------------------------------------

    def record_lineage(
        self,
        child: str,
        parent: str,
        delta_digest: str,
        ops: dict | None = None,
        *,
        payload: dict | None = None,
    ) -> None:
        """Record that *child* was derived from *parent* by one delta.

        Lineage is what lets delta chains resolve across processes: a
        fresh process replaying the same deltas from the same root
        recomputes the same lineage fingerprints, and these records tie
        every stored result/prepared entry back to the chain that
        produced it (``repro cache stats`` shows the depth; tests and
        tooling can walk :meth:`resolve_lineage`).

        *payload* is an optional JSON-safe delta encoding
        (:meth:`repro.core.delta.DatasetDelta.payload`); when present —
        the session gates it by :data:`MAX_LINEAGE_PAYLOAD_CELLS` — a cold
        process holding only a stored *ancestor's* prepared tables can
        patch them forward to *child* instead of requiring this exact
        version on disk (see ``QueryEngine.prepare_dataset``).

        Records are buffered in memory and flushed in one locked rewrite
        when lineage is read, the planner is saved (``QueryEngine.flush``,
        every ``query_many`` batch), the buffer fills, or :meth:`compact`
        runs — a delta is sub-millisecond and must not pay a per-record
        file rewrite. A crash may lose buffered records; lineage is
        derivable metadata, never the source of truth.
        """
        with self._lock:
            self._pending_lineage.append(
                {
                    "child": str(child),
                    "parent": str(parent),
                    "delta": str(delta_digest),
                    "ops": dict(ops or {}),
                    "payload": dict(payload) if payload else None,
                    # Wall-clock here is eviction/bookkeeping metadata only;
                    # it is never hashed into a fingerprint or lineage key.
                    "created": _wall_clock(),
                }
            )
            overdue = len(self._pending_lineage) >= 256
        if overdue:
            self.flush_lineage()

    def flush_lineage(self) -> None:
        """Merge buffered lineage records into the store file (one rewrite)."""
        with self._lock:
            pending, self._pending_lineage = self._pending_lineage, []
        if not pending:
            return
        with self._locked(exclusive=True):
            payload = self._read_file(_LINEAGE_FILE) or {}
            entries = payload.get("entries", {}) if isinstance(payload, dict) else {}
            if not isinstance(entries, dict):
                entries = {}
            for record in pending:
                parent_entry = entries.get(record["parent"])
                depth = (
                    int(parent_entry.get("depth", 0)) + 1
                    if isinstance(parent_entry, dict)
                    else 1
                )
                body = {
                    "parent": record["parent"],
                    "delta": record["delta"],
                    "ops": record["ops"],
                    "depth": depth,
                    "created": record["created"],
                }
                if record.get("payload"):
                    body["payload"] = record["payload"]
                entries[record["child"]] = body
            if len(entries) > _MAX_LINEAGE_ENTRIES:
                entries = dict(
                    sorted(entries.items(), key=lambda kv: kv[1].get("created", 0.0))[
                        len(entries) - _MAX_LINEAGE_ENTRIES :
                    ]
                )
            self._atomic_write(
                _LINEAGE_FILE,
                {"schema": STORE_SCHEMA, "version": self._version, "entries": entries},
            )

    def lineage_of(self, fingerprint: str) -> dict | None:
        """The lineage record of one version fingerprint, or ``None``."""
        self.flush_lineage()
        with self._locked(exclusive=False):
            payload = self._read_file(_LINEAGE_FILE)
        if not payload:
            return None
        entry = payload.get("entries", {}).get(fingerprint)
        return entry if isinstance(entry, dict) else None

    def resolve_lineage(self, fingerprint: str) -> list[dict]:
        """The recorded delta chain from *fingerprint* back toward its root.

        Child-first list of lineage records (cycle-guarded); empty when
        the version is unknown to this store.
        """
        self.flush_lineage()
        with self._locked(exclusive=False):
            payload = self._read_file(_LINEAGE_FILE)
        entries = payload.get("entries", {}) if payload else {}
        chain: list[dict] = []
        seen: set[str] = set()
        current = fingerprint
        while current in entries and current not in seen:
            seen.add(current)
            entry = dict(entries[current])
            entry["fingerprint"] = current
            chain.append(entry)
            current = entry.get("parent", "")
        return chain

    # -- prepared structures ------------------------------------------------

    def _prepared_path(self, fingerprint: str) -> Path:
        return self.directory / f"prepared-{fingerprint[:40]}.npz"

    def _load_prepared_index(self) -> dict:
        payload = self._read_file(_PREPARED_FILE)
        entries = payload.get("entries", {}) if payload else {}
        return entries if isinstance(entries, dict) else {}

    def _write_prepared_index(self, entries: dict) -> None:
        self._atomic_write(
            _PREPARED_FILE,
            {"schema": STORE_SCHEMA, "version": self._version, "entries": entries},
        )

    def put_prepared(self, fingerprint: str, prepared) -> None:
        """Persist a :class:`~repro.engine.kernels.PreparedDataset`.

        Sentinel arrays, tombstone state, and — when built — the packed
        bitset tables land in one ``.npz`` sibling file, so a fresh
        process skips the ``O(d·u·n/64)`` table build for this version
        entirely (the ROADMAP's warm-start item). Overflowing
        ``max_prepared_bytes`` evicts the lowest effective
        rebuild-cost-per-byte entries, age-decayed like every other
        eviction in this store.
        """
        import numpy as np

        state = prepared.state_arrays()
        target = self._prepared_path(fingerprint)
        tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}-{threading.get_ident()}")
        with self._locked(exclusive=True):
            with open(tmp, "wb") as handle:
                np.savez(handle, **state)
            os.replace(tmp, target)
            entries = dict(self._load_prepared_index())
            entries[str(fingerprint)] = {
                "file": target.name,
                "bytes": int(target.stat().st_size),
                "build_seconds": float(prepared.build_seconds),
                "n": int(prepared.n),
                "d": int(prepared.d),
                "tables": bool(prepared.tables_ready),
                "created": _wall_clock(),
            }
            self._evict_prepared(entries)
            self._write_prepared_index(entries)

    def get_prepared(self, fingerprint: str):
        """Load one persisted prepared structure, or ``None``.

        Returns a fully functional
        :class:`~repro.engine.kernels.PreparedDataset` — tables included
        when the writer had built them — or ``None`` on any miss,
        version mismatch, or unreadable file.
        """
        import numpy as np

        from .kernels import PreparedDataset  # deferred: session imports this module

        with self._locked(exclusive=False):
            entry = self._load_prepared_index().get(fingerprint)
            if not isinstance(entry, dict):
                return None
            path = self.directory / str(entry.get("file", ""))
            try:
                with np.load(path) as archive:
                    state = {name: archive[name] for name in archive.files}
            except (OSError, ValueError, KeyError):
                return None
        try:
            return PreparedDataset.from_state(state)
        except (KeyError, ValueError, IndexError):
            # An array set of another table format behind a current index
            # row: stale, never misread.
            self.stats.invalidations += 1
            return None

    def prepared_entries(self) -> list[dict]:
        """Metadata of every persisted prepared structure."""
        with self._locked(exclusive=False):
            entries = self._load_prepared_index()
        return [
            {"fingerprint": fingerprint, **{k: v for k, v in body.items()}}
            for fingerprint, body in entries.items()
        ]

    def _evict_prepared(self, entries: dict, *, now: float | None = None) -> None:
        """Budget the npz files by age-decayed build-cost-per-byte."""
        if now is None:
            now = _wall_clock()
        while len(entries) > 1 and self._prepared_bytes(entries) > self.max_prepared_bytes:
            victim = min(
                entries,
                key=lambda fp: _effective_cost_per_byte(
                    entries[fp], now, field="build_seconds"
                ),
            )
            body = entries.pop(victim)
            try:
                (self.directory / str(body.get("file", ""))).unlink()
            except OSError:
                pass
            self.stats.evictions += 1

    @staticmethod
    def _prepared_bytes(entries: dict) -> int:
        return sum(int(body.get("bytes") or 0) for body in entries.values())

    # -- spilled shard tables -----------------------------------------------

    def _shard_path(self, fingerprint: str) -> Path:
        return self.directory / f"shard-{fingerprint[:40]}.bin"

    def _load_shard_index(self) -> dict:
        payload = self._read_file(_SHARDS_FILE)
        entries = payload.get("entries", {}) if payload else {}
        return entries if isinstance(entries, dict) else {}

    def _write_shard_index(self, entries: dict) -> None:
        self._atomic_write(
            _SHARDS_FILE,
            {"schema": STORE_SCHEMA, "version": self._version, "entries": entries},
        )

    def put_shard_tables(self, fingerprint: str, prepared) -> "SpilledTables":
        """Spill one shard's prepared tables to a memory-mappable file.

        Unlike :meth:`put_prepared` (compressed ``.npz``, loaded whole),
        the shard file is raw aligned binary so readers attach it with
        ``mmap`` and touch only the pages a query actually probes — the
        storage layer of out-of-core partitioned execution. Returns the
        attachable :class:`SpilledTables` handle for the fresh file.
        """
        state = prepared.state_arrays()
        target = self._shard_path(fingerprint)
        tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}-{threading.get_ident()}")
        with self._locked(exclusive=True):
            with open(tmp, "wb") as handle:
                layout, total = _write_spill(handle, state)
            os.replace(tmp, target)
            entries = dict(self._load_shard_index())
            entries[str(fingerprint)] = {
                "file": target.name,
                "layout": layout,
                "bytes": int(total),
                "build_seconds": float(prepared.build_seconds),
                "n": int(prepared.n),
                "d": int(prepared.d),
                "created": _wall_clock(),
            }
            self.stats.writes += 1
            self._evict_shards(entries, keep=str(fingerprint))
            self._write_shard_index(entries)
        return SpilledTables(target, layout, nbytes=int(total))

    def get_shard_tables(self, fingerprint: str) -> "SpilledTables | None":
        """The attachable spill handle for one shard fingerprint, or ``None``.

        Cheap: returns the handle without mapping or reading the file —
        pages fault in lazily when the attached ``PreparedDataset`` is
        probed.
        """
        with self._locked(exclusive=False):
            entry = self._load_shard_index().get(str(fingerprint))
        if not isinstance(entry, dict):
            return None
        path = self.directory / str(entry.get("file", ""))
        layout = entry.get("layout")
        if not isinstance(layout, list) or not path.exists():
            return None
        try:
            return SpilledTables(path, layout, nbytes=int(entry.get("bytes") or 0))
        except (TypeError, ValueError):
            return None

    def shard_entries(self) -> list[dict]:
        """Metadata of every spilled shard file (sans layout)."""
        with self._locked(exclusive=False):
            entries = self._load_shard_index()
        return [
            {"fingerprint": fp, **{k: v for k, v in body.items() if k != "layout"}}
            for fp, body in entries.items()
        ]

    def _evict_shards(self, entries: dict, *, now: float | None = None, keep=None) -> None:
        """Budget the spill files by age-decayed build-cost-per-byte.

        *keep* shields the entry a caller is about to attach — evicting a
        file whose mapping is being handed out would fault the reader.
        """
        if now is None:
            now = _wall_clock()
        while len(entries) > 1 and self._shard_bytes(entries) > self.max_shard_bytes:
            candidates = [fp for fp in entries if fp != keep]
            if not candidates:
                break
            victim = min(
                candidates,
                key=lambda fp: _effective_cost_per_byte(entries[fp], now, field="build_seconds"),
            )
            body = entries.pop(victim)
            try:
                (self.directory / str(body.get("file", ""))).unlink()
            except OSError:
                pass
            self.stats.evictions += 1
            self.stats.evicted_shard_files += 1

    @staticmethod
    def _shard_bytes(entries: dict) -> int:
        return sum(int(body.get("bytes") or 0) for body in entries.values())

    # -- compaction ---------------------------------------------------------

    def compact(self, *, now: float | None = None) -> dict:
        """One full maintenance pass (what ``repro cache compact`` runs).

        Replaces the greedy per-write-only eviction for long-lived
        deployments: re-budgets result entries, prepared tables, and
        spilled shard files under the age-decayed cost model, drops
        index entries whose files vanished, removes orphaned
        ``prepared-*.npz`` / ``shard-*.bin`` files nothing references,
        and prunes lineage records beyond the retention cap. Returns a
        summary dict of what was reclaimed.
        """
        if now is None:
            now = _wall_clock()
        self.flush_lineage()
        summary = {
            "result_evictions": 0,
            "prepared_evictions": 0,
            "shard_evictions": 0,
            "orphans_removed": 0,
            "shard_orphans_removed": 0,
            "lineage_pruned": 0,
        }
        with self._locked(exclusive=True):
            # Result entries: re-run eviction under the aged cost model.
            self._cached = None
            entries = dict(self._load_entries())
            before = self.stats.evictions
            self._evict(entries, now=now)
            summary["result_evictions"] = self.stats.evictions - before
            self._write_entries(entries)

            # Prepared tables: drop dangling index rows, re-budget, then
            # sweep npz files nothing references.
            prepared = dict(self._load_prepared_index())
            dangling = [
                fp
                for fp, body in prepared.items()
                if not (self.directory / str(body.get("file", ""))).exists()
            ]
            for fp in dangling:
                del prepared[fp]
            before = self.stats.evictions
            self._evict_prepared(prepared, now=now)
            summary["prepared_evictions"] = self.stats.evictions - before
            referenced = {str(body.get("file")) for body in prepared.values()}
            for path in self.directory.glob("prepared-*.npz"):
                if path.name not in referenced:
                    try:
                        path.unlink()
                        summary["orphans_removed"] += 1
                    except OSError:
                        pass
            self._write_prepared_index(prepared)

            # Spilled shards: same treatment — the files of dropped
            # partitioned views would otherwise accumulate forever.
            shards = dict(self._load_shard_index())
            dangling = [
                fp
                for fp, body in shards.items()
                if not (self.directory / str(body.get("file", ""))).exists()
            ]
            for fp in dangling:
                del shards[fp]
            before = self.stats.evicted_shard_files
            self._evict_shards(shards, now=now)
            summary["shard_evictions"] = self.stats.evicted_shard_files - before
            referenced = {str(body.get("file")) for body in shards.values()}
            for path in self.directory.glob("shard-*.bin"):
                if path.name not in referenced:
                    try:
                        path.unlink()
                        summary["shard_orphans_removed"] += 1
                        self.stats.evicted_shard_files += 1
                    except OSError:
                        pass
            self._write_shard_index(shards)

            # Lineage: keep the freshest records up to the retention cap.
            payload = self._read_file(_LINEAGE_FILE)
            lineage = payload.get("entries", {}) if payload else {}
            if isinstance(lineage, dict) and len(lineage) > _MAX_LINEAGE_ENTRIES:
                keep = dict(
                    sorted(lineage.items(), key=lambda kv: kv[1].get("created", 0.0))[
                        len(lineage) - _MAX_LINEAGE_ENTRIES :
                    ]
                )
                summary["lineage_pruned"] = len(lineage) - len(keep)
                self._atomic_write(
                    _LINEAGE_FILE,
                    {"schema": STORE_SCHEMA, "version": self._version, "entries": keep},
                )
        summary["result_bytes"] = self._total_bytes(entries)
        summary["prepared_bytes"] = self._prepared_bytes(prepared)
        summary["shard_bytes"] = self._shard_bytes(shards)
        summary["evicted_shard_files"] = self.stats.evicted_shard_files
        return summary

    # -- planner calibration ------------------------------------------------

    def load_planner(self) -> dict | None:
        """The persisted planner calibration state, or ``None``."""
        with self._locked(exclusive=False):
            payload = self._read_file(_PLANNER_FILE)
        if payload is None:
            return None
        state = payload.get("calibration")
        return state if isinstance(state, dict) else None

    def save_planner(self, state: dict) -> None:
        """Persist the planner calibration state (atomic replace).

        Also the natural flush point for buffered lineage records —
        ``QueryEngine.flush`` calls this at every batch boundary.
        """
        self.flush_lineage()
        with self._locked(exclusive=True):
            self._atomic_write(
                _PLANNER_FILE,
                {"schema": STORE_SCHEMA, "version": self._version, "calibration": dict(state)},
            )

    # -- maintenance --------------------------------------------------------

    def __len__(self) -> int:
        with self._locked(exclusive=False):
            return len(self._load_entries())

    @property
    def total_bytes(self) -> int:
        """Serialized footprint of the stored result entries."""
        with self._locked(exclusive=False):
            return self._total_bytes(self._load_entries())

    def entries(self) -> list[dict]:
        """Metadata of every stored entry (key, bytes, rebuild cost, age)."""
        with self._locked(exclusive=False):
            loaded = self._load_entries()
        return [
            {
                "key": body.get("key"),
                "bytes": int(body.get("bytes") or 0),
                "rebuild_seconds": float(body.get("rebuild_seconds") or 0.0),
                "created": body.get("created"),
            }
            for body in loaded.values()
        ]

    def clear(self) -> None:
        """Drop every persisted entry (results, planner, lineage, prepared)."""
        with self._lock:
            self._pending_lineage = []
        with self._locked(exclusive=True):
            for name in (_RESULTS_FILE, _PLANNER_FILE, _LINEAGE_FILE, _PREPARED_FILE, _SHARDS_FILE):
                try:
                    (self.directory / name).unlink()
                except FileNotFoundError:
                    pass
            for pattern in ("prepared-*.npz", "shard-*.bin"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass
            self._cached = None
        self.stats = StoreStats()

    def summary(self) -> str:
        """Human-readable digest (what ``repro cache stats`` prints)."""
        self.flush_lineage()
        with self._locked(exclusive=False):
            entries = self._load_entries()
            planner = self._read_file(_PLANNER_FILE) is not None
            prepared = self._load_prepared_index()
            shards = self._load_shard_index()
            lineage_payload = self._read_file(_LINEAGE_FILE)
        lineage = lineage_payload.get("entries", {}) if lineage_payload else {}
        text = (
            f"store at {self.directory}: {len(entries)} result entries, "
            f"{self._total_bytes(entries)}/{self.max_bytes} bytes, "
            f"planner calibration {'present' if planner else 'absent'} "
            f"(schema {STORE_SCHEMA}, version {self._version})"
        )
        if prepared:
            text += (
                f"\nprepared tables: {len(prepared)} entries, "
                f"{self._prepared_bytes(prepared)}/{self.max_prepared_bytes} bytes"
            )
        if shards or self.stats.evicted_shard_files:
            text += (
                f"\nspilled shards: {len(shards)} files, "
                f"{self._shard_bytes(shards)}/{self.max_shard_bytes} bytes, "
                f"{self.stats.evicted_shard_files} evicted_shard_files"
            )
        if lineage:
            depth = max(
                (int(body.get("depth", 0)) for body in lineage.values() if isinstance(body, dict)),
                default=0,
            )
            text += f"\nlineage: {len(lineage)} version records (max depth {depth})"
        return text

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PersistentStore dir={str(self.directory)!r} budget={self.max_bytes}>"
