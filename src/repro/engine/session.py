"""A reusable query session: prepared-structure and result caching.

The paper charges preprocessing (Table 3) separately from query time
(Figs. 12–17) precisely because one preparation serves many queries — but
the seed API rebuilt indexes and MaxScore queues on every
:func:`~repro.core.query.top_k_dominating` call. :class:`QueryEngine` is
the session object that makes the amortisation real:

* **dataset fingerprinting** — a content hash of the value matrix,
  observed masks and directions, so caching works across distinct
  :class:`~repro.core.dataset.IncompleteDataset` instances holding the
  same data (and never serves stale answers for different data);
* **prepared-structure cache** — one prepared
  :class:`~repro.core.base.TKDAlgorithm` per (dataset, algorithm,
  options), LRU-bounded; the planner is told which structures exist so
  ``algorithm="auto"`` prefers an index that is already paid for;
* **result cache** — an LRU over (dataset, k, algorithm, options)
  answering repeated queries in O(1) (deterministic tie-breaking only;
  ``tie_break="random"`` always executes);
* **prepared-dataset cache** — one :class:`~repro.engine.kernels.PreparedDataset`
  (lo/hi sentinel arrays, packed bitset tables, observed bitsets) per
  dataset fingerprint in a byte-budgeted LRU shared by every engine *and*
  by module-level kernel calls (``score_all``, ``dominance_matrix``, the
  MFD operator) through :func:`shared_prepared` — repeated full scans
  build their ``O(d·u·n/8)`` tables once;
* **batch API** — :meth:`QueryEngine.query_many` runs a parametrised
  sweep (the Fig. 12–17 loops, a leaderboard's k-ladder) against shared
  preparations, optionally sharded across a process pool
  (``workers=N``) with results merged back into the result LRU;
* **persistent store** — an optional
  :class:`~repro.engine.store.PersistentStore` (``store=`` or the
  ``REPRO_CACHE_DIR`` environment variable) behind the result LRU, so
  warm answers, learned planner biases, prepared tables, and version
  lineage survive the process and are shared across concurrent
  processes (see :mod:`repro.engine.store`);
* **versioned updates** — :meth:`QueryEngine.apply_delta` (and the
  ``insert``/``delete``/``update`` wrappers) advance a dataset by a
  :class:`~repro.core.delta.DatasetDelta`: the cached
  :class:`~repro.engine.kernels.PreparedDataset` is patched (or
  compacted, per :func:`~repro.engine.planner.plan_delta`), the full
  score vector is maintained by adjusting affected objects only, and
  :meth:`query` answers maintained versions straight from it
  (``algorithm="incremental"``). :class:`ContinuousQuery`
  (:meth:`QueryEngine.continuous`) is the owned in-place fast path for
  streams.

Sessions and the shared caches are thread-safe; see the class docs for
the exact locking discipline.

Usage::

    engine = QueryEngine()
    for k in (4, 8, 16, 32, 64):
        result = engine.query(dataset, k)          # one preparation total
    results = engine.query_many([(dataset, 2), (dataset, 8)])
    results = engine.query_many(sweep, workers=4)  # process-pool sharding
    print(engine.stats.summary())
"""

from __future__ import annotations

import atexit
import os
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import InvalidParameterError, UnknownAlgorithmError
from ._lockcheck import make_lock
from .backend import SharedTables, select_backend
from .kernels import (
    PreparedDataset,
    SentinelDelta,
    dominated_counts,
    dominator_masks,
)
from .planner import (
    QueryPlan,
    apply_calibration_state,
    calibration_state,
    merge_plan_options,
    plan_delta,
    plan_query,
    record_observation,
    supported_options,
)
from .store import PersistentStore
from . import telemetry
from .telemetry import clock as _clock

__all__ = [
    "QueryEngine",
    "ContinuousQuery",
    "EngineStats",
    "PreparedDatasetCache",
    "dataset_fingerprint",
    "default_engine",
    "parse_memory_budget",
    "shared_prepared",
    "shutdown_pool",
]

#: Byte budget of the process-wide shared :class:`PreparedDatasetCache`.
_SHARED_CACHE_BUDGET_BYTES = 256 * 1024 * 1024

#: Cache-miss sentinel: ``None`` (or any falsy value) must be storable.
_MISSING = object()

#: Store label of every session answer: all routes return the one
#: canonical answer, so it is stored once per (fingerprint, k).
_RESULT_LABEL = "tkd"

#: Change-event window a :class:`ContinuousQuery` keeps for its cached
#: selections; entries older than the window fall back to an exact
#: re-rank (bounding memory on streams that are written but never read).
_MAX_PENDING_EVENTS = 64


def dataset_fingerprint(dataset) -> str:
    """Content hash identifying a dataset's query-relevant state.

    Two datasets with identical values, missing patterns and per-dimension
    directions produce identical TKD answers, so they share a fingerprint;
    ids/names are presentation-only and excluded deliberately.

    Values are canonicalised before hashing so bit-level float artefacts
    cannot split equal-answer datasets: ``-0.0`` compares equal to ``0.0``
    in every dominance test (adding ``0.0`` maps it to ``+0.0``), and
    missing cells are re-stamped with one canonical NaN (their stored
    payload bits are meaningless — only the observed mask matters).

    :class:`~repro.core.dataset.IncompleteDataset` instances answer
    through their own :meth:`~repro.core.dataset.IncompleteDataset.fingerprint`
    — memoised, and *lineage-derived* for versions produced by
    ``apply_delta`` (``H(parent, delta)`` instead of a full rehash), which
    is what keys the whole cache hierarchy per version. Duck-typed
    stand-ins fall back to the full content hash.
    """
    method = getattr(dataset, "fingerprint", None)
    if callable(method):
        return method()
    from ..core.dataset import content_fingerprint  # deferred: core imports the engine

    return content_fingerprint(dataset)


def parse_memory_budget(value) -> int | None:
    """Parse a memory budget: bytes, or a string with a K/M/G/T suffix.

    Accepts ``None`` (no budget), a number of bytes, or strings such as
    ``"512M"``, ``"2G"``, ``"1048576"``. This is the one parser behind
    ``QueryEngine(memory_budget=...)``, the ``REPRO_MEMORY_BUDGET``
    environment variable and the CLI ``--memory-budget`` flag.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise InvalidParameterError(f"memory budget must be bytes or a size string, got {value!r}")
    if isinstance(value, (int, float)):
        budget = int(value)
    else:
        text = str(value).strip()
        scale = 1
        suffixes = {"K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}
        if text and text[-1].upper() in suffixes:
            scale = suffixes[text[-1].upper()]
            text = text[:-1].strip()
        try:
            budget = int(float(text) * scale)
        except ValueError:
            raise InvalidParameterError(
                f"memory budget must be bytes or a size string like '512M', got {value!r}"
            ) from None
    if budget <= 0:
        raise InvalidParameterError(f"memory budget must be >= 1 byte, got {value!r}")
    return budget


def _freeze(value):
    """Make an options value hashable for cache keys."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        return tuple(_freeze(v) for v in value)
    if hasattr(value, "tolist"):  # numpy scalars/arrays
        return _freeze(value.tolist())
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _options_key(options: dict) -> tuple:
    return tuple(sorted((name, _freeze(value)) for name, value in options.items()))


@dataclass
class EngineStats:
    """Cache-effectiveness counters of one :class:`QueryEngine`."""

    queries: int = 0
    result_hits: int = 0
    result_misses: int = 0
    prepared_hits: int = 0
    prepared_misses: int = 0
    evictions: int = 0
    #: Warm answers served from / written to the persistent store.
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    #: Versioned-update counters: deltas applied through this session,
    #: split by how the prepared tables advanced (patched vs rebuilt).
    deltas_applied: int = 0
    tables_patched: int = 0
    tables_rebuilt: int = 0
    #: Queries answered straight from incrementally maintained scores.
    incremental_hits: int = 0
    #: Prepared structures warm-started from the persistent store.
    prepared_loaded: int = 0
    #: Prepared structures reconstructed by patching a stored *ancestor*
    #: forward through lineage delta payloads (no exact version on disk).
    prepared_patched_forward: int = 0
    #: Queries answered through the two-phase partitioned protocol.
    partitioned_queries: int = 0
    #: Partitioned queries that ran out-of-core (spilled shard tables).
    spilled_queries: int = 0
    #: Planner-triggered shard rebalances (adaptive repartitioner).
    repartitions: int = 0
    #: Gauge: max(shard sizes)/mean(shard sizes) of the most recently
    #: touched partitioned view — the repartitioner's trigger signal.
    partition_imbalance: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Result-cache hit rate over all answered queries (0 when idle)."""
        answered = self.result_hits + self.result_misses
        return self.result_hits / answered if answered else 0.0

    def merge(self, other: "EngineStats") -> None:
        """Fold another engine's counters in (used by parallel query_many)."""
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            # partition_imbalance is a gauge, not a counter: keep the worst
            # skew either side saw.
            merged = max(mine, theirs) if spec.name == "partition_imbalance" else mine + theirs
            setattr(self, spec.name, merged)

    def summary(self) -> str:
        text = (
            f"engine: {self.queries} queries, "
            f"results {self.result_hits}/{self.result_hits + self.result_misses} cached "
            f"({self.hit_rate:.0%}), "
            f"prepared reused {self.prepared_hits}x, evictions {self.evictions}"
        )
        if self.store_hits or self.store_misses or self.store_writes:
            text += (
                f", store {self.store_hits}/{self.store_hits + self.store_misses} warm"
                f" ({self.store_writes} written)"
            )
        if self.deltas_applied:
            text += (
                f", deltas {self.deltas_applied}"
                f" ({self.tables_patched} patched / {self.tables_rebuilt} rebuilt"
                f", {self.incremental_hits} incremental answers)"
            )
        if self.prepared_loaded:
            text += f", prepared warm-started {self.prepared_loaded}x"
        if self.prepared_patched_forward:
            text += f", patched forward {self.prepared_patched_forward}x"
        if self.partitioned_queries:
            text += f", partitioned {self.partitioned_queries}"
            if self.spilled_queries:
                text += f" ({self.spilled_queries} out-of-core)"
            text += f", imbalance {self.partition_imbalance:.2f}"
        if self.repartitions:
            text += f", repartitions {self.repartitions}"
        return text


class _LRU:
    """Minimal ordered-dict LRU used for both engine caches.

    Lookups distinguish "absent" from "stored a falsy value" through a
    private sentinel, so ``None``/``0``/``[]`` are first-class cache
    values and still refresh recency on access.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise InvalidParameterError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def get(self, key, default=None):
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> int:
        """Insert and return how many entries were evicted (0 or 1)."""
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            return 1
        return 0

    def keys(self):
        return list(self._data.keys())

    def clear(self) -> None:
        self._data.clear()


class PreparedDatasetCache:
    """Fingerprint-keyed, byte-budgeted LRU of :class:`PreparedDataset`.

    Entries are content-addressed (the dataset fingerprint), so the cache
    is safe to share across engines and with module-level kernel calls —
    equal-content datasets reuse one entry, different content can never
    collide. The budget is enforced against the entries' *current*,
    identity-deduplicated footprint on every access (arrays shared by
    copy-on-write delta chains are charged once — see
    :attr:`total_bytes`): a `PreparedDataset` grows when its lazy
    bitset tables are built, and the next access sheds entries until the
    total fits again. Eviction is *cost-aware*: among every entry but the
    most recently used, the lowest measured rebuild-seconds-per-byte goes
    first (ties fall back to least-recently-used order), so cheap
    sentinel-only entries yield before an ``O(d·u·n/64)`` table
    build. A single entry larger than the whole budget is kept (evicting
    it would only thrash rebuilds).

    All methods are thread-safe: the process-wide shared instance is hit
    by every engine *and* by module-level kernel calls, possibly from
    many server threads at once.
    """

    def __init__(self, max_bytes: int = _SHARED_CACHE_BUDGET_BYTES) -> None:
        if max_bytes <= 0:
            raise InvalidParameterError(f"cache budget must be >= 1 byte, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._data: OrderedDict[str, PreparedDataset] = OrderedDict()
        #: Resident set of *memory-mapped* spilled-shard entries, budgeted
        #: separately from :attr:`max_bytes` — their pages are file-backed
        #: and clean, so "evict" means "drop the mapping", never
        #: "recompute the tables" (see :meth:`attach_spilled`).
        self._resident: OrderedDict[str, tuple[PreparedDataset, int]] = OrderedDict()
        self._lock = make_lock("cache")
        #: Memoised :meth:`_total_bytes` and the entries' summed
        #: ``lazy_built`` it was measured at; ``None`` after any change to
        #: the entry set, so a plain hit does not re-walk every array.
        self._bytes: int | None = None
        self._built = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resident_hits = 0
        self.resident_misses = 0
        self.resident_evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._data

    @property
    def total_bytes(self) -> int:
        """Current footprint of all entries (lazy tables included).

        Identity-deduplicated: copy-on-write delta chains share every
        untouched table array between parent and child entries, and a
        budget that summed per-entry ``nbytes`` double-counted them —
        evicting long version histories the process could easily afford.
        An array (or the base of a view) held by several entries is
        charged once.
        """
        with self._lock:
            return self._total_bytes()

    def _total_bytes(self) -> int:
        seen: set[int] = set()
        total = 0
        for entry in self._data.values():
            for array in entry.storage_arrays():
                base = array.base if array.base is not None else array
                key = id(base)
                if key not in seen:
                    seen.add(key)
                    total += base.nbytes
        return total

    def get_or_create(self, dataset, fingerprint: str) -> PreparedDataset:
        """Fetch the entry for *fingerprint*, building it on first sight.

        The (cheap, sentinel-only) build happens under the cache lock so
        racing threads can never install two entries for one fingerprint;
        the expensive lazy tables build later, under the entry's own lock.
        """
        with self._lock:
            entry = self._data.get(fingerprint)
            if entry is not None:
                self._data.move_to_end(fingerprint)
                self.hits += 1
            else:
                entry = PreparedDataset(dataset)
                self._data[fingerprint] = entry
                self._bytes = None
                self.misses += 1
            self._enforce()
            return entry

    def peek(self, fingerprint: str) -> PreparedDataset | None:
        """The entry for *fingerprint* if present — no build, no counters.

        Refreshes recency (a peeked parent is an active delta chain's
        base and must not be the next eviction victim) but leaves the
        hit/miss counters alone.
        """
        with self._lock:
            entry = self._data.get(fingerprint)
            if entry is not None:
                self._data.move_to_end(fingerprint)
            return entry

    def put(self, fingerprint: str, prepared: PreparedDataset) -> None:
        """Install an externally built entry (patched child, store load)."""
        with self._lock:
            self._data[fingerprint] = prepared
            self._data.move_to_end(fingerprint)
            self._bytes = None
            self._enforce()

    # -- resident set of memory-mapped spilled shards -----------------------

    def attach_spilled(
        self, fingerprint: str, loader, *, max_resident_bytes: int
    ) -> PreparedDataset:
        """The resident-set manager of out-of-core partitioned execution.

        Returns the mmap-attached :class:`PreparedDataset` for a spilled
        shard, attaching through *loader* — a zero-argument callable
        returning ``(prepared, nbytes)`` — on first touch. Entries are
        LRU-ordered under ``max_resident_bytes`` (the caller's memory
        budget): overflow drops the least recently used *mapping*, which
        releases its clean file-backed pages to the OS without losing any
        computed state — reattaching later is another lazy ``mmap``, not
        a table rebuild. The ``resident_hits`` / ``resident_misses`` /
        ``resident_evictions`` counters are what the out-of-core
        benchmark reports as the hit rate.
        """
        with self._lock:
            entry = self._resident.get(fingerprint)
            if entry is not None:
                self._resident.move_to_end(fingerprint)
                self.resident_hits += 1
                if telemetry.enabled():
                    telemetry.metrics().count("spill.attach.hit")
                return entry[0]
            self.resident_misses += 1
        # Load outside the lock: a miss may build + spill O(d·u·n/64)
        # tables, which must not serialize every other cache user.
        with telemetry.trace("spill.attach") as span:
            prepared, nbytes = loader()
            span.set("bytes", int(nbytes))
        evicted = 0
        with self._lock:
            self._resident[fingerprint] = (prepared, int(nbytes))
            self._resident.move_to_end(fingerprint)
            while (
                len(self._resident) > 1
                and sum(entry[1] for entry in self._resident.values()) > max_resident_bytes
            ):
                self._resident.popitem(last=False)
                self.resident_evictions += 1
                evicted += 1
        if telemetry.enabled():
            registry = telemetry.metrics()
            registry.count("spill.attach.miss")
            if evicted:
                registry.count("spill.evict", evicted)
        return prepared

    @property
    def resident_bytes(self) -> int:
        """Mapped footprint of the spilled-shard resident set."""
        with self._lock:
            return sum(entry[1] for entry in self._resident.values())

    @property
    def resident_hit_rate(self) -> float:
        with self._lock:
            touches = self.resident_hits + self.resident_misses
            return self.resident_hits / touches if touches else 0.0

    def drop_spilled(self) -> None:
        """Release every mapped spilled-shard entry (counters kept)."""
        with self._lock:
            self._resident.clear()

    def _enforce(self) -> None:
        while len(self._data) > 1 and self._footprint() > self.max_bytes:
            # Spare the most recently used entry (the caller is about to
            # use it); evict the cheapest rebuild-per-byte among the rest.
            # min() keeps the first — least recently used — entry on ties.
            victims = list(self._data.items())[:-1]
            victim = min(victims, key=lambda kv: kv[1].rebuild_cost_per_byte)[0]
            del self._data[victim]
            self._bytes = None
            self.evictions += 1

    def _footprint(self) -> int:
        """:meth:`_total_bytes`, re-measured only when it can have moved.

        Entries grow in place only by building a lazy structure, so the
        memoised total stands until the entry set changes or the summed
        ``lazy_built`` count moves — the next access after a table build
        still sheds entries until the total fits again.
        """
        built = sum(entry.lazy_built for entry in self._data.values())
        if self._bytes is None or built != self._built:
            self._bytes, self._built = self._total_bytes(), built
        return self._bytes

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/eviction counters.

        Counters describe the current entry population; carrying them
        across a clear made post-clear hit rates unreadable.
        """
        with self._lock:
            self._data.clear()
            self._resident.clear()
            self._bytes = None
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.resident_hits = 0
            self.resident_misses = 0
            self.resident_evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"<PreparedDatasetCache entries={len(self._data)} "
                f"bytes={self.total_bytes}/{self.max_bytes}>"
            )


#: Cap on the shared process pool: pool workers are heavyweight (numpy
#: import, their own prepared caches), so larger batches queue instead.
_POOL_MAX_WORKERS = 8

_pool: ProcessPoolExecutor | None = None
_pool_size = 0
_pool_lock = make_lock("pool", reentrant=False)


def _process_pool(workers: int) -> ProcessPoolExecutor:
    """The lazily built process pool shared by every parallel route.

    One pool serves repeated :meth:`QueryEngine.query_many` sweeps
    across calls, so worker spawn + import cost is paid once per process
    instead of once per batch.
    Size-capped; a request larger than the current pool grows it
    (recreate), a broken pool is replaced transparently.
    """
    global _pool, _pool_size
    wanted = max(1, min(int(workers), _POOL_MAX_WORKERS))
    with _pool_lock:
        broken = _pool is not None and getattr(_pool, "_broken", False)
        if _pool is None or broken or _pool_size < wanted:
            if _pool is not None:
                _pool.shutdown(wait=False, cancel_futures=True)
            _pool = ProcessPoolExecutor(max_workers=wanted)
            _pool_size = wanted
        return _pool


def shutdown_pool(*, wait: bool = True) -> None:
    """Shut the shared process pool down (explicit; also runs atexit)."""
    global _pool, _pool_size
    with _pool_lock:
        pool, _pool = _pool, None
        _pool_size = 0
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_pool)


#: The process-wide prepared-dataset cache every engine defaults to.
_shared_dataset_cache = PreparedDatasetCache()

#: Lazily created engine behind the module-level kernel shim.
_default_engine: "QueryEngine | None" = None


def default_engine() -> "QueryEngine":
    """The session serving module-level calls (one per process, lazy)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = QueryEngine()
    return _default_engine


def shared_prepared(dataset) -> PreparedDataset:
    """Module-level shim: prepared kernel inputs from the default session.

    :func:`repro.engine.kernels._shared_prepared` calls this so that
    one-shot APIs (``score_all``, ``dominance_matrix``, ``mfd_scores``)
    hit the same fingerprint-keyed cache a :class:`QueryEngine` fills.
    """
    return default_engine().prepare_dataset(dataset)


class QueryEngine:
    """A session that amortises preparation and caching across TKD queries.

    Parameters
    ----------
    max_prepared: LRU capacity for prepared algorithm instances (each may
        hold an index; bound this by available memory).
    max_results: LRU capacity for cached query results (small objects).
    dataset_cache: the :class:`PreparedDatasetCache` serving kernel-level
        structures; defaults to the process-wide shared cache so engines
        and module-level calls reuse one set of bitset tables. Pass a
        private instance to isolate (or differently budget) a session.
    store: a :class:`~repro.engine.store.PersistentStore` (or a directory
        path for one) that makes result caching and planner calibration
        survive the process. Defaults to the ``REPRO_CACHE_DIR``
        environment variable when set, else no persistence. Opening a
        store loads its persisted planner biases into this process.
    backend: kernel backend to select — ``"numpy"``, ``"native"`` or
        ``"auto"`` (:mod:`repro.engine.backend`). Selection is
        **process-wide** (the kernels layer and the shared prepared cache
        are process-global); backends are bit-identical, so this only
        affects speed. ``None`` (default) leaves the current selection
        (itself resolved from ``REPRO_BACKEND``, default ``auto``) alone.
    memory_budget: resident-set byte budget for partitioned queries —
        bytes, or a size string (``"512M"``, ``"2G"``; see
        :func:`parse_memory_budget`). When a partitioned query's total
        shard-table footprint exceeds it, execution goes out-of-core:
        shard tables are spilled to memory-mapped store files and only a
        budget-bounded resident set stays attached at once (answers stay
        bit-identical). Defaults to the ``REPRO_MEMORY_BUDGET``
        environment variable when set, else unlimited. Spills land in
        :attr:`store` when one is configured, else in a private
        temporary directory cleaned up with the engine.
    trace: turn hierarchical span tracing on (``True``) or off
        (``False``) — see :mod:`repro.engine.telemetry`. Process-wide
        like ``backend`` (and shared with the ``REPRO_TRACE``
        environment variable and the CLI ``--trace`` flag); ``None``
        (default) leaves the current setting alone. Tracing never
        changes answers, only records where the time went.

    Sessions are thread-safe: one internal lock guards the caches, the
    fingerprint memo and the stats counters, and is *released* while an
    algorithm executes so concurrent queries still run in parallel.
    """

    def __init__(
        self,
        *,
        max_prepared: int = 16,
        max_results: int = 256,
        dataset_cache: PreparedDatasetCache | None = None,
        store: "PersistentStore | str | Path | None" = None,
        backend: str | None = None,
        memory_budget: "int | str | None" = None,
        trace: "bool | None" = None,
    ) -> None:
        if trace is not None:
            # Process-wide like ``backend``: one query flows through
            # module-level kernels and pool workers, so a session-scoped
            # flag could only ever trace fragments of it.
            telemetry.set_enabled(trace)
        self._backend = select_backend(backend) if backend is not None else None
        self._prepared = _LRU(max_prepared)
        self._results = _LRU(max_results)
        #: Incrementally maintained full score vectors, per fingerprint —
        #: what the "incremental" query route answers from. Bounded: one
        #: int64 vector per live version.
        self._scores = _LRU(max(4 * max_prepared, 32))
        self._dataset_cache = _shared_dataset_cache if dataset_cache is None else dataset_cache
        #: Partitioned views per dataset fingerprint, advanced by deltas.
        self._partitioned = _LRU(8)
        self._fingerprints: dict[int, tuple[weakref.ref, str]] = {}
        self._lock = make_lock("engine")
        #: Store writes buffered while a batch is in flight (query_many
        #: flushes them in one lock + atomic rewrite instead of N).
        self._store_pending: list[dict] = []
        self._defer_store_writes = False
        self.stats = EngineStats()
        if store is None:
            env_dir = os.environ.get("REPRO_CACHE_DIR")
            store = env_dir if env_dir else None
        if isinstance(store, (str, Path)):
            store = PersistentStore(store)
        self._store = store
        if memory_budget is None:
            memory_budget = os.environ.get("REPRO_MEMORY_BUDGET") or None
        self.memory_budget = parse_memory_budget(memory_budget)
        #: Lazily created private spill store for engines without a
        #: persistent one; its directory dies with the engine.
        self._ephemeral_spill: "PersistentStore | None" = None
        self._ephemeral_spill_cleanup = None
        if self._store is not None:
            state = self._store.load_planner()
            if state:
                apply_calibration_state(state)

    @property
    def dataset_cache(self) -> PreparedDatasetCache:
        """The prepared-dataset cache this session reads and fills."""
        return self._dataset_cache

    @property
    def store(self) -> "PersistentStore | None":
        """The persistent store this session reads and fills (if any)."""
        return self._store

    def _spill_store(self) -> PersistentStore:
        """Where out-of-core shard tables spill.

        The configured :attr:`store` when present (spills then persist
        and warm-start future processes); otherwise a private temporary
        directory, removed when the engine is garbage-collected (and by
        an atexit net — a crashed process must not strand gigabytes).
        """
        if self._store is not None:
            return self._store
        if self._ephemeral_spill is None:
            import shutil
            import tempfile

            spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
            self._ephemeral_spill = PersistentStore(spill_dir)
            self._ephemeral_spill_cleanup = weakref.finalize(
                self, shutil.rmtree, spill_dir, ignore_errors=True
            )
        return self._ephemeral_spill

    # -- identity -----------------------------------------------------------

    def fingerprint(self, dataset) -> str:
        """Fingerprint with per-instance memoisation (datasets are immutable).

        The memo is keyed by ``id()`` but guarded by a weak reference to
        the instance: CPython recycles ids of freed objects, so a bare id
        hit could otherwise serve a *different* dataset's fingerprint (and
        through it, another dataset's cached answers).
        """
        key = id(dataset)
        with self._lock:
            entry = self._fingerprints.get(key)
            if entry is not None and entry[0]() is dataset:
                return entry[1]
        # Hash outside the lock: O(n·d) work must not serialize sessions.
        with telemetry.trace("engine.fingerprint") as span:
            span.set("n", dataset.n).set("d", dataset.d)
            fingerprint = dataset_fingerprint(dataset)
        with self._lock:
            # Bound the memo so long-lived engines can't grow unboundedly
            # over throwaway datasets.
            if len(self._fingerprints) >= 4 * self._prepared.capacity:
                self._fingerprints.clear()
            self._fingerprints[key] = (weakref.ref(dataset), fingerprint)
        return fingerprint

    # -- planning -----------------------------------------------------------

    def prepared_algorithms(self, dataset) -> tuple[str, ...]:
        """Names of algorithms already prepared for *dataset* in this session."""
        fingerprint = self.fingerprint(dataset)
        with self._lock:
            return tuple(
                sorted({key[1] for key in self._prepared.keys() if key[0] == fingerprint})
            )

    def plan(self, dataset, k: int, *, repeats: int = 1) -> QueryPlan:
        """Cost-based plan for one query, aware of this session's caches."""
        return plan_query(
            dataset, k, prepared=self.prepared_algorithms(dataset), repeats=repeats
        )

    # -- execution ----------------------------------------------------------

    def prepare_dataset(self, dataset) -> PreparedDataset:
        """Kernel-level prepared structures for *dataset*, cache-backed.

        Returns the fingerprint-keyed :class:`PreparedDataset` (lo/hi
        sentinels eagerly, bitset tables lazily) every kernel call on this
        dataset's content will reuse — including module-level calls, since
        the default cache is process-wide. With a :attr:`store`, a cache
        miss first tries the persisted tables
        (:meth:`persist_prepared` / ``PersistentStore.put_prepared``), so
        a fresh process warm-starts the ``O(d·u·n/64)`` build from disk —
        and when only an *ancestor* version is stored, the lineage
        records' embedded delta payloads patch it forward to this version
        (``stats.prepared_patched_forward``).
        """
        fingerprint = self.fingerprint(dataset)
        if self._store is not None and self._dataset_cache.peek(fingerprint) is None:
            loaded = self._store.get_prepared(fingerprint)
            counter = "prepared_loaded"
            if loaded is None:
                loaded = self._patch_forward_from_store(dataset, fingerprint)
                counter = "prepared_patched_forward"
            if loaded is not None:
                self._dataset_cache.put(fingerprint, loaded)
                with self._lock:
                    setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        return self._dataset_cache.get_or_create(dataset, fingerprint)

    #: Longest stored-ancestor delta chain worth replaying; beyond this a
    #: cold rebuild is usually cheaper than the accumulated patches.
    _MAX_PATCH_FORWARD = 16

    def _patch_forward_from_store(self, dataset, fingerprint: str):
        """Rebuild *fingerprint*'s prepared state from a stored ancestor.

        Walks the store's lineage records child-first; the first ancestor
        with persisted tables — reachable through records that all embed
        their delta payload — is loaded and patched forward, one
        :meth:`PreparedDataset.patched` call per recorded delta.
        Returns ``None`` when no such ancestor exists (or the chain is
        broken, too deep, or inconsistent).
        """
        from ..core.delta import DatasetDelta  # deferred: core imports the engine

        chain = self._store.resolve_lineage(fingerprint)
        payloads: list[dict] = []
        base = None
        for record in chain[: self._MAX_PATCH_FORWARD]:
            payload = record.get("payload")
            if not isinstance(payload, dict):
                return None  # a payload-free link: cannot patch through it
            payloads.append(payload)
            base = self._store.get_prepared(record.get("parent", ""))
            if base is not None:
                break
        if base is None:
            return None
        prepared = base
        try:
            for payload in reversed(payloads):
                delta = DatasetDelta.from_payload(payload)
                prepared = prepared.patched(
                    SentinelDelta.from_delta(delta, dataset.directions)
                )
        except (KeyError, ValueError, TypeError, InvalidParameterError):
            return None  # hand-edited or stale records must never break queries
        if prepared.n != dataset.n or prepared.d != dataset.d:
            return None
        return prepared

    def persist_prepared(self, dataset, *, warm: bool = True) -> PreparedDataset:
        """Write *dataset*'s prepared structures to the persistent store.

        With ``warm=True`` (default) the packed bitset tables are built
        first, so the stored entry saves a fresh process the whole table
        build, not just the sentinels. Requires a :attr:`store`.
        """
        if self._store is None:
            raise InvalidParameterError(
                "persist_prepared needs a store; pass QueryEngine(store=...) "
                "or set REPRO_CACHE_DIR"
            )
        prepared = self.prepare_dataset(dataset)
        if warm:
            prepared.tables(build=True)
        self._store.put_prepared(self.fingerprint(dataset), prepared)
        return prepared

    # -- versioned updates --------------------------------------------------

    def apply_delta(self, dataset, delta):
        """Advance *dataset* by one insert/delete/update batch, incrementally.

        Returns the child :class:`~repro.core.dataset.IncompleteDataset`
        version. Everything this session knows about the parent advances
        with it instead of being invalidated:

        * a cached :class:`PreparedDataset` is **patched** (table bits
          set and cleared, deletions tombstoned) or — when
          :func:`~repro.engine.planner.plan_delta` says the tombstone
          debt or delta size warrants it — compacted by one rebuild;
        * a maintained score vector is advanced by adjusting the
          dominated counts of affected objects only (see
          :meth:`scores`), which is what lets :meth:`query` answer the
          child version without running any algorithm;
        * with a :attr:`store`, the child's fingerprint lineage is
          recorded so delta chains resolve to stored results across
          processes.
        """
        with telemetry.trace("engine.apply_delta") as span:
            ops = delta.ops
            for key in ("inserts", "deletes", "updates"):
                span.set(key, ops[key])
            if delta.is_empty:
                return dataset
            child = dataset.apply_delta(delta)
            parent_fp = self.fingerprint(dataset)
            child_fp = self.fingerprint(child)
            with self._lock:
                self.stats.deltas_applied += 1
                parent_scores = self._scores.get(parent_fp, _MISSING)
            if parent_scores is _MISSING or len(parent_scores) != dataset.n:
                parent_scores = None

            parent_prepared = self._dataset_cache.peek(parent_fp)
            child_prepared = None
            rebates = None
            if parent_scores is not None and parent_prepared is None:
                # The parent's structures were evicted: maintaining the score
                # vector would silently rebuild full prepared state through
                # the module-level shim — in the *global* cache, not this
                # session's. Drop maintenance; the next query recomputes
                # exactly (and re-seeds) through scores().
                parent_scores = None
            if parent_scores is not None:
                # Parent-space mask work must read the parent's structures
                # before any (even copy-on-write) patching bookkeeping.
                rebates = _score_rebates(dataset, parent_prepared, delta)
            if parent_prepared is not None:
                plan = plan_delta(
                    parent_prepared.storage_n,
                    parent_prepared.d,
                    inserts=ops["inserts"],
                    deletes=ops["deletes"],
                    updates=ops["updates"],
                    tombstones=parent_prepared.tombstones,
                    tables_ready=parent_prepared.tables_ready,
                )
                if plan.action == "patch":
                    child_prepared = parent_prepared.patched(
                        SentinelDelta.from_delta(delta, dataset.directions)
                    )
                    with self._lock:
                        self.stats.tables_patched += 1
                else:
                    child_prepared = PreparedDataset(child)
                    if parent_prepared.tables_ready:
                        child_prepared.tables(build=True)
                    with self._lock:
                        self.stats.tables_rebuilt += 1
                self._dataset_cache.put(child_fp, child_prepared)

            if parent_scores is not None:
                child_scores, _changed = _advance_scores(
                    rebates, parent_scores, child, child_prepared, delta
                )
                with self._lock:
                    self._scores.put(child_fp, child_scores)

            if self._store is not None:
                from .store import MAX_LINEAGE_PAYLOAD_CELLS

                payload = delta.payload() if delta.cells <= MAX_LINEAGE_PAYLOAD_CELLS else None
                self._store.record_lineage(
                    child_fp, parent_fp, delta.digest(), delta.ops, payload=payload
                )

            # A maintained partitioned view advances with the version: the
            # delta routes to its owning shard(s) only, and each touched
            # shard's PreparedDataset is patched (or rebuilt) under the shard
            # child's own fingerprint — O(|delta|) per affected partition.
            with self._lock:
                view = self._partitioned.get(parent_fp, _MISSING)
            if view is not _MISSING:
                child_view, advanced = view.apply_delta(delta, child=child)
                for parent_shard, sub_delta, child_shard in advanced:
                    self._advance_shard_prepared(parent_shard, sub_delta, child_shard)
                with self._lock:
                    self._partitioned.put(child_fp, child_view)
                    self.stats.partition_imbalance = float(child_view.imbalance)
            return child

    def _advance_shard_prepared(self, parent_shard, sub_delta, child_shard) -> None:
        """Patch one shard's cached PreparedDataset to its child version."""
        if child_shard is None:
            return  # shard emptied and dropped; its entries age out
        parent_prepared = self._dataset_cache.peek(self.fingerprint(parent_shard))
        if parent_prepared is None:
            return  # nothing cached to advance; next query rebuilds cold
        ops = sub_delta.ops
        plan = plan_delta(
            parent_prepared.storage_n,
            parent_prepared.d,
            inserts=ops["inserts"],
            deletes=ops["deletes"],
            updates=ops["updates"],
            tombstones=parent_prepared.tombstones,
            tables_ready=parent_prepared.tables_ready,
        )
        if plan.action == "patch":
            child_prepared = parent_prepared.patched(
                SentinelDelta.from_delta(sub_delta, parent_shard.directions)
            )
            with self._lock:
                self.stats.tables_patched += 1
        else:
            child_prepared = PreparedDataset(child_shard)
            if parent_prepared.tables_ready:
                child_prepared.tables(build=True)
            with self._lock:
                self.stats.tables_rebuilt += 1
        self._dataset_cache.put(self.fingerprint(child_shard), child_prepared)

    def insert(self, dataset, rows, *, ids: Sequence[str] | None = None):
        """New version with *rows* appended; see :meth:`apply_delta`."""
        from ..core.delta import DatasetDelta  # deferred: core imports the engine

        return self.apply_delta(dataset, DatasetDelta.inserting(dataset, rows, ids=ids))

    def delete(self, dataset, ids: Sequence[str]):
        """New version with the given objects removed; see :meth:`apply_delta`."""
        from ..core.delta import DatasetDelta

        return self.apply_delta(dataset, DatasetDelta.deleting(dataset, ids))

    def update(self, dataset, updates: Mapping[str, Sequence]):
        """New version with per-object replacements; see :meth:`apply_delta`."""
        from ..core.delta import DatasetDelta

        return self.apply_delta(dataset, DatasetDelta.updating(dataset, updates))

    def scores(self, dataset) -> np.ndarray:
        """The full dominated-count vector of *dataset*, maintained.

        Served from the incremental cache when :meth:`apply_delta` (or a
        :class:`ContinuousQuery`) has maintained it; computed exactly once
        otherwise — after which every delta keeps it current. Treat the
        returned array as read-only.
        """
        with telemetry.trace("engine.scores") as span:
            fingerprint = self.fingerprint(dataset)
            with self._lock:
                cached = self._scores.get(fingerprint, _MISSING)
            if cached is not _MISSING and len(cached) == dataset.n:
                span.set("cached", True)
                return cached
            span.set("cached", False).set("n", dataset.n)
            prepared = self.prepare_dataset(dataset)
            prepared.warm()
            computed = dominated_counts(dataset, prepared=prepared).astype(np.int64, copy=False)
            with self._lock:
                self._scores.put(fingerprint, computed)
            return computed

    def _adopt_scores(self, fingerprint: str, scores: np.ndarray) -> None:
        """Register a maintained score vector (ContinuousQuery hand-off)."""
        with self._lock:
            self._scores.put(fingerprint, scores)

    def continuous(self, dataset, *, k: int | None = None) -> "ContinuousQuery":
        """A continuously maintained top-k handle over a mutating dataset.

        The owned fast path for streaming workloads: one privately held
        prepared structure patched in place per delta, scores adjusted
        for affected objects only, and the cached top-``k`` selection
        refreshed without a full re-rank whenever the k-th boundary is
        provably unaffected. :class:`repro.core.streaming.StreamingTKD`
        is a thin facade over this.
        """
        return ContinuousQuery(self, dataset, k=k)

    def prepared(self, dataset, algorithm: str, **options):
        """Fetch (or build and cache) a prepared algorithm instance."""
        from ..core.query import make_algorithm  # deferred: core imports the engine

        fingerprint = self.fingerprint(dataset)
        key = (fingerprint, algorithm.lower(), _options_key(options))
        with self._lock:
            instance = self._prepared.get(key, _MISSING)
            if instance is not _MISSING:
                self.stats.prepared_hits += 1
                return instance
            self.stats.prepared_misses += 1
        # Build outside the lock: preparation may cost seconds and must
        # not block other sessions' threads. A racing thread may build the
        # same instance twice; both are valid and the last put wins.
        instance = make_algorithm(dataset, algorithm, **options).prepare()
        with self._lock:
            self.stats.evictions += self._prepared.put(key, instance)
        return instance

    def query(
        self,
        dataset,
        k: int,
        *,
        algorithm: str = "auto",
        tie_break: str = "index",
        rng=None,
        repeats: int = 1,
        partitions: "int | str | None" = None,
        workers: int | None = None,
        **options,
    ):
        """Answer one TKD query through the session caches.

        ``algorithm="auto"`` resolves through :meth:`plan` (crediting
        already-prepared structures); any explicit name behaves like
        :func:`~repro.core.query.top_k_dominating` but with reuse.

        ``partitions=P`` (P ≥ 2) answers through the two-phase
        partitioned protocol (:mod:`repro.engine.partition`): the data is
        sharded, each shard prepared under its own cache/store key, and
        only phase-1 survivors are exchanged.
        ``partitions="auto"`` lets :func:`~repro.engine.planner.plan_partitioned`
        price the protocol against the best monolithic algorithm first.
        ``workers=N`` is still accepted with ``partitions`` (and
        rejected without it) but no longer changes partitioned execution:
        both phases run in this process, so each shard's tables are
        built once. Batches shard over processes with :meth:`query_many`.

        Under ``tie_break="index"`` every route returns the same canonical
        answer, so the result cache (and the :attr:`store`, when set) holds
        one entry per ``(dataset fingerprint, k)``. It is consulted before
        anything is planned or executed; computed answers are written back
        with their measured cost (feeding the store's cost-aware eviction).

        When this session has incrementally maintained scores for the
        dataset's version (:meth:`apply_delta`, :meth:`scores`,
        :class:`ContinuousQuery`), ``algorithm="auto"`` short-circuits to
        the **incremental** route: the answer is selected straight from
        the maintained vector, no algorithm executed. ``"incremental"``
        may also be requested explicitly; without maintained scores it
        computes them once (exact fallback) and maintains them from then
        on.
        """
        self._check_route(algorithm, partitions, workers)
        with telemetry.trace("engine.query") as root:
            root.set("n", dataset.n).set("d", dataset.d).set("k", int(k))
            with self._lock:
                self.stats.queries += 1
            key = self._result_key(dataset, k) if tie_break == "index" else None
            result = None if key is None else self._cached_result(key, root)
            if result is not None:
                return result
            return self._answer(
                dataset,
                k,
                key,
                root,
                algorithm=algorithm,
                tie_break=tie_break,
                rng=rng,
                repeats=repeats,
                partitions=partitions,
                **options,
            )

    @staticmethod
    def _check_route(algorithm: str, partitions, workers) -> None:
        """Reject an unknown algorithm or a bad partitions/workers pair."""
        from ..core.query import ALGORITHMS  # deferred: core imports the engine

        if algorithm.lower() not in (*ALGORITHMS, "auto", "incremental"):
            raise UnknownAlgorithmError(
                f"unknown algorithm {algorithm!r}; available: {', '.join(ALGORITHMS)}"
            )
        if isinstance(partitions, str):
            if partitions.lower() != "auto":
                raise InvalidParameterError(
                    f"partitions must be an integer or 'auto', got {partitions!r}"
                )
        elif partitions is not None and int(partitions) < 1:
            raise InvalidParameterError(f"partitions must be >= 1, got {partitions}")
        if workers is not None:
            if partitions is None:
                raise InvalidParameterError(
                    "query(workers=N) needs partitions=; use query_many for batch sharding"
                )
            if int(workers) < 1:
                raise InvalidParameterError(f"workers must be >= 1, got {workers}")

    def _answer(
        self,
        dataset,
        k: int,
        key: tuple | None,
        root,
        *,
        algorithm: str = "auto",
        tie_break: str = "index",
        rng=None,
        repeats: int = 1,
        partitions: "int | str | None" = None,
        workers: int | None = None,
        **options,
    ):
        """Compute one answer the result cache did not hold, and remember
        it under *key* (``None`` for uncacheable tie-breaks). *workers*
        (a :meth:`query_many` request option) was validated by
        :meth:`_check_route` and does not change the route."""
        if partitions is not None:
            partitions = self._resolve_partitions(dataset, k, partitions)
        if partitions is None:
            result, elapsed = self._query_monolithic(
                dataset,
                k,
                root,
                algorithm=algorithm,
                tie_break=tie_break,
                rng=rng,
                repeats=repeats,
                options=options,
            )
        else:
            result, elapsed = self._execute_partitioned(
                dataset,
                k,
                root,
                partitions=partitions,
                tie_break=tie_break,
                rng=rng,
            )
        if key is not None:
            self._remember_result(key, result, elapsed)
        return result

    def _result_key(self, dataset, k) -> tuple:
        """The result-cache key: one canonical answer per dataset and k."""
        from ..core.result import validate_k  # deferred: core imports the engine

        return self.fingerprint(dataset), validate_k(k, dataset.n)

    def _cached_result(self, key: tuple, span=None):
        """The answer held for *key* in memory, else in the store, else None.

        Counts the hit or miss, promotes a store hit into memory and tags
        *span* with where the answer came from.
        """
        with self._lock:
            cached = self._results.get(key, _MISSING)
            if cached is not _MISSING:
                self.stats.result_hits += 1
                if span is not None:
                    span.set("cache", "memory")
                return cached
            self.stats.result_misses += 1
        if self._store is None:
            return None
        with telemetry.trace("store.read"):
            stored = self._store.get_result(*key, _RESULT_LABEL)
        with self._lock:
            if stored is None:
                self.stats.store_misses += 1
                return None
            self.stats.store_hits += 1
            self.stats.evictions += self._results.put(key, stored)
        if span is not None:
            span.set("cache", "store")
        return stored

    def _query_monolithic(
        self, dataset, k: int, root, *, algorithm, tie_break, rng, repeats, options
    ):
        """The single-process :meth:`query` route: ``(result, seconds)``."""
        plan = None
        if algorithm.lower() == "auto":
            with self._lock:
                maintained = self._scores.get(self.fingerprint(dataset), _MISSING)
            if maintained is not _MISSING and len(maintained) == dataset.n:
                algorithm = "incremental"
            else:
                plan = self.plan(dataset, k, repeats=repeats)
                algorithm, options = self._apply_plan(plan, options)

        # Time preparation + query together: the plan's estimate charges
        # preparation exactly when this session has not prepared the
        # algorithm yet, so the observation must cover the same work.
        start = _clock()
        if algorithm.lower() == "incremental":
            with telemetry.trace("engine.execute") as span:
                span.set("algorithm", "incremental")
                result = self._incremental_result(dataset, k, tie_break=tie_break, rng=rng)
            with self._lock:
                self.stats.incremental_hits += 1
        else:
            with telemetry.trace("engine.prepare") as span:
                span.set("algorithm", algorithm.lower())
                instance = self.prepared(dataset, algorithm, **options)
            with telemetry.trace("engine.execute") as span:
                span.set("algorithm", algorithm.lower())
                result = instance.query(k, tie_break=tie_break, rng=rng)
        elapsed = _clock() - start
        root.set("algorithm", algorithm.lower())
        if telemetry.enabled():
            registry = telemetry.metrics()
            registry.count("engine.queries")
            registry.observe("engine.query_seconds", elapsed)
        if plan is not None:
            # Close the planner's loop: observed runtime vs modelled cost
            # nudges the per-algorithm bias for the rest of the process.
            record_observation(plan.algorithm, plan.estimated_seconds, elapsed)
            root.set("estimated_seconds", plan.estimated_seconds)
            root.set("measured_seconds", elapsed)
        return result, elapsed

    def _remember_result(self, key: tuple, result, elapsed: float) -> None:
        """Cache a fresh answer in memory and write it to the store —
        buffered while :meth:`_batched_store_writes` is in effect."""
        with self._lock:
            self.stats.evictions += self._results.put(key, result)
        if self._store is None:
            return
        item = {
            "fingerprint": key[0],
            "k": key[1],
            "algorithm": _RESULT_LABEL,
            "options_key": (),
            "result": result,
            "rebuild_seconds": elapsed,
        }
        with self._lock:
            self.stats.store_writes += 1
            deferred = self._defer_store_writes
            if deferred:
                self._store_pending.append(item)
        if not deferred:
            with telemetry.trace("store.write"):
                self._store.put_result(**item)

    def _resolve_partitions(self, dataset, k: int, partitions):
        """The shard count of a ``query(partitions=...)`` call, or ``None``
        when ``partitions="auto"`` prices the monolithic route cheaper.
        """
        if not isinstance(partitions, str):
            return int(partitions)
        from .planner import plan_partitioned

        plan = plan_partitioned(
            dataset.n,
            dataset.d,
            dataset.missing_rate,
            k,
            memory_budget=self.memory_budget,
        )
        return plan.partitions if plan.action == "partition" else None

    def _execute_partitioned(
        self, dataset, k: int, root, *, partitions, tie_break, rng
    ):
        """The partitioned :meth:`query` route: ``(result, seconds)``.

        The partitioned view is cached per dataset fingerprint (and
        advanced by :meth:`apply_delta`), each shard's
        :class:`PreparedDataset` lives in the ordinary fingerprint-keyed
        caches, and results flow through the same result LRU / persistent
        store as every other deterministic query — a partitioned answer
        is bit-identical to the monolithic one, so they share entries.
        """
        from .partition import PartitionedDataset, execute_partitioned

        root.set("route", "partitioned")
        with self._lock:
            self.stats.partitioned_queries += 1
        fingerprint = self.fingerprint(dataset)
        clamped = min(partitions, dataset.n)
        root.set("partitions", clamped)
        with self._lock:
            view = self._partitioned.get(fingerprint, _MISSING)
        if view is _MISSING or view.partitions != clamped:
            with telemetry.trace("partition.build_view") as span:
                span.set("partitions", clamped)
                view = PartitionedDataset(dataset, clamped)
            with self._lock:
                self._partitioned.put(fingerprint, view)

        # Adaptive repartitioner: a view skewed by routed insert streams
        # is rebalanced (delta splices, bit-identical) before it executes.
        if view.partitions > 1:
            from .planner import plan_repartition

            replan = plan_repartition(view.sizes, dataset.d)
            if replan.action == "rebalance":
                with telemetry.trace("partition.rebalance"):
                    view, advanced = view.rebalance()
                    for parent_shard, sub_delta, child_shard in advanced:
                        self._advance_shard_prepared(parent_shard, sub_delta, child_shard)
                with self._lock:
                    self.stats.repartitions += 1
                    self._partitioned.put(fingerprint, view)
        with self._lock:
            self.stats.partition_imbalance = float(view.imbalance)

        # Out-of-core route: when the shards' table footprint exceeds the
        # memory budget, spill tables to mapped store files and keep only
        # a budget-bounded resident set attached.
        spill_store = None
        if self.memory_budget is not None:
            if view.table_bytes() > self.memory_budget:
                spill_store = self._spill_store()
                root.set("spill", True)
                with self._lock:
                    self.stats.spilled_queries += 1

        start = _clock()
        result = execute_partitioned(
            view,
            k,
            engine=self,
            tie_break=tie_break,
            rng=rng,
            memory_budget=self.memory_budget if spill_store is not None else None,
            spill_store=spill_store,
        )
        elapsed = _clock() - start
        root.set("measured_seconds", elapsed)
        if telemetry.enabled():
            registry = telemetry.metrics()
            registry.count("engine.partitioned_queries")
            registry.observe("engine.query_seconds", elapsed)
        return result, elapsed

    def _incremental_result(self, dataset, k: int, *, tie_break: str, rng):
        """Answer one query from the maintained score vector (exact)."""
        from ..core.result import TKDResult, select_top_k, validate_k
        from ..core.stats import QueryStats

        scores = self.scores(dataset)
        validated = validate_k(k, dataset.n)
        selection = select_top_k(scores, validated, tie_break=tie_break, rng=rng)
        stats = QueryStats(
            algorithm="incremental", n=dataset.n, d=dataset.d, k=validated
        )
        return TKDResult.from_selection(
            dataset,
            selection,
            scores[selection],
            k=validated,
            algorithm="incremental",
            stats=stats,
        )

    @staticmethod
    def _apply_plan(plan: QueryPlan, options: dict) -> tuple[str, dict]:
        """Resolve a plan into an explicit (algorithm, options) pair.

        Keeps only the options the planned algorithm understands (the
        caller may have passed options meant for another family).
        """
        from ..core.query import ALGORITHMS  # deferred: core imports the engine

        algorithm = plan.algorithm
        return algorithm, supported_options(
            ALGORITHMS[algorithm], merge_plan_options(plan, options)
        )

    def query_many(
        self,
        requests: Iterable,
        *,
        algorithm: str = "auto",
        workers: int | None = None,
        **common_options,
    ):
        """Answer a batch of queries against shared preparations.

        Each request is ``(dataset, k)``, ``(dataset, k, algorithm)`` or a
        dict with ``dataset``/``k`` and optional ``algorithm``/``options``.
        The expected repeat count handed to the planner is the batch size,
        so index builds amortised across the sweep are priced as such.
        ``algorithm="auto"`` requests are resolved against this session's
        cache state *before* execution begins, so the chosen algorithms —
        and therefore the answers — do not depend on *workers*.

        ``workers=N`` (opt-in, N >= 2) shards the batch across a process
        pool: each worker rebuilds its preparations fork-safely in its own
        session, and the parent merges results (and worker cache counters)
        back into this engine's LRU result cache. Requests the parent can
        already answer from cache are never shipped. Answers are
        bit-identical to the sequential path under deterministic
        tie-breaking.
        """
        if workers is not None and int(workers) < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        with telemetry.trace("engine.query_many") as span:
            materialised = [self._coerce_request(req, algorithm) for req in requests]
            span.set("requests", len(materialised))
            repeats = max(len(materialised), 1)
            results: list = [None] * len(materialised)
            keys: list[tuple | None] = [None] * len(materialised)
            resolved = []
            for position, (dataset, k, request_algorithm, request_options) in enumerate(
                materialised
            ):
                options = {**common_options, **request_options}
                with self._lock:
                    self.stats.queries += 1
                if options.get("tie_break", "index") == "index":
                    # One answer per (fingerprint, k) whatever the route, so a
                    # request the cache already answers is neither planned nor
                    # executed (nor shipped to a worker).
                    keys[position] = self._result_key(dataset, k)
                    results[position] = self._cached_result(keys[position])
                if results[position] is None and request_algorithm.lower() == "auto":
                    request_algorithm, options = self._apply_plan(
                        self.plan(dataset, k, repeats=repeats), options
                    )
                resolved.append((dataset, k, request_algorithm, options))
            pending = [position for position, result in enumerate(results) if result is None]

            if workers is None or int(workers) <= 1 or len(resolved) <= 1:
                # Buffer store writes so the whole batch lands in one
                # lock + atomic rewrite instead of one per computed answer.
                with self._batched_store_writes():
                    for position in pending:
                        dataset, k, request_algorithm, options = resolved[position]
                        key = keys[position]
                        if key is not None:
                            # An earlier request of this batch may have
                            # computed the same (fingerprint, k) answer.
                            with self._lock:
                                results[position] = self._results.get(key)
                            if results[position] is not None:
                                continue
                        self._check_route(
                            request_algorithm, options.get("partitions"), options.get("workers")
                        )
                        with telemetry.trace("engine.query") as root:
                            root.set("n", dataset.n).set("d", dataset.d).set("k", int(k))
                            results[position] = self._answer(
                                dataset, k, key, root, algorithm=request_algorithm, **options
                            )
            else:
                self._query_many_parallel(resolved, pending, keys, results, int(workers), span)
            # A batch is a natural persistence point: the planner biases the
            # sweep just refined should survive into the next process.
            self.flush()
        return results

    @contextmanager
    def _batched_store_writes(self):
        """Defer per-query store writes, flushing them as one batch."""
        if self._store is None:
            yield
            return
        with self._lock:
            already_deferring = self._defer_store_writes
            self._defer_store_writes = True
        try:
            yield
        finally:
            if not already_deferring:
                with self._lock:
                    self._defer_store_writes = False
                    pending, self._store_pending = self._store_pending, []
                if pending:
                    self._store.put_results(pending)

    def _query_many_parallel(
        self, resolved: list, pending: list[int], keys: list, results: list, workers: int, span
    ) -> None:
        """Answer the *pending* positions of *resolved* on a process pool,
        filling *results* in place and merging the answers into the
        result cache under *keys*.

        With a :attr:`store`, each shard warm-starts from it twice over:
        the parent has already served every request the store holds
        without shipping it, and the workers (which open the same store)
        write their fresh answers back, so the next run — in *any*
        process — starts warm. Datasets whose bitset tables this session already
        prepared are additionally exported once into shared memory
        (:class:`~repro.engine.backend.SharedTables`) so workers attach
        zero-copy instead of re-preparing them.
        """
        if pending:
            shard_count = min(workers, len(pending))
            # Contiguous shards keep a sweep's repeated datasets on one
            # worker, so each dataset is pickled and prepared once there.
            base, extra = divmod(len(pending), shard_count)
            shards, start = [], 0
            for j in range(shard_count):
                size = base + (1 if j < extra else 0)
                if size:
                    shards.append(pending[start : start + size])
                start += size
            store_dir = str(self._store.directory) if self._store is not None else None
            handles: dict[str, SharedTables] = {}
            for position in pending:
                fingerprint = self.fingerprint(resolved[position][0])
                if fingerprint in handles:
                    continue
                prepared = self._dataset_cache.peek(fingerprint)
                if prepared is None or not prepared.tables_ready:
                    continue
                try:
                    handles[fingerprint] = SharedTables.create(prepared)
                except (OSError, ValueError):
                    # Out of /dev/shm space (or an unshareable layout):
                    # workers fall back to rebuilding from the pickle.
                    break
            shm_metas = {fp: handle.meta for fp, handle in handles.items()}
            span.set("shards", len(shards))
            payloads = [
                (
                    [resolved[position] for position in shard],
                    store_dir,
                    shm_metas or None,
                    telemetry.propagation_context(),
                )
                for shard in shards
            ]
            pool = _process_pool(len(shards))
            try:
                for shard, (answers, worker_stats, worker_spans) in zip(
                    shards, pool.map(_answer_shard, payloads)
                ):
                    telemetry.absorb_spans(worker_spans)
                    # The parent already counted these queries/misses (and
                    # probed the store itself); keep only the work counters
                    # the workers actually added, e.g. their store writes.
                    worker_stats.queries = 0
                    worker_stats.result_hits = 0
                    worker_stats.result_misses = 0
                    worker_stats.store_hits = 0
                    worker_stats.store_misses = 0
                    with self._lock:
                        self.stats.merge(worker_stats)
                        for position, answer in zip(shard, answers):
                            results[position] = answer
                            if keys[position] is not None:
                                self.stats.evictions += self._results.put(
                                    keys[position], answer
                                )
            finally:
                for handle in handles.values():
                    handle.close()
                    handle.unlink()

    @staticmethod
    def _coerce_request(request, default_algorithm: str):
        if isinstance(request, dict):
            try:
                dataset, k = request["dataset"], request["k"]
            except KeyError as missing:
                raise InvalidParameterError(
                    f"query_many dict requests need 'dataset' and 'k'; missing {missing}"
                ) from None
            return (
                dataset,
                k,
                request.get("algorithm", default_algorithm),
                dict(request.get("options", {})),
            )
        if (
            isinstance(request, Sequence)
            and not isinstance(request, (str, bytes))
            and 2 <= len(request) <= 3
        ):
            dataset, k = request[0], request[1]
            request_algorithm = request[2] if len(request) == 3 else default_algorithm
            return dataset, k, request_algorithm, {}
        raise InvalidParameterError(
            "query_many requests must be (dataset, k[, algorithm]) tuples or dicts"
        )

    # -- maintenance --------------------------------------------------------

    def clear(self, *, shared: bool = False) -> None:
        """Drop this session's cached preparations, results and fingerprints.

        Session-owned state only by default: the *process-wide shared*
        prepared-dataset cache is left alone — other sessions (and
        module-level kernel calls) may be serving from it — unless
        ``shared=True`` requests the old scorched-earth behaviour. A
        private ``dataset_cache`` passed at construction is session-owned
        and always cleared. The persistent store is never touched here;
        use :meth:`PersistentStore.clear` (or ``repro cache clear``).
        """
        with self._lock:
            self._prepared.clear()
            self._results.clear()
            self._partitioned.clear()
            self._fingerprints.clear()
        if shared or self._dataset_cache is not _shared_dataset_cache:
            self._dataset_cache.clear()

    def flush(self) -> None:
        """Persist the planner calibration to the store (no-op without one).

        Result entries are written as they are computed; the calibration
        snapshot is flushed here (and automatically at the end of every
        :meth:`query_many` batch) to keep store writes off the per-query
        path.
        """
        if self._store is not None:
            self._store.save_planner(calibration_state())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"<QueryEngine prepared={len(self._prepared)}/{self._prepared.capacity} "
                f"results={len(self._results)}/{self._results.capacity}>"
            )


def _score_rebates(parent, parent_prepared, delta) -> np.ndarray:
    """Parent-space score decrements one delta causes (phase 1 of 2).

    Every object that dominated a deleted victim loses that count, and
    every object that dominated an updated object's *old* value loses it
    too (the new value's contribution is re-added in child space). One
    packed dominator-mask batch over the affected rows only — this is the
    "adjust dominated counts for affected objects only" half of
    incremental maintenance. Must run *before* the parent's prepared
    structures are patched (in-place patching rewrites them).
    """
    rebates = np.zeros(parent.n, dtype=np.int64)
    del_rows = np.asarray(delta.deleted_rows, dtype=np.intp)
    upd_rows = np.asarray(delta.updated_rows, dtype=np.intp)
    if del_rows.size:
        rebates -= dominator_masks(parent, del_rows, prepared=parent_prepared).sum(axis=0)
    if upd_rows.size:
        rebates -= dominator_masks(parent, upd_rows, prepared=parent_prepared).sum(axis=0)
    return rebates


def _advance_scores(
    rebates: np.ndarray, parent_scores: np.ndarray, child, child_prepared, delta
) -> tuple[np.ndarray, np.ndarray]:
    """Child-version score vector from the parent's (phase 2 of 2).

    Surviving rows inherit ``parent_score + rebate``; dominators of
    updated and inserted rows (child values) are credited back; the
    updated and inserted rows themselves get one exact recompute each.
    Returns ``(child_scores, changed_child_rows)`` — the changed-row set
    is what lets a maintained top-k decide whether the k-th boundary
    could have moved.
    """
    n_parent = rebates.shape[0]
    del_rows = np.asarray(delta.deleted_rows, dtype=np.intp)
    upd_rows = np.asarray(delta.updated_rows, dtype=np.intp)
    inserts = int(delta.inserted_values.shape[0])

    keep = np.ones(n_parent, dtype=bool)
    if del_rows.size:
        keep[del_rows] = False
    kept = int(keep.sum())

    child_scores = np.empty(child.n, dtype=np.int64)
    child_scores[:kept] = parent_scores[keep] + rebates[keep]

    fresh: list[np.ndarray] = []
    if upd_rows.size:
        # A surviving parent row's child index is its rank among kept rows.
        child_upd = (np.cumsum(keep) - 1)[upd_rows].astype(np.intp)
        child_scores += dominator_masks(child, child_upd, prepared=child_prepared).sum(axis=0)
        fresh.append(child_upd)
    if inserts:
        child_new = np.arange(kept, child.n, dtype=np.intp)
        child_scores += dominator_masks(child, child_new, prepared=child_prepared).sum(axis=0)
        fresh.append(child_new)
    if fresh:
        fresh_rows = np.concatenate(fresh)
        child_scores[fresh_rows] = dominated_counts(child, fresh_rows, prepared=child_prepared)

    changed_kept = np.flatnonzero(child_scores[:kept] != parent_scores[keep])
    changed = np.concatenate([changed_kept, np.arange(kept, child.n)]).astype(np.intp)
    return child_scores, changed


class ContinuousQuery:
    """A continuously maintained TKD view over one mutating dataset.

    The owned fast path behind :meth:`QueryEngine.continuous` and the
    :class:`repro.core.streaming.StreamingTKD` facade. Where
    :meth:`QueryEngine.apply_delta` versions *shared* cache entries
    (copy-on-write, every version stays queryable), this handle owns its
    :class:`~repro.engine.kernels.PreparedDataset` privately and patches
    it **in place** — sentinel buffers grow by amortised doubling,
    deletions tombstone, and the planner's
    :func:`~repro.engine.planner.plan_delta` triggers a compacting
    rebuild when the tombstone debt saturates.

    Top-k maintenance: the full score vector is adjusted per delta
    (affected objects only); the cached top-``k`` selection is kept when
    the delta provably cannot move the k-th boundary — every changed
    non-member stayed strictly below it and no member lost score — and
    recomputed exactly from the maintained vector otherwise. A read
    whose selection survived costs ``O(k + changed rows)``: no hash or
    sort over the changed rows, and only the selected rows are mapped to
    ids.

    Many answer sizes can watch one stream: :meth:`subscribe` registers
    additional k values, all sharing the per-delta dominator-mask work,
    and :meth:`results` selects only the largest subscribed k and slices
    every smaller answer from that prefix.
    """

    def __init__(self, engine: QueryEngine, dataset, *, k: int | None = None) -> None:
        if dataset is None or dataset.n == 0:
            raise InvalidParameterError("continuous queries need a non-empty dataset")
        self._engine = engine
        self._dataset = dataset
        self._k = None if k is None else int(k)
        prepared = engine.prepare_dataset(dataset)
        prepared.warm()
        self._prepared = prepared
        #: The first patch must copy-on-write away from the shared cache
        #: entry; after that the structure is exclusively ours.
        self._owned = False
        self._scores = engine.scores(dataset)
        #: The multi-k subscription set: every subscribed k's selection is
        #: kept warm across deltas against the *one* maintained score
        #: vector — the per-delta dominator-mask work is shared, and a
        #: fallback re-rank sorts the vector once for all of them.
        self._subscribed: set[int] = set() if k is None else {int(k)}
        #: Per-k cached selections: ``k → (rows, boundary, seen_events)``.
        self._selections: dict[int, tuple[np.ndarray, int, int]] = {}
        #: Change events since the oldest cached selection: arrays of
        #: changed child rows, or ``None`` when a delete shifted row
        #: indices (exact fallback required). ``_events_base`` counts
        #: events trimmed off the front of the window.
        self._events: list[np.ndarray | None] = []
        self._events_base = 0

    # -- state --------------------------------------------------------------

    @property
    def dataset(self):
        """The current :class:`~repro.core.dataset.IncompleteDataset` version."""
        return self._dataset

    @property
    def prepared(self) -> PreparedDataset:
        """The privately owned prepared structures (storage layer included)."""
        return self._prepared

    @property
    def scores(self) -> np.ndarray:
        """Maintained dominated counts, index-aligned with :attr:`dataset`."""
        return self._scores

    @property
    def n(self) -> int:
        return self._dataset.n

    @property
    def d(self) -> int:
        return self._dataset.d

    @property
    def ids(self) -> list[str]:
        return self._dataset.ids

    def __len__(self) -> int:
        return self._dataset.n

    def __contains__(self, object_id: str) -> bool:
        try:
            self._dataset.index_of(object_id)
            return True
        except InvalidParameterError:
            return False

    def score_of(self, object_id: str) -> int:
        """Maintained ``score`` of one live object."""
        return int(self._scores[self._dataset.index_of(object_id)])

    # -- mutations -----------------------------------------------------------

    def insert(self, rows, *, ids: Sequence[str] | None = None) -> list[str]:
        """Insert a batch of rows; returns their ids."""
        from ..core.delta import DatasetDelta

        with telemetry.trace("continuous.insert"):
            delta = DatasetDelta.inserting(self._dataset, rows, ids=ids)
            self._apply(delta)
            n = self._dataset.n  # inserted rows are appended, in order
            return self._dataset.ids_at(range(n - delta.inserted_values.shape[0], n))

    def delete(self, ids: Sequence[str]) -> None:
        """Delete a batch of objects by id."""
        from ..core.delta import DatasetDelta

        with telemetry.trace("continuous.delete"):
            self._apply(DatasetDelta.deleting(self._dataset, ids))

    def update(self, updates: Mapping[str, Sequence]) -> None:
        """Update a batch of objects (full rows or partial dim mappings)."""
        from ..core.delta import DatasetDelta

        with telemetry.trace("continuous.update"):
            self._apply(DatasetDelta.updating(self._dataset, updates))

    def apply(self, delta) -> None:
        """Advance this view by one delta (the engine counts it)."""
        with telemetry.trace("continuous.apply"):
            self._apply(delta)

    def _apply(self, delta) -> None:
        """The body of every write: patch or rebuild, then advance scores."""
        if delta.is_empty:
            return
        child = self._dataset.apply_delta(delta)
        engine = self._engine
        with engine._lock:
            engine.stats.deltas_applied += 1

        rebates = _score_rebates(self._dataset, self._prepared, delta)
        ops = delta.ops
        plan = plan_delta(
            self._prepared.storage_n,
            self._prepared.d,
            inserts=ops["inserts"],
            deletes=ops["deletes"],
            updates=ops["updates"],
            tombstones=self._prepared.tombstones,
            tables_ready=self._prepared.tables_ready,
        )
        if plan.action == "patch":
            new_prepared = self._prepared.patched(
                SentinelDelta.from_delta(delta, self._dataset.directions),
                inplace=self._owned,
            )
            with engine._lock:
                engine.stats.tables_patched += 1
        else:
            new_prepared = PreparedDataset(child)
            if self._prepared.tables_ready:
                new_prepared.tables(build=True)
            with engine._lock:
                engine.stats.tables_rebuilt += 1
        self._owned = True

        new_scores, changed = _advance_scores(
            rebates, self._scores, child, new_prepared, delta
        )
        self._events.append(None if ops["deletes"] else changed)
        if len(self._events) > _MAX_PENDING_EVENTS:
            dropped = len(self._events) - _MAX_PENDING_EVENTS
            del self._events[:dropped]
            self._events_base += dropped  # entries behind the window go stale
        self._dataset = child
        self._prepared = new_prepared
        self._scores = new_scores
        engine._adopt_scores(engine.fingerprint(child), new_scores)

    # -- queries -------------------------------------------------------------

    def subscribe(self, k: int) -> int:
        """Register *k* in this view's multi-k subscription set.

        Many dashboards over one stream ask for different answer sizes;
        subscribed k values share everything below the selection — one
        maintained score vector (the per-delta dominator-mask work is
        paid once regardless of how many k's are live) — and
        :meth:`results` serves them all from one selection at the largest
        k: one boundary check per read, and at most one exact re-rank.
        """
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k <= 0:
            raise InvalidParameterError(f"subscription k must be a positive integer, got {k!r}")
        k = int(k)
        self._subscribed.add(k)
        return k

    def unsubscribe(self, k: int) -> None:
        """Drop *k* from the subscription set (its cached selection too)."""
        self._subscribed.discard(int(k))
        self._selections.pop(int(k), None)

    @property
    def subscriptions(self) -> tuple[int, ...]:
        """The subscribed k values, ascending."""
        return tuple(sorted(self._subscribed))

    def top_k(self, k: int | None = None, *, tie_break: str = "index", rng=None):
        """Current answer as ``(id, score)`` pairs, best first.

        Deterministic (``tie_break="index"``) calls maintain a cached
        selection per k across deltas: when every change since the last
        call stayed strictly below the k-th boundary (and no member lost
        score, no row indices shifted), the membership provably cannot
        have changed and only the ordering is refreshed; anything
        uncertain falls back to one exact selection over the maintained
        vector. A read costs ``O(k + changed rows)``: only the selected
        rows are mapped to ids.
        """
        with telemetry.trace("continuous.read") as span:
            return self._pairs(self._top_rows(k, span, tie_break=tie_break, rng=rng))

    def results(self, *, tie_break: str = "index", rng=None) -> dict[int, list]:
        """Current answers for every subscribed k, as ``{k: pairs}``.

        The multi-k batch read: the canonical top-k is a prefix of the
        canonical top-K, so only the largest subscribed K is selected
        (from its cached selection when that survived the boundary check,
        else by one exact re-rank) and mapped to ``(id, score)`` pairs;
        every smaller k gets its own list sliced from that prefix. The
        read costs ``O(K + changed rows)``, and each returned list is
        independent of the others and of later reads.
        """
        from ..core.result import validate_k

        with telemetry.trace("continuous.read") as span:
            ks = self.subscriptions or ((self._k if self._k is not None else 10),)
            if tie_break != "index":
                return {
                    k: self._pairs(self._top_rows(k, span, tie_break=tie_break, rng=rng))
                    for k in ks
                }
            valid = [validate_k(k, self._dataset.n) for k in ks]
            top = max(valid)
            pairs = self._pairs(self._select_rows(top, span, prefixes=valid))
            return {k: pairs[:kk] for k, kk in zip(ks, valid)}

    def result(self, k: int | None = None):
        """The current answer as a :class:`~repro.core.result.TKDResult`."""
        from ..core.result import TKDResult
        from ..core.stats import QueryStats

        with telemetry.trace("continuous.read") as span:
            rows = self._top_rows(k, span)
            validated = max(rows.size, 1)
            return TKDResult(
                indices=rows.tolist(),
                scores=self._scores[rows].tolist(),
                ids=self._dataset.ids_at(rows),
                k=validated,
                algorithm="incremental",
                stats=QueryStats(
                    algorithm="incremental", n=self._dataset.n, d=self._dataset.d, k=validated
                ),
            )

    def _pairs(self, rows: np.ndarray) -> list[tuple[str, int]]:
        """``(id, score)`` for the given rows only (no copy of every id)."""
        return list(zip(self._dataset.ids_at(rows), self._scores[rows].tolist()))

    def _top_rows(self, k: int | None, span, *, tie_break: str = "index", rng=None) -> np.ndarray:
        """The top-``k`` rows, best first (``k=None``: this view's k, else 10)."""
        from ..core.result import select_top_k, validate_k

        if k is None:
            k = self._k if self._k is not None else 10
        k = validate_k(k, self._dataset.n)
        if tie_break != "index":
            span.set("k", k)
            selection = select_top_k(self._scores, k, tie_break=tie_break, rng=rng)
            return np.asarray(selection, dtype=np.intp)
        return self._select_rows(k, span)

    def _select_rows(self, k: int, span, *, prefixes=()) -> np.ndarray:
        """The canonical top-``k`` rows (``k`` validated), best first.

        Served from the cached selection when no write since could have
        moved it (only the in-set order is refreshed), else from one exact
        selection over the maintained vector. The answer is cached for
        ``k`` and, as its prefix, for every k in *prefixes*.
        """
        from ..core.result import select_top_k

        scores = self._scores
        entry = self._selections.get(k)
        cached = entry is not None and self._entry_safe(entry)
        if cached:
            rows = entry[0]
            rows = rows[np.lexsort((rows, -scores[rows]))]  # refresh in-set order
        else:
            rows = np.asarray(select_top_k(scores, k), dtype=np.intp)
        span.set("k", k).set("cached", cached)
        seen = self._events_base + len(self._events)
        for kk in {k, *prefixes}:
            head = rows[:kk]
            # Canonical order is score-descending: the last row holds the boundary.
            self._selections[kk] = (head, int(scores[head[-1]]), seen)
        self._prune_selections()
        self._trim_events()
        return rows

    def _entry_safe(self, entry: tuple) -> bool:
        """True iff no delta since *entry* was cached could move its top-k.

        ``O(k + changed rows)``, and duplicate changed rows are harmless:
        a changed row landing *on* the boundary is unsafe on either side
        of it (a member that dropped there could lose an index tie-break
        against an excluded row already there; an excluded row that
        reached it could win one), a changed row above it must be a
        member, and a member below it must have changed (it sat at or
        above the boundary when cached), so it lost score.
        """
        rows, boundary, seen = entry
        start = seen - self._events_base
        if start < 0:
            return False  # the event window rolled past this entry
        recent = self._events[start:]
        if not recent:
            return True
        if any(event is None for event in recent):
            return False  # a delete shifted row indices
        scores = self._scores
        if rows.max() >= scores.size or int(scores[rows].min()) < boundary:
            return False
        changed = recent[0] if len(recent) == 1 else np.concatenate(recent)
        values = scores[changed]
        if (values == boundary).any():
            return False
        above = changed[values > boundary]
        members = np.sort(rows)  # k rows: a binary search, not a hash over changed
        slots = np.minimum(np.searchsorted(members, above), members.size - 1)
        return bool((members[slots] == above).all())

    def _prune_selections(self) -> None:
        """Bound the cache: unsubscribed one-off k's yield first."""
        limit = max(8, len(self._subscribed) + 1)
        while len(self._selections) > limit:
            for key in list(self._selections):
                if key not in self._subscribed:
                    del self._selections[key]
                    break
            else:
                break  # everything left is subscribed; keep it all

    def _trim_events(self) -> None:
        """Drop events every cached selection has already absorbed."""
        if not self._selections:
            return
        min_seen = min(seen for _, _, seen in self._selections.values())
        drop = min_seen - self._events_base
        if drop > 0:
            del self._events[:drop]
            self._events_base = min_seen


def _answer_shard(payload: tuple) -> tuple[list, EngineStats, list]:
    """Process-pool worker: answer one shard in a fresh session.

    Runs in a separate process, so every preparation (indexes, queues,
    bitset tables) is rebuilt locally — fork-safe by construction, since
    nothing mutable is shared with the parent. Algorithms arrive already
    resolved (never ``"auto"``), so the answers cannot depend on this
    worker's planner state. When the parent has a store, the worker opens
    the same directory (advisory locking makes the concurrent writers
    safe) and persists its answers as one batch at shard end. When the
    parent exported prepared tables into shared memory, this worker
    attaches the segments its shard references and seeds its dataset
    cache with zero-copy views instead of re-preparing from scratch.
    The payload carries the coordinator's trace context; spans recorded
    here ship back as the third element of the result and re-parent into
    the coordinator's tree.
    """
    shard, store_dir, shm_metas, trace_ctx = payload
    telemetry.begin_remote(trace_ctx)
    engine = QueryEngine(dataset_cache=PreparedDatasetCache(), store=store_dir)
    attached: list[SharedTables] = []
    try:
        if shm_metas:
            for dataset, _k, _algorithm, _options in shard:
                fingerprint = engine.fingerprint(dataset)
                meta = shm_metas.get(fingerprint)
                if meta is None or engine._dataset_cache.peek(fingerprint) is not None:
                    continue
                try:
                    handle = SharedTables.attach(meta)
                except (OSError, ValueError):
                    continue  # segment gone; rebuild locally instead
                attached.append(handle)
                engine._dataset_cache.put(fingerprint, handle.prepared())
        with engine._batched_store_writes():
            answers = [
                engine.query(dataset, k, algorithm=algorithm, **options)
                for dataset, k, algorithm, options in shard
            ]
    finally:
        # The zero-copy views die with the cache; drop our segment refs so
        # the parent's unlink can actually release the memory.
        engine._dataset_cache.clear()
        for handle in attached:
            handle.close()
    return answers, engine.stats, telemetry.end_remote()
