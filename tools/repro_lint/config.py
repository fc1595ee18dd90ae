"""Project knowledge the checkers are seeded with.

Everything engine-specific lives here so the rule engines in
``rules.py``/``lockorder.py`` stay generic AST machinery.  A class (or
module) appears below because a human audited its locking contract once;
repro-lint's job is to keep that audit true forever.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# REP001 — guarded attribute sets.
#
# ``with self.<lock>:`` must lexically dominate every read/write of the
# listed attributes.  Convention recognised by the checker: a *private*
# method that never acquires the lock is a caller-holds-lock helper and is
# exempt (callers are checked instead); ``__init__``/``__del__`` run under
# single ownership and are exempt.  A class listed here that never defines
# or uses the named lock is skipped entirely — e.g. ``_LRU`` is lock-free
# by design and relies on its owner's lock (``QueryEngine._lock``), so the
# discipline is enforced at the owner.
GUARDED_CLASSES: dict[str, dict] = {
    "MetricsRegistry": {
        "locks": {"_lock"},
        "attrs": {"_counters", "_gauges", "_histograms"},
    },
    "PreparedDatasetCache": {
        "locks": {"_lock"},
        "attrs": {
            "_data",
            "_resident",
            "hits",
            "misses",
            "evictions",
            "resident_hits",
            "resident_misses",
            "resident_evictions",
        },
    },
    "_LRU": {
        "locks": {"_lock"},
        "attrs": {"_data", "hits", "misses", "evictions"},
    },
    "QueryEngine": {
        "locks": {"_lock"},
        "attrs": {
            "_prepared",
            "_results",
            "_scores",
            "_partitioned",
            "_fingerprints",
            "_store_pending",
            "_defer_store_writes",
            "stats",
        },
    },
    "PersistentStore": {
        # ``_locked(exclusive=...)`` wraps flock + self._lock; both forms
        # count as acquiring the store lock.
        "locks": {"_lock", "_locked"},
        "attrs": {"_cached", "_pending_lineage"},
    },
}

# Module-level state guarded by a module-level lock, keyed by file
# basename.  ``_active_backend`` (backend.py) is deliberately absent: its
# single-word read is an intentional benign race documented in-tree.
GUARDED_GLOBALS: dict[str, dict] = {
    "planner.py": {"lock": "_calibration_lock", "names": {"_calibration"}},
    "backend.py": {"lock": "_segments_lock", "names": {"_segments"}},
    "session.py": {"lock": "_pool_lock", "names": {"_pool", "_pool_size"}},
    # ``_enabled`` (telemetry.py) is deliberately absent: the disabled
    # fast path reads one word unlocked, same contract as
    # ``_active_backend``.
    "telemetry.py": {"lock": "_spans_lock", "names": {"_spans", "_spans_dropped"}},
}

# --------------------------------------------------------------------------
# REP002 — lock domains.  Every lock the engine owns maps to one named
# domain; the static call graph must show a single global acquisition
# order between domains (a cycle is a latent deadlock).
SELF_LOCK_DOMAINS: dict[str, str] = {
    "PreparedDatasetCache": "cache",
    "_LRU": "cache",
    "QueryEngine": "engine",
    "PersistentStore": "store",
    "PreparedDataset": "prepared",
    "MetricsRegistry": "telemetry",
}

# ``with self.<attr>:`` lock attributes and, where the attribute alone
# decides the domain, their domain (None = look up the class above).
SELF_LOCK_ATTRS: dict[str, str | None] = {
    "_lock": None,
    "_build_lock": "prepared",
}

# ``with self._locked(...)`` style lock *methods* per class.
SELF_LOCK_METHODS: dict[str, dict[str, str]] = {
    "PersistentStore": {"_locked": "store"},
}

# Module-level locks referenced as bare names (or module attributes).
MODULE_LOCK_DOMAINS: dict[str, str] = {
    "_calibration_lock": "planner",
    "_segments_lock": "shm-registry",
    "_registry_lock": "backend-registry",
    "_native_lock": "native-build",
    "_pool_lock": "pool",
    "_spans_lock": "telemetry-spans",
}

# Receiver-name suffix → class, for resolving ``x.method()`` calls in the
# call graph.  Deliberately suffix-based: ``parent_prepared``,
# ``child_prepared`` etc. all resolve.
RECEIVER_CLASS_HINTS: list[tuple[str, str]] = [
    ("prepared", "PreparedDataset"),
    ("store", "PersistentStore"),
    ("cache", "PreparedDatasetCache"),
    ("engine", "QueryEngine"),
]

# --------------------------------------------------------------------------
# REP003 — shared-memory lifecycle.
#
# Registries that adopt unlink responsibility: assigning the created
# segment into one of these names counts as pairing it with an unlink
# (``shutdown_shared``/``unlink_shared`` drain them).
SHM_REGISTRIES = {"_segments"}
# Functions allowed to call raw ``.close()`` on a segment (the one
# documented safe wrapper).
SHM_CLOSE_ALLOWED_FUNCS = {"_close_quiet"}
# Receiver names that denote a raw SharedMemory handle for the
# raw-close rule.
SHM_HANDLE_NAMES = {"shm"}

# --------------------------------------------------------------------------
# REP004 — tombstone-awareness.  Raw ``_BitsetTables`` reads bypass the
# live mask; only the wrapper layer and the backend dispatchers may touch
# them.
RAW_TABLE_METHODS = {"dominated_block_bits", "dominator_block_bits", "_accumulators"}
RAW_TABLE_CLASS = "_BitsetTables"
TOMBSTONE_EXEMPT_CLASSES = {"PreparedDataset", "_BitsetTables"}
TOMBSTONE_EXEMPT_BASENAMES = {"backend.py", "kernels.py"}

# --------------------------------------------------------------------------
# REP005 — backend bypass.  Popcount-class numpy attributes that belong to
# the backend layer.
BACKEND_ONLY_NUMPY_ATTRS = {"bitwise_count"}
BACKEND_BASENAMES = {"backend.py", "kernels.py"}

# --------------------------------------------------------------------------
# REP006 — identity functions must be deterministic.
IDENTITY_FUNC_RE = r"fingerprint|digest|lineage|canonical"
# (module alias, attribute-or-None) pairs: None = any attribute of the
# module is forbidden.
NONDET_MODULE_CALLS: dict[str, frozenset | None] = {
    "time": frozenset({"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}),
    "random": None,
    "uuid": frozenset({"uuid1", "uuid4"}),
    "secrets": None,
}
NONDET_OS_CALLS = {"urandom"}
# np.random.* / numpy.random.*
NONDET_NUMPY_ALIASES = {"np", "numpy"}
DICT_ITER_ATTRS = {"items", "values", "keys"}

# --------------------------------------------------------------------------
# REP009 — raw clock calls belong to the telemetry module.
#
# Engine-layer timing must flow through ``telemetry.clock`` /
# ``telemetry.wall_clock`` so every duration a span or metric reports
# came off the same clocks — and so clock choice (monotonic vs epoch) is
# a reviewed, one-place decision rather than a per-call-site accident.
RAW_CLOCK_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
    }
)
# The one sanctioned home of raw ``time.*`` calls in the engine layer.
RAW_CLOCK_ALLOWED_BASENAMES = {"telemetry.py"}
# Only the engine package carries the invariant (CLI, experiments and
# bitmap codec timing are presentation-layer and exempt).
RAW_CLOCK_PART_NAMES = {"engine"}

# --------------------------------------------------------------------------
# REP010 — public read and write entry points open a span.
#
# ``--trace`` can explain a call only if the call opens a span: a public
# entry point without one leaves its work unattributed, or scatters its
# children into separate roots. Each listed method must contain a
# ``with telemetry.trace(...)`` (or ``with trace(...)``) block.
SPAN_ENTRY_POINTS: dict[str, frozenset] = {
    "QueryEngine": frozenset({"query", "query_many", "apply_delta", "scores"}),
    "ContinuousQuery": frozenset(
        {"insert", "delete", "update", "apply", "top_k", "results", "result"}
    ),
}
SPAN_OPENERS = frozenset({"trace", "telemetry.trace"})
SPAN_ENTRY_PART_NAMES = {"engine"}

# --------------------------------------------------------------------------
# Path scoping helpers (posix-style parts).
SKIP_DIR_NAMES = {"__pycache__", ".git", ".ruff_cache", ".mypy_cache", "build", "dist"}
NON_ENGINE_PART_NAMES = {"tests", "benchmarks"}


def is_engine_source(parts: tuple[str, ...]) -> bool:
    """True for paths that carry engine-layer invariants (not tests/benchmarks)."""
    return not any(p in NON_ENGINE_PART_NAMES for p in parts)
