"""repro-lint: project-specific static analysis for the repro engine.

The engine's fast paths rest on invariants a generic linter cannot know:
which attributes a class's lock guards, which global order nested locks
must follow, how a shared-memory segment's unlink responsibility travels
between processes, that kernel entry points must consume the tombstone
live mask, that popcount loops belong to the backend layer, and that
fingerprint/lineage functions must be bit-deterministic across processes.
Each rule here encodes one of those invariants as an AST check, so the
review burden PR 3 paid by hand (lock/lifecycle bugs in
``PreparedDatasetCache``/``_LRU``) is machine-checked from now on.

Rule catalogue (one line each; ``python -m repro_lint --list-rules``):

* **REP001** lock discipline — a guarded attribute read/written outside
  a ``with self._lock`` block (or a guarded module global outside its
  module lock).
* **REP002** lock-order consistency — a static call graph over the
  engine proves every nested acquisition follows one global lock order;
  a cycle is a latent deadlock (the PR 3 class).
* **REP003** shared-memory lifecycle — every created segment must have
  a reachable unlink (or registered/transferred ownership); raw
  ``.close()`` on an attached segment munmaps under live numpy views.
* **REP004** tombstone-awareness — raw bitset-table reads outside the
  live-mask-aware ``PreparedDataset`` wrappers return counts that
  include deleted rows.
* **REP005** backend bypass — popcount-class numpy hot loops outside
  ``backend.py``/``kernels.py`` silently skip the native kernel route.
* **REP006** nondeterminism in identity functions — time, randomness or
  unsorted dict iteration inside fingerprint/digest/lineage code breaks
  cross-process cache keys.
* **REP007** ctypes↔C prototype drift — every embedded C signature in
  ``engine/backend.py`` is cross-checked against its declared
  ``argtypes``/``restype``; drift is silent memory corruption.
* **REP009** raw clock calls — ``time.time()``/``time.perf_counter()``
  (and friends) in the engine layer outside ``engine/telemetry.py``;
  engine timing flows through ``telemetry.clock``/``wall_clock`` so
  spans, metrics and ad-hoc timing all read the same reviewed clocks.
* **REP010** span entry points — every configured public
  ``QueryEngine``/``ContinuousQuery`` read or write entry point must open
  a ``telemetry.trace`` span, so ``--trace`` can explain every call.

Suppressions require a justification::

    risky_line()  # repro-lint: disable=REP005 -- cold path, layering

Run as ``python -m repro_lint src tests benchmarks`` (exit 0 = clean).
"""

from .core import Finding, LintRun, lint_paths, lint_source, RULES
from .ctypes_check import check_ctypes_prototypes, embedded_source_sha

__all__ = [
    "Finding",
    "LintRun",
    "lint_paths",
    "lint_source",
    "RULES",
    "check_ctypes_prototypes",
    "embedded_source_sha",
    "main",
]

__version__ = "1.0"


def main(argv=None) -> int:
    from .__main__ import main as _main

    return _main(argv)
