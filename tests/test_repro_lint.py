"""Self-tests for the repro-lint static-analysis package.

Every rule is exercised against a known-bad snippet (must fire) and a
known-good one (must stay silent), plus the two project-wide passes: the
lock-order call graph (REP002) and the ctypes↔C prototype cross-check
(REP007) — the latter also against the *real* ``engine/backend.py``,
asserting every embedded declaration is verified.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro_lint import lint_source, lint_paths, embedded_source_sha
from repro_lint.core import SourceFile
from repro_lint.ctypes_check import (
    check_ctypes_prototypes,
    parse_c_signatures,
    verified_declarations,
)

REPO = Path(__file__).resolve().parent.parent
ENGINE_PATH = "src/repro/engine/session.py"  # engine-scoped fixture path


def codes(findings):
    return sorted({f.code for f in findings})


# =========================================================================
# REP001 — lock discipline
# =========================================================================

BAD_REP001_CLASS = '''
import threading

class PreparedDatasetCache:
    def __init__(self):
        self._lock = threading.RLock()
        self._data = {}
        self.hits = 0

    def get(self, key):
        with self._lock:
            return self._data.get(key)

    def peek(self, key):
        return self._data.get(key)  # unguarded read
'''

GOOD_REP001_CLASS = BAD_REP001_CLASS.replace(
    "    def peek(self, key):\n        return self._data.get(key)  # unguarded read\n",
    "    def peek(self, key):\n        with self._lock:\n            return self._data.get(key)\n",
)


def test_rep001_fires_on_unguarded_attribute():
    findings = lint_source(BAD_REP001_CLASS, ENGINE_PATH, selected={"REP001"})
    assert codes(findings) == ["REP001"]
    assert any("peek" in f.message and "_data" in f.message for f in findings)


def test_rep001_silent_when_guarded():
    assert lint_source(GOOD_REP001_CLASS, ENGINE_PATH, selected={"REP001"}) == []


def test_rep001_private_helper_without_acquire_is_callers_problem():
    snippet = BAD_REP001_CLASS.replace("def peek", "def _peek")
    assert lint_source(snippet, ENGINE_PATH, selected={"REP001"}) == []


def test_rep001_lock_free_class_is_skipped():
    # _LRU is lock-free by design: discipline is enforced at the owner.
    snippet = '''
class _LRU:
    def __init__(self):
        self._data = {}

    def get(self, key):
        return self._data.get(key)
'''
    assert lint_source(snippet, ENGINE_PATH, selected={"REP001"}) == []


BAD_REP001_GLOBAL = '''
import threading

_calibration_lock = threading.RLock()
_calibration = {}

def update_bias(key, value):
    _calibration[key] = value  # unguarded write to a guarded global
'''


def test_rep001_fires_on_unguarded_module_global():
    findings = lint_source(
        BAD_REP001_GLOBAL, "src/repro/engine/planner.py", selected={"REP001"}
    )
    assert codes(findings) == ["REP001"]
    assert "_calibration" in findings[0].message


def test_rep001_silent_on_guarded_module_global():
    good = BAD_REP001_GLOBAL.replace(
        "    _calibration[key] = value  # unguarded write to a guarded global",
        "    with _calibration_lock:\n        _calibration[key] = value",
    )
    assert lint_source(good, "src/repro/engine/planner.py", selected={"REP001"}) == []


def test_rep001_local_shadow_is_not_the_global():
    snippet = '''
import threading

_calibration_lock = threading.RLock()
_calibration = {}

def snapshot():
    _calibration = {}  # local shadow, never the module global
    return _calibration
'''
    assert lint_source(snippet, "src/repro/engine/planner.py", selected={"REP001"}) == []


# =========================================================================
# REP002 — lock-order consistency
# =========================================================================

BAD_REP002 = '''
import threading

_pool_lock = threading.Lock()
_calibration_lock = threading.RLock()

def grow_pool():
    with _pool_lock:
        with _calibration_lock:
            pass

def calibrate():
    with _calibration_lock:
        _refresh()

def _refresh():
    with _pool_lock:
        pass
'''


def test_rep002_fires_on_inversion_through_call_graph():
    findings = lint_source(BAD_REP002, "src/repro/engine/example.py", selected={"REP002"})
    assert codes(findings) == ["REP002"]
    message = findings[0].message
    assert "planner" in message and "pool" in message and "witness" in message


def test_rep002_silent_on_consistent_order():
    good = BAD_REP002.replace(
        "def calibrate():\n    with _calibration_lock:\n        _refresh()",
        "def calibrate():\n    with _calibration_lock:\n        pass",
    )
    assert lint_source(good, "src/repro/engine/example.py", selected={"REP002"}) == []


def test_rep002_same_domain_reentrancy_is_not_a_cycle():
    snippet = '''
import threading

_pool_lock = threading.Lock()

def a():
    with _pool_lock:
        b()

def b():
    with _pool_lock:
        pass
'''
    assert lint_source(snippet, "src/repro/engine/example.py", selected={"REP002"}) == []


# =========================================================================
# REP003 — shared-memory lifecycle
# =========================================================================

BAD_REP003_CREATE = '''
from multiprocessing import shared_memory

def export(payload):
    shm = shared_memory.SharedMemory(create=True, size=len(payload))
    shm.buf[: len(payload)] = payload
    return shm.name
'''

GOOD_REP003_CREATE = '''
from multiprocessing import shared_memory

def export(payload):
    shm = shared_memory.SharedMemory(create=True, size=len(payload))
    try:
        shm.buf[: len(payload)] = payload
        return bytes(shm.buf)
    finally:
        shm.unlink()
'''


def test_rep003_fires_on_unpaired_create():
    findings = lint_source(BAD_REP003_CREATE, ENGINE_PATH, selected={"REP003"})
    assert codes(findings) == ["REP003"]
    assert "unlink" in findings[0].message


def test_rep003_silent_when_unlink_paired():
    # the paired form still raw-closes nothing, so only the create rule runs
    assert lint_source(GOOD_REP003_CREATE, ENGINE_PATH, selected={"REP003"}) == []


def test_rep003_registry_adoption_counts_as_pairing():
    snippet = '''
from multiprocessing import shared_memory

_segments = {}

def export(payload):
    shm = shared_memory.SharedMemory(create=True, size=len(payload))
    _segments[shm.name] = shm
    return shm.name
'''
    assert lint_source(snippet, ENGINE_PATH, selected={"REP003"}) == []


def test_rep003_owner_false_transfers_unlink_responsibility():
    snippet = '''
def export(prepared):
    tables = SharedTables.create(prepared, owner=False)
    return tables.name
'''
    assert lint_source(snippet, ENGINE_PATH, selected={"REP003"}) == []


def test_rep003_flags_raw_close_on_attached_segment():
    snippet = '''
from multiprocessing import shared_memory

def attach(name):
    shm = shared_memory.SharedMemory(name=name)
    data = bytes(shm.buf)
    shm.close()
    return data
'''
    findings = lint_source(snippet, ENGINE_PATH, selected={"REP003"})
    assert codes(findings) == ["REP003"]
    assert "close" in findings[0].message


def test_rep003_close_quiet_wrapper_is_exempt():
    snippet = '''
def _close_quiet(shm):
    try:
        shm.close()
    except OSError:
        pass
'''
    assert lint_source(snippet, ENGINE_PATH, selected={"REP003"}) == []


# =========================================================================
# REP004 — tombstone-awareness
# =========================================================================

BAD_REP004 = '''
def broken_counts(tables, lo, hi):
    return tables.dominated_block_bits(lo, hi)
'''


def test_rep004_fires_on_raw_table_access():
    findings = lint_source(BAD_REP004, "src/repro/engine/session.py", selected={"REP004"})
    assert codes(findings) == ["REP004"]
    assert "live" in findings[0].message


def test_rep004_wrapper_layer_is_exempt():
    snippet = '''
class PreparedDataset:
    def dominated_counts(self, lo, hi):
        return self._tables.dominated_block_bits(lo, hi)
'''
    assert lint_source(snippet, "src/repro/engine/session.py", selected={"REP004"}) == []


def test_rep004_kernels_and_backend_files_are_exempt():
    assert lint_source(BAD_REP004, "src/repro/engine/kernels.py", selected={"REP004"}) == []
    assert lint_source(BAD_REP004, "src/repro/engine/backend.py", selected={"REP004"}) == []


def test_rep004_tests_are_out_of_scope():
    assert lint_source(BAD_REP004, "tests/test_x.py", selected={"REP004"}) == []


# =========================================================================
# REP005 — backend bypass
# =========================================================================

BAD_REP005 = '''
import numpy as np

def hot_counts(words):
    return np.bitwise_count(words).sum(axis=1)
'''


def test_rep005_fires_outside_backend_layer():
    findings = lint_source(BAD_REP005, "src/repro/engine/partition.py", selected={"REP005"})
    assert codes(findings) == ["REP005"]


def test_rep005_backend_files_are_exempt():
    assert lint_source(BAD_REP005, "src/repro/engine/backend.py", selected={"REP005"}) == []
    assert lint_source(BAD_REP005, "src/repro/engine/kernels.py", selected={"REP005"}) == []


def test_rep005_suppression_with_justification():
    suppressed = BAD_REP005.replace(
        "    return np.bitwise_count(words).sum(axis=1)",
        "    # repro-lint: disable=REP005 -- cold path below the backend layer\n"
        "    return np.bitwise_count(words).sum(axis=1)",
    )
    assert lint_source(suppressed, "src/repro/engine/partition.py", selected={"REP005"}) == []


def test_suppression_without_justification_is_itself_a_finding():
    unjustified = BAD_REP005.replace(
        "    return np.bitwise_count(words).sum(axis=1)",
        "    return np.bitwise_count(words).sum(axis=1)  # repro-lint: disable=REP005",
    )
    findings = lint_source(unjustified, "src/repro/engine/partition.py", selected={"REP005"})
    assert codes(findings) == ["REP000", "REP005"]


# =========================================================================
# REP006 — nondeterminism in identity functions
# =========================================================================


def test_rep006_fires_on_time_in_fingerprint():
    snippet = '''
import time

def dataset_fingerprint(rows):
    return hash((tuple(rows), time.time()))
'''
    findings = lint_source(snippet, "src/repro/core/dataset.py", selected={"REP006"})
    assert codes(findings) == ["REP006"]
    assert "time.time" in findings[0].message


def test_rep006_fires_on_unsorted_dict_iteration():
    snippet = '''
def lineage_digest(ops):
    parts = [f"{k}={v}" for k, v in ops.items()]
    return "|".join(parts)
'''
    findings = lint_source(snippet, "src/repro/engine/store.py", selected={"REP006"})
    assert codes(findings) == ["REP006"]
    assert "sorted" in findings[0].message


def test_rep006_sorted_dict_iteration_is_fine():
    snippet = '''
def lineage_digest(ops):
    parts = [f"{k}={v}" for k, v in sorted(ops.items())]
    return "|".join(parts)
'''
    assert lint_source(snippet, "src/repro/engine/store.py", selected={"REP006"}) == []


def test_rep006_fires_on_random_in_digest():
    snippet = '''
import random

def shard_digest(shard):
    return f"{shard}-{random.random()}"
'''
    findings = lint_source(snippet, "src/repro/engine/partition.py", selected={"REP006"})
    assert codes(findings) == ["REP006"]


def test_rep006_non_identity_functions_out_of_scope():
    snippet = '''
import time

def measure(rows):
    return time.time()
'''
    assert lint_source(snippet, "src/repro/engine/planner.py", selected={"REP006"}) == []


# =========================================================================
# REP009 — raw clock calls outside the telemetry module
# =========================================================================

BAD_REP009 = '''
import time

def measure(block):
    start = time.perf_counter()
    block()
    return time.perf_counter() - start
'''

GOOD_REP009 = '''
from .telemetry import clock as _clock

def measure(block):
    start = _clock()
    block()
    return _clock() - start
'''


def test_rep009_fires_on_raw_clock_in_engine_layer():
    findings = lint_source(BAD_REP009, "src/repro/engine/session.py", selected={"REP009"})
    assert codes(findings) == ["REP009"]
    assert len(findings) == 2  # both call sites, one finding each
    assert "telemetry" in findings[0].message


def test_rep009_fires_on_from_time_import():
    snippet = "from time import perf_counter\n"
    findings = lint_source(snippet, "src/repro/engine/kernels.py", selected={"REP009"})
    assert codes(findings) == ["REP009"]


def test_rep009_telemetry_module_is_the_sanctioned_home():
    assert lint_source(BAD_REP009, "src/repro/engine/telemetry.py", selected={"REP009"}) == []


def test_rep009_clock_aliases_are_fine():
    assert lint_source(GOOD_REP009, "src/repro/engine/partition.py", selected={"REP009"}) == []


def test_rep009_out_of_scope_outside_engine_layer():
    # Presentation layers (CLI, experiments) and tests/benchmarks keep
    # their raw clocks; the invariant binds the engine package only.
    assert lint_source(BAD_REP009, "src/repro/cli.py", selected={"REP009"}) == []
    assert lint_source(BAD_REP009, "tests/test_engine_session.py", selected={"REP009"}) == []
    assert lint_source(BAD_REP009, "benchmarks/bench_engine_native.py", selected={"REP009"}) == []


def test_rep009_time_dot_time_also_flagged():
    snippet = '''
import time

def entry_age(entry):
    return time.time() - entry["created"]
'''
    findings = lint_source(snippet, "src/repro/engine/store.py", selected={"REP009"})
    assert codes(findings) == ["REP009"]
    assert "wall_clock" in findings[0].message


# =========================================================================
# REP010 — public entry points open a span
# =========================================================================

GOOD_REP010 = '''
from . import telemetry
from .telemetry import trace


class QueryEngine:
    def query(self, dataset, k):
        with telemetry.trace("engine.query") as root:
            return self._answer(dataset, k, root)

    def query_many(self, requests):
        if not requests:
            raise ValueError("empty")
        with telemetry.trace("engine.query_many"):
            return [self.query(*r) for r in requests]

    def apply_delta(self, dataset, delta):
        with self._lock, trace("engine.apply_delta"):
            return dataset.apply_delta(delta)

    def scores(self, dataset):
        with telemetry.trace("engine.scores"):
            return self._scores(dataset)


class ContinuousQuery:
    def insert(self, rows):
        with telemetry.trace("continuous.insert"):
            self._apply(rows)

    def delete(self, ids):
        with telemetry.trace("continuous.delete"):
            self._apply(ids)

    def update(self, updates):
        with telemetry.trace("continuous.update"):
            self._apply(updates)

    def apply(self, delta):
        with telemetry.trace("continuous.apply"):
            self._apply(delta)

    def top_k(self, k=None):
        with telemetry.trace("continuous.read"):
            return self._rows(k)

    def results(self):
        with telemetry.trace("continuous.read"):
            return {}

    def result(self, k=None):
        with telemetry.trace("continuous.read"):
            return self._rows(k)

    def subscribe(self, k):  # not an entry point: no span needed
        return k
'''


def test_rep010_every_configured_entry_point_with_a_span_is_clean():
    assert lint_source(GOOD_REP010, "src/repro/engine/session.py", selected={"REP010"}) == []


def test_rep010_fires_on_an_entry_point_without_a_span():
    bad = GOOD_REP010.replace(
        '''        with telemetry.trace("continuous.read"):
            return {}''',
        "        return {}",
    )
    findings = lint_source(bad, "src/repro/engine/session.py", selected={"REP010"})
    assert codes(findings) == ["REP010"]
    assert "ContinuousQuery.results" in findings[0].message


def test_rep010_span_in_a_nested_function_does_not_count():
    bad = GOOD_REP010.replace(
        '''    def scores(self, dataset):
        with telemetry.trace("engine.scores"):
            return self._scores(dataset)''',
        '''    def scores(self, dataset):
        def later():
            with telemetry.trace("engine.scores"):
                return self._scores(dataset)
        return later''',
    )
    findings = lint_source(bad, "src/repro/engine/session.py", selected={"REP010"})
    assert codes(findings) == ["REP010"]
    assert "QueryEngine.scores" in findings[0].message


def test_rep010_a_configured_entry_point_that_is_gone_is_reported():
    bad = GOOD_REP010.replace("    def apply(self, delta):", "    def _apply_renamed(self, delta):")
    findings = lint_source(bad, "src/repro/engine/session.py", selected={"REP010"})
    assert codes(findings) == ["REP010"]
    assert "ContinuousQuery.apply" in findings[0].message and "SPAN_ENTRY_POINTS" in findings[0].message


def test_rep010_out_of_scope_outside_engine_layer():
    bad = GOOD_REP010.replace("telemetry.trace(", "open(").replace(" trace(", " open(")
    assert len(lint_source(bad, "src/repro/engine/session.py", selected={"REP010"})) == 11
    assert lint_source(bad, "tests/test_engine_session.py", selected={"REP010"}) == []
    assert lint_source(bad, "src/repro/cli.py", selected={"REP010"}) == []


# =========================================================================
# REP007 — ctypes↔C prototype checking
# =========================================================================

CTYPES_TEMPLATE = '''
import ctypes

_C_SOURCE = r"""
#define API __attribute__((visibility("default")))
API void demo_fill(const uint64_t *words, int64_t n, int32_t mode,
                   const uint64_t **extra) {{ }}
"""

def _declare(lib):
    c_i32, c_i64, c_vp = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    c_vpp = ctypes.POINTER(c_vp)
    lib.demo_fill.argtypes = ({argtypes})
    lib.demo_fill.restype = {restype}
'''


def _ctypes_findings(argtypes: str, restype: str = "None"):
    source = CTYPES_TEMPLATE.format(argtypes=argtypes, restype=restype)
    sf = SourceFile.from_text(source, "src/repro/engine/backend.py")
    return check_ctypes_prototypes(sf)


def test_ctypes_checker_accepts_matching_declaration():
    assert _ctypes_findings("c_vp, c_i64, c_i32, c_vpp") == []


def test_ctypes_checker_flags_arity_mismatch():
    findings = _ctypes_findings("c_vp, c_i64, c_i32")
    assert codes(findings) == ["REP007"]
    assert "arity" in findings[0].message


def test_ctypes_checker_flags_width_mismatch():
    findings = _ctypes_findings("c_vp, c_i32, c_i32, c_vpp")
    assert codes(findings) == ["REP007"]
    assert "arg 1" in findings[0].message


def test_ctypes_checker_flags_wrong_restype():
    findings = _ctypes_findings("c_vp, c_i64, c_i32, c_vpp", restype="c_i32")
    assert codes(findings) == ["REP007"]
    assert "void" in findings[0].message


def test_ctypes_checker_flags_missing_declaration():
    source = CTYPES_TEMPLATE.format(argtypes="c_vp,", restype="None").replace(
        "lib.demo_fill.argtypes", "lib.other_fn.argtypes"
    ).replace("lib.demo_fill.restype", "lib.other_fn.restype")
    sf = SourceFile.from_text(source, "src/repro/engine/backend.py")
    findings = check_ctypes_prototypes(sf)
    messages = " ".join(f.message for f in findings)
    assert "demo_fill" in messages and "other_fn" in messages


def test_real_backend_declarations_all_verified():
    """Every embedded C function in engine/backend.py has a fully checked
    argtypes tuple + restype, and the cross-check is clean."""
    backend = REPO / "src" / "repro" / "engine" / "backend.py"
    sf = SourceFile.from_text(backend.read_text(), backend.as_posix())
    assert check_ctypes_prototypes(sf) == []

    report = verified_declarations(backend)
    assert len(report) == 4  # three kernels + the build-flags query
    for entry in report:
        assert entry["py_args"] is not None, entry
        assert len(entry["py_args"]) == len(entry["c_args"]), entry
        assert entry["restype_checked"], entry
    # each argument position plus each restype is one verified declaration
    assert sum(e["declarations"] for e in report) == 27


def test_real_backend_parses_all_exported_functions():
    backend = REPO / "src" / "repro" / "engine" / "backend.py"
    sf = SourceFile.from_text(backend.read_text(), backend.as_posix())
    from repro_lint.ctypes_check import extract_declarations

    c_source, _ = extract_declarations(sf)
    sigs = parse_c_signatures(c_source)
    assert sorted(sigs) == [
        "repro_build_flags",
        "repro_fused_bits",
        "repro_fused_counts",
        "repro_popcount_rows",
    ]
    # (void) parameter lists parse to empty arg tuples, not a '?void' arg
    assert sigs["repro_build_flags"] == {"ret": "int32_t", "args": []}


def test_embedded_source_sha_is_stable():
    backend = REPO / "src" / "repro" / "engine" / "backend.py"
    sha1 = embedded_source_sha(backend)
    sha2 = embedded_source_sha(backend)
    assert sha1 == sha2 and len(sha1) == 64


def test_ctypes_checker_flags_wrong_return_width():
    source = '''
import ctypes

_C_SOURCE = r"""
#define API __attribute__((visibility("default")))
API int32_t demo_level(void) { return 0; }
"""

def _declare(lib):
    c_i32, c_i64 = ctypes.c_int32, ctypes.c_int64
    lib.demo_level.argtypes = ()
    lib.demo_level.restype = c_i64
'''
    sf = SourceFile.from_text(source, "src/repro/engine/backend.py")
    findings = check_ctypes_prototypes(sf)
    assert codes(findings) == ["REP007"]
    assert "int32_t" in findings[0].message and "i64" in findings[0].message


# =========================================================================
# End-to-end: the real tree is clean, and the CLI contract holds
# =========================================================================


def test_real_tree_is_clean():
    run = lint_paths([REPO / "src"])
    assert run.findings == [], "\n".join(f.render() for f in run.findings)
    assert run.files_scanned > 20


def test_cli_exit_codes(tmp_path):
    env_tools = str(REPO / "tools")
    clean = subprocess.run(
        [sys.executable, "-m", "repro_lint", "src"],
        cwd=REPO,
        env={"PYTHONPATH": env_tools, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr

    bad = tmp_path / "src" / "repro" / "engine" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(BAD_REP005)
    dirty = subprocess.run(
        [sys.executable, "-m", "repro_lint", str(tmp_path)],
        cwd=REPO,
        env={"PYTHONPATH": env_tools, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert dirty.returncode == 1
    assert "REP005" in dirty.stdout

    usage = subprocess.run(
        [sys.executable, "-m", "repro_lint"],
        cwd=REPO,
        env={"PYTHONPATH": env_tools, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2


def test_cli_list_rules_covers_catalogue():
    result = subprocess.run(
        [sys.executable, "-m", "repro_lint", "--list-rules"],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "tools"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    for code in [
        "REP001",
        "REP002",
        "REP003",
        "REP004",
        "REP005",
        "REP006",
        "REP007",
        "REP009",
        "REP010",
    ]:
        assert code in result.stdout


def test_parse_error_is_reported_not_crash(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    run = lint_paths([tmp_path])
    assert [f.code for f in run.findings] == ["PARSE"]
