"""Pluggable kernel backends and zero-copy shared-memory prepared tables.

Two independent accelerations for the engine's bottom layer live here:

**Kernel backends.** Every hot loop in :mod:`repro.engine.kernels` — the
per-row popcount, the prefix/suffix accumulator AND-reduction behind
``dominated_block_bits``/``dominator_block_bits``, and
``foreign_dominated_counts`` — dispatches
through a process-global :class:`KernelBackend`. Two implementations are
registered:

* ``numpy`` — the portable route, always available: exactly the
  vectorised numpy code the kernels module has always run.
* ``native`` — a small C kernel library embedded below, compiled once per
  machine with the system C compiler (``cc -O3 -fPIC -shared``) into a
  source-hash-keyed cache and loaded through :mod:`ctypes`. No third-party
  build dependency: if no compiler is present (or the compile fails) the
  numpy route silently serves instead. The win is *fusion*: one C pass
  performs the ``2·d`` row gathers, the packed ANDs, the live-mask AND
  and the popcount that numpy executes as separate full-width
  temporaries. Each hot kernel is one portable C function; on x86-64
  the compiler clones it into baseline and AVX2 bodies and the loader
  picks one for the CPU, so one ``.so`` serves every host. Every pass
  runs single-threaded on the calling thread.

Both backends are bit-identical by construction (the parity suite in
``tests/test_engine_backend.py`` enforces it), so selection —
``REPRO_BACKEND=numpy|native|auto`` or ``QueryEngine(backend=...)`` —
only ever changes speed, never answers. ``auto`` consults the planner's
persisted per-backend calibration (:func:`repro.engine.planner.backend_speedup`)
and measures once per machine when no observation exists.

**Shared-memory prepared tables.** :class:`SharedTables` places one
:class:`~repro.engine.kernels.PreparedDataset`'s storage arrays (sentinel
bounds, packed rank tables, distinct column values) into a single
:mod:`multiprocessing.shared_memory` segment. Pool workers *attach* by
name and rebuild the prepared view zero-copy (``PreparedDataset.from_state``
over ndarray views of the segment) instead of unpickling the payload
per task. Lifecycle is refcounted per process with crash-safe
atexit cleanup; the parent that adopts a segment unlinks it when the
query finishes, so ``/dev/shm`` never accumulates stale entries.
Attached instances are read-only views — never patch them in place.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from multiprocessing import shared_memory

import numpy as np

from ..errors import InvalidParameterError
from . import telemetry
from ._lockcheck import make_lock
from .telemetry import clock as _clock

try:  # CPython's POSIX shared-memory primitive (always present on Linux).
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX platforms
    _posixshmem = None

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "NativeBackend",
    "available_backends",
    "native_available",
    "native_build_error",
    "native_build_mode",
    "simd_route",
    "native_threads",
    "select_backend",
    "get_backend",
    "use_backend",
    "measure_backend_speedup",
    "SharedTables",
    "unlink_shared",
    "shared_segment_names",
    "shutdown_shared",
]

_DIRECTIONS = {"dominated": 0, "dominator": 1}

# ---------------------------------------------------------------------------
# Embedded native kernels
# ---------------------------------------------------------------------------

#: The entire native kernel library: plain C99 plus GCC builtins and
#: attributes, so any system compiler can build it. Each hot kernel family
#: is one portable function compiled at ``-O3`` with the vectoriser on. On
#: x86-64 GNU toolchains ``target_clones`` additionally emits an AVX2 body
#: next to the baseline one and an ifunc resolver picks between them at
#: load time, so the cached ``.so`` stays baseline-ISA portable across
#: hosts that share a cache (hence no ``-march=native``: the cache key
#: does not include the CPU). ``-DREPRO_NO_CLONES`` gates the clones out
#: for toolchains that cannot build them.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define API __attribute__((visibility("default")))

#if !defined(REPRO_NO_CLONES) && defined(__x86_64__) && defined(__GNUC__)
#define REPRO_CLONES 1
#define KERNEL static __attribute__((target_clones("default", "avx2")))
#else
#define KERNEL static
#endif

/* SWAR popcount: branch-free and ISA-baseline, so the default clone and
 * clone-free builds need no libgcc call per word; GCC folds it to the
 * POPCNT instruction in the avx2 clone. */
static inline int64_t popcnt64(uint64_t x) {
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int64_t)((x * 0x0101010101010101ULL) >> 56);
}

/* Per-row popcount of a (b, W) uint64 matrix. */
KERNEL void popcount_rows(const uint64_t *words, int64_t b, int64_t w,
                          int64_t *out) {
    for (int64_t i = 0; i < b; ++i) {
        const uint64_t *row = words + i * w;
        int64_t acc = 0;
        for (int64_t j = 0; j < w; ++j)
            acc += popcnt64(row[j]);
        out[i] = acc;
    }
}

/* Fused accumulator counts: for each query row gather one suffix row and
 * one prefix row per dimension (ranks precomputed by searchsorted), AND
 * them down, combine per direction, AND the live mask, popcount — one
 * pass, no (b, W) temporaries.  mode 0: dominated = le & ~nlt; mode 1:
 * dominator = nlt & ~le.  Callers guarantee d >= 1. */
KERNEL void fused_counts(const uint64_t **suffix, const uint64_t **prefix,
                         const int64_t *rank_ge, const int64_t *rank_le,
                         const uint64_t *live, int64_t b, int64_t d,
                         int64_t w, int32_t mode, int64_t *out) {
    const uint64_t *srow[d];
    const uint64_t *prow[d];
    for (int64_t i = 0; i < b; ++i) {
        for (int64_t dim = 0; dim < d; ++dim) {
            srow[dim] = suffix[dim] + rank_ge[i * d + dim] * w;
            prow[dim] = prefix[dim] + rank_le[i * d + dim] * w;
        }
        int64_t acc = 0;
        if (d == 4) {
            /* The paper's workhorse dimensionality: full unroll keeps
             * all 8 row pointers in registers. */
            const uint64_t *s0 = srow[0], *s1 = srow[1];
            const uint64_t *s2 = srow[2], *s3 = srow[3];
            const uint64_t *p0 = prow[0], *p1 = prow[1];
            const uint64_t *p2 = prow[2], *p3 = prow[3];
            for (int64_t j = 0; j < w; ++j) {
                uint64_t le = s0[j] & s1[j] & s2[j] & s3[j];
                uint64_t nlt = p0[j] & p1[j] & p2[j] & p3[j];
                uint64_t word = mode ? (nlt & ~le) : (le & ~nlt);
                if (live) word &= live[j];
                acc += popcnt64(word);
            }
        } else {
            for (int64_t j = 0; j < w; ++j) {
                uint64_t le = srow[0][j];
                uint64_t nlt = prow[0][j];
                for (int64_t dim = 1; dim < d; ++dim) {
                    le &= srow[dim][j];
                    nlt &= prow[dim][j];
                }
                uint64_t word = mode ? (nlt & ~le) : (le & ~nlt);
                if (live) word &= live[j];
                acc += popcnt64(word);
            }
        }
        out[i] = acc;
    }
}

/* Fused accumulator rows: the same gather + AND + combine, emitting the
 * packed rows (mask routes).  Callers guarantee d >= 1. */
KERNEL void fused_bits(const uint64_t **suffix, const uint64_t **prefix,
                       const int64_t *rank_ge, const int64_t *rank_le,
                       int64_t b, int64_t d, int64_t w, int32_t mode,
                       uint64_t *out) {
    const uint64_t *srow[d];
    const uint64_t *prow[d];
    for (int64_t i = 0; i < b; ++i) {
        for (int64_t dim = 0; dim < d; ++dim) {
            srow[dim] = suffix[dim] + rank_ge[i * d + dim] * w;
            prow[dim] = prefix[dim] + rank_le[i * d + dim] * w;
        }
        uint64_t *dst = out + i * w;
        for (int64_t j = 0; j < w; ++j) {
            uint64_t le = srow[0][j];
            uint64_t nlt = prow[0][j];
            for (int64_t dim = 1; dim < d; ++dim) {
                le &= srow[dim][j];
                nlt &= prow[dim][j];
            }
            dst[j] = mode ? (nlt & ~le) : (le & ~nlt);
        }
    }
}

/* What this build carries: bit 0 = compiler clones. */
API int32_t repro_build_flags(void) {
#if defined(REPRO_CLONES)
    return 1;
#else
    return 0;
#endif
}

/* ------------------------------------------------------------------ */
/* Public kernel entry points.                                         */
/* ------------------------------------------------------------------ */

/* Per-row popcount of a (b, W) uint64 matrix. */
API void repro_popcount_rows(const uint64_t *words, int64_t b, int64_t w,
                             int64_t *out) {
    if (b <= 0)
        return;
    if (w <= 0) {
        memset(out, 0, (size_t)b * sizeof(int64_t));
        return;
    }
    popcount_rows(words, b, w, out);
}

/* Fused accumulator counts (see fused_counts). */
API void repro_fused_counts(const uint64_t **suffix, const uint64_t **prefix,
                            const int64_t *rank_ge, const int64_t *rank_le,
                            const uint64_t *live, int64_t b, int64_t d,
                            int64_t w, int32_t mode, int64_t *out) {
    if (b <= 0)
        return;
    if (d <= 0) {
        memset(out, 0, (size_t)b * sizeof(int64_t));
        return;
    }
    fused_counts(suffix, prefix, rank_ge, rank_le, live, b, d, w, mode, out);
}

/* Fused accumulator rows (see fused_bits). */
API void repro_fused_bits(const uint64_t **suffix, const uint64_t **prefix,
                          const int64_t *rank_ge, const int64_t *rank_le,
                          int64_t b, int64_t d, int64_t w, int32_t mode,
                          uint64_t *out) {
    if (b <= 0)
        return;
    if (d <= 0) {
        memset(out, 0, (size_t)(b * w) * sizeof(uint64_t));
        return;
    }
    fused_bits(suffix, prefix, rank_ge, rank_le, b, d, w, mode, out);
}
"""

_native_lib: ctypes.CDLL | None = None
_native_error: str | None = None
_native_attempted = False
_native_mode: str | None = None
_native_lock = make_lock("native-build")

#: Build attempts, best first. The embedded source compiles everywhere as
#: plain C99 once the compiler clones (``target_clones`` needs ifunc
#: support) are gated out, so a toolchain without ifunc (clang on macOS,
#: GCC for musl) still yields a working library instead of the numpy
#: fallback.
_BUILD_ATTEMPTS: tuple[tuple[str, ...], ...] = ((), ("-DREPRO_NO_CLONES",))


def _compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc:
        return cc
    from shutil import which

    return which("cc") or which("gcc") or which("clang")


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_NATIVE_CACHE")
    if configured:
        return configured
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-native")


def _compile_native() -> tuple[ctypes.CDLL | None, str | None]:
    global _native_mode
    cc = _compiler()
    if cc is None:
        return None, "no C compiler found (cc/gcc/clang)"
    # Extra flags hook — the sanitizer CI legs inject e.g.
    # "-fsanitize=address,undefined -fno-sanitize-recover=all -g" here. The flags participate in the cache key
    # so a sanitized .so can never be served to (or poison) a normal run,
    # and vice versa.
    extra_flags = os.environ.get("REPRO_NATIVE_CFLAGS", "").split()
    key = hashlib.sha256(
        (_C_SOURCE + cc + sys.platform + " ".join(extra_flags)).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"kernels-{key}.so")
    if not os.path.exists(lib_path):
        try:
            os.makedirs(cache, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                src = os.path.join(tmp, "kernels.c")
                with open(src, "w") as fh:
                    fh.write(_C_SOURCE)
                out = os.path.join(tmp, "kernels.so")
                base = [cc, "-O3", "-fPIC", "-shared", "-std=c99"]
                result = None
                for mode_flags in _BUILD_ATTEMPTS:
                    cmd = base + list(mode_flags) + extra_flags + [src, "-o", out]
                    result = subprocess.run(cmd, capture_output=True, text=True)
                    if result.returncode == 0:
                        break
                if result is None or result.returncode != 0:
                    stderr = result.stderr if result is not None else ""
                    return None, (stderr or "compile failed").strip()[:500]
                os.replace(out, lib_path)  # atomic publish; racers agree on bytes
        except OSError as exc:
            return None, f"{type(exc).__name__}: {exc}"
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    c_i32, c_i64, c_vp = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    c_vpp = ctypes.POINTER(c_vp)
    lib.repro_popcount_rows.argtypes = (c_vp, c_i64, c_i64, c_vp)
    lib.repro_popcount_rows.restype = None
    lib.repro_fused_counts.argtypes = (
        c_vpp, c_vpp, c_vp, c_vp, c_vp, c_i64, c_i64, c_i64, c_i32, c_vp
    )
    lib.repro_fused_counts.restype = None
    lib.repro_fused_bits.argtypes = (
        c_vpp, c_vpp, c_vp, c_vp, c_i64, c_i64, c_i64, c_i32, c_vp
    )
    lib.repro_fused_bits.restype = None
    lib.repro_build_flags.argtypes = ()
    lib.repro_build_flags.restype = c_i32
    # The cached .so may have been produced by an earlier process whose
    # toolchain fell back — ask the binary what it carries rather than
    # trusting which attempt succeeded here.
    _native_mode = "clones" if int(lib.repro_build_flags()) & 1 else "portable"
    return lib, None


def _load_native() -> ctypes.CDLL | None:
    """Compile-once, load-once access to the native library (or ``None``)."""
    global _native_lib, _native_error, _native_attempted
    if _native_attempted:
        return _native_lib
    with _native_lock:
        if not _native_attempted:
            _native_lib, _native_error = _compile_native()
            _native_attempted = True
    return _native_lib


def native_available() -> bool:
    """Whether the native backend can serve in this process."""
    return _load_native() is not None


def native_build_error() -> str | None:
    """The compile/load error that disabled the native backend, if any."""
    _load_native()
    return _native_error


def native_build_mode() -> str | None:
    """What the loaded native library carries: ``"clones"`` (baseline and
    AVX2 bodies, ifunc-selected at load) or ``"portable"`` (plain C99, the
    fallback for toolchains without ifunc). ``None`` when the native
    backend is unavailable."""
    if _load_native() is None:
        return None
    return _native_mode


def simd_route() -> str | None:
    """Host fact for benchmark records: always ``"auto"`` when the native
    backend loaded (the compiler's clones pick the ISA at load time; no
    route is selectable), ``None`` when it is unavailable."""
    return None if _load_native() is None else "auto"


def native_threads() -> int:
    """Host fact for benchmark records: the native kernels run every pass
    on the calling thread, so this is always 1."""
    return 1


# ---------------------------------------------------------------------------
# Backend implementations
# ---------------------------------------------------------------------------

class KernelBackend:
    """Interface of one kernel implementation (see :class:`NumpyBackend`).

    All methods are *bit-identical* across backends; implementations may
    only differ in speed. ``tables`` arguments are
    :class:`~repro.engine.kernels._BitsetTables` instances.
    """

    name = "abstract"
    native = False

    def popcount_rows(self, words: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def accumulator_bits(self, tables, lo, hi, idx, *, direction: str) -> np.ndarray:
        raise NotImplementedError

    def accumulator_counts(
        self, tables, lo, hi, idx, *, direction: str, live: np.ndarray | None = None
    ) -> np.ndarray:
        raise NotImplementedError


class NumpyBackend(KernelBackend):
    """The portable route: the kernels module's own vectorised numpy code."""

    name = "numpy"
    native = False

    def popcount_rows(self, words):
        from . import kernels

        return kernels._popcount_rows_numpy(words)

    def accumulator_bits(self, tables, lo, hi, idx, *, direction):
        le_acc, not_lt_acc = tables._accumulators(lo, hi, idx)
        if direction == "dominated":
            np.bitwise_not(not_lt_acc, out=not_lt_acc)
            np.bitwise_and(le_acc, not_lt_acc, out=le_acc)
            return le_acc
        np.bitwise_not(le_acc, out=le_acc)
        np.bitwise_and(not_lt_acc, le_acc, out=not_lt_acc)
        return not_lt_acc

    def accumulator_counts(self, tables, lo, hi, idx, *, direction, live=None):
        bits = self.accumulator_bits(tables, lo, hi, idx, direction=direction)
        if live is not None:
            bits &= live
        return self.popcount_rows(bits)


def _timed_kernel(method):
    """Per-call telemetry timing for a native kernel entry point.

    When tracing is enabled, each call's wall time lands in a metrics
    histogram named ``native.<kernel>``. Disabled cost is one flag check
    per call; these entry points are batched (one call per scan block,
    not per row), so that check is far off the hot loop.
    """
    name = method.__name__

    @functools.wraps(method)
    def timed(self, *args, **kwargs):
        if not telemetry.enabled():
            return method(self, *args, **kwargs)
        start = _clock()
        out = method(self, *args, **kwargs)
        telemetry.metrics().observe(f"native.{name}", _clock() - start)
        return out

    return timed


class NativeBackend(KernelBackend):
    """The compiled route: fused C loops over the same packed layout.

    Falls back to :class:`NumpyBackend` per call whenever an input does
    not meet the C layout contract (non-contiguous table, width
    mismatch); in practice every array the engine produces qualifies.
    """

    name = "native"
    native = True

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        self._numpy = NumpyBackend()

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _table_pointers(group, width):
        ptrs = (ctypes.c_void_p * len(group))()
        for i, table in enumerate(group):
            if (
                table.dtype != np.uint64
                or not table.flags.c_contiguous
                or table.ndim != 2
                or table.shape[1] != width
            ):
                return None
            ptrs[i] = table.ctypes.data
        return ptrs

    @staticmethod
    def _ranks(tables, lo, hi, idx):
        d = len(tables.suffix)
        rank_ge = np.empty((idx.shape[0], d), dtype=np.int64)
        rank_le = np.empty((idx.shape[0], d), dtype=np.int64)
        for dim in range(d):
            rank_ge[:, dim] = np.searchsorted(
                tables.hi_values[dim], lo[idx, dim], side="left"
            )
            rank_le[:, dim] = np.searchsorted(
                tables.lo_values[dim], hi[idx, dim], side="right"
            )
        return rank_ge, rank_le

    # -- kernels ------------------------------------------------------------

    @_timed_kernel
    def popcount_rows(self, words):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            return self._numpy.popcount_rows(words)
        b, w = words.shape
        out = np.empty(b, dtype=np.int64)
        if b == 0:
            return out
        if w == 0:
            out.fill(0)
            return out
        self._lib.repro_popcount_rows(words.ctypes.data, b, w, out.ctypes.data)
        return out

    @_timed_kernel
    def accumulator_counts(self, tables, lo, hi, idx, *, direction, live=None):
        b = int(np.asarray(idx).shape[0])
        if b == 0:
            return np.zeros(0, dtype=np.int64)
        width = int(tables.words)
        suffix_ptrs = self._table_pointers(tables.suffix, width)
        prefix_ptrs = self._table_pointers(tables.prefix, width)
        if suffix_ptrs is None or prefix_ptrs is None:
            return self._numpy.accumulator_counts(
                tables, lo, hi, idx, direction=direction, live=live
            )
        live_arr = None
        live_ptr = None
        if live is not None:
            live_arr = np.ascontiguousarray(live, dtype=np.uint64)
            if live_arr.shape != (width,):
                return self._numpy.accumulator_counts(
                    tables, lo, hi, idx, direction=direction, live=live
                )
            live_ptr = live_arr.ctypes.data
        rank_ge, rank_le = self._ranks(tables, lo, hi, idx)
        out = np.empty(b, dtype=np.int64)
        self._lib.repro_fused_counts(
            suffix_ptrs,
            prefix_ptrs,
            rank_ge.ctypes.data,
            rank_le.ctypes.data,
            live_ptr,
            b,
            len(tables.suffix),
            width,
            _DIRECTIONS[direction],
            out.ctypes.data,
        )
        return out

    @_timed_kernel
    def accumulator_bits(self, tables, lo, hi, idx, *, direction):
        b = int(np.asarray(idx).shape[0])
        width = int(tables.words)
        if b == 0:
            return np.zeros((0, width), dtype=np.uint64)
        suffix_ptrs = self._table_pointers(tables.suffix, width)
        prefix_ptrs = self._table_pointers(tables.prefix, width)
        if suffix_ptrs is None or prefix_ptrs is None:
            return self._numpy.accumulator_bits(tables, lo, hi, idx, direction=direction)
        rank_ge, rank_le = self._ranks(tables, lo, hi, idx)
        out = np.empty((b, width), dtype=np.uint64)
        self._lib.repro_fused_bits(
            suffix_ptrs,
            prefix_ptrs,
            rank_ge.ctypes.data,
            rank_le.ctypes.data,
            b,
            len(tables.suffix),
            width,
            _DIRECTIONS[direction],
            out.ctypes.data,
        )
        return out


# ---------------------------------------------------------------------------
# Registry / selection
# ---------------------------------------------------------------------------

_BACKEND_ENV = "REPRO_BACKEND"
_MIN_AUTO_SPEEDUP = 1.05

_registry_lock = make_lock("backend-registry")
_numpy_backend = NumpyBackend()
_native_backend: NativeBackend | None = None
_active_backend: KernelBackend | None = None


def _native() -> NativeBackend | None:
    global _native_backend
    if _native_backend is None:
        lib = _load_native()
        if lib is not None:
            with _registry_lock:
                if _native_backend is None:
                    _native_backend = NativeBackend(lib)
    return _native_backend


def available_backends() -> list[str]:
    """Backend names usable in this process (``numpy`` always; ``native``
    when the embedded C library compiled)."""
    names = ["numpy"]
    if native_available():
        names.append("native")
    return names


def measure_backend_speedup(
    *, n: int = 4096, d: int = 4, rows: int = 2048, repeats: int = 3, record: bool = True
) -> float | None:
    """Measured native/numpy speedup of the fused accumulator-count loop.

    Returns ``None`` when the native backend is unavailable, ``0.0`` when
    it disagrees with numpy (which disables it for ``auto`` selection).
    With ``record=True`` the observation lands in the planner calibration
    so the persistent store can carry it to cold processes.
    """
    native = _native()
    if native is None:
        return None
    from . import kernels

    rng = np.random.default_rng(7)
    values = rng.random((n, d))
    lo = np.ascontiguousarray(values)
    hi = np.ascontiguousarray(values)
    tables = kernels._BitsetTables(lo, hi)
    idx = np.arange(min(rows, n), dtype=np.intp)

    def best(fn):
        elapsed = float("inf")
        result = None
        for _ in range(max(repeats, 1)):
            start = _clock()
            result = fn()
            elapsed = min(elapsed, _clock() - start)
        return elapsed, result

    t_numpy, ref = best(
        lambda: _numpy_backend.accumulator_counts(
            tables, lo, hi, idx, direction="dominated"
        )
    )
    t_native, got = best(
        lambda: native.accumulator_counts(tables, lo, hi, idx, direction="dominated")
    )
    if not np.array_equal(ref, got):
        speedup = 0.0
    else:
        speedup = t_numpy / max(t_native, 1e-9)
    if record:
        try:
            from . import planner

            planner.record_backend_speedup("native", speedup)
        except Exception:
            pass
    return speedup


def _auto_backend() -> KernelBackend:
    native = _native()
    if native is None:
        return _numpy_backend
    speedup = None
    try:
        from . import planner

        speedup = planner.backend_speedup("native")
    except Exception:
        speedup = None
    if speedup is None:
        speedup = measure_backend_speedup(record=True)
    if speedup is not None and speedup >= _MIN_AUTO_SPEEDUP:
        return native
    return _numpy_backend


def select_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend and make it the process default.

    ``name`` may be ``"numpy"``, ``"native"``, ``"auto"`` or ``None``
    (consult ``REPRO_BACKEND``, default ``auto``). Selection is
    process-wide: the kernels layer and the shared prepared cache are
    process-global, so per-call backends would only complicate parity.
    Backends answer bit-identically, so this only ever changes speed.
    """
    global _active_backend
    requested = name if name is not None else os.environ.get(_BACKEND_ENV) or "auto"
    requested = str(requested).strip().lower()
    if requested == "auto":
        backend = _auto_backend()
    elif requested == "numpy":
        backend = _numpy_backend
    elif requested == "native":
        backend = _native()
        if backend is None:
            raise InvalidParameterError(
                f"native backend unavailable: {native_build_error()}"
            )
    else:
        raise InvalidParameterError(
            f"unknown backend {requested!r} (expected numpy|native|auto)"
        )
    with _registry_lock:
        _active_backend = backend
    return backend


def get_backend() -> KernelBackend:
    """The process-wide active backend (resolving env/auto on first use)."""
    backend = _active_backend
    if backend is None:
        backend = select_backend(None)
    return backend


@contextmanager
def use_backend(name: str):
    """Temporarily pin the active backend (tests, benchmarks)."""
    global _active_backend
    previous = _active_backend
    backend = select_backend(name)
    try:
        yield backend
    finally:
        with _registry_lock:
            _active_backend = previous


# ---------------------------------------------------------------------------
# Shared-memory prepared tables
# ---------------------------------------------------------------------------

_SHM_PREFIX = "reproshm"
_SHM_ALIGN = 64
_shm_counter = itertools.count()
_segments: dict[str, "_Segment"] = {}
_segments_lock = make_lock("shm-registry")


class _Segment:
    __slots__ = ("shm", "refs", "owner", "unlinked")

    def __init__(self, shm, *, owner: bool) -> None:
        self.shm = shm
        self.refs = 1
        self.owner = owner
        self.unlinked = False


def _untrack(shm) -> None:
    """Detach an *attached* segment from the resource tracker.

    On Python < 3.13 ``SharedMemory`` registers every attach with the
    resource tracker, which would unlink the segment when the attaching
    process exits — destroying it under the creator. Creation-side
    registration (the crash net) is left in place; ``unlink`` balances it.
    """
    try:  # pragma: no cover - depends on interpreter version
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _close_quiet(shm) -> None:
    try:
        shm.close()
    except BufferError:
        # Live ndarray views still pin the mapping; the mmap closes when
        # they are garbage collected. The name-level unlink already
        # happened (or will), so nothing leaks in /dev/shm.
        pass
    except OSError:
        pass


class SharedTables:
    """One ``PreparedDataset``'s arrays in a POSIX shared-memory segment.

    ``create`` copies :meth:`~repro.engine.kernels.PreparedDataset.state_arrays`
    into a fresh segment and returns a handle whose picklable :attr:`meta`
    (name + array layout) is the *entire* cross-process payload. Workers
    call :meth:`attach` + :meth:`prepared` to rebuild a zero-copy
    :class:`~repro.engine.kernels.PreparedDataset` view over the mapping.

    Lifecycle is refcounted per process: :meth:`close` drops one
    reference, the *owner* side calls :meth:`unlink` (idempotent) to
    remove the name; an atexit hook unlinks anything an exception left
    behind. Attached views are read-only by contract — patching them
    would corrupt every process mapped to the segment.
    """

    __slots__ = ("meta", "_name", "_shm", "_owner", "_closed")

    def __init__(self, meta: dict, shm, *, owner: bool) -> None:
        self.meta = meta
        self._name = meta["name"]
        self._shm = shm
        self._owner = owner
        self._closed = False

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, prepared, *, owner: bool = True) -> "SharedTables":
        """Export *prepared* into a new segment.

        With ``owner=False`` the segment is created on behalf of another
        process (a pool worker exporting for its parent): it is dropped
        from the resource tracker immediately so the adopting parent —
        which unlinks by name — has sole responsibility for cleanup.
        """
        state = prepared.state_arrays()
        layout = []
        offset = 0
        arrays = {}
        for key, value in state.items():
            arr = np.ascontiguousarray(value)
            offset = -(-offset // _SHM_ALIGN) * _SHM_ALIGN
            layout.append((key, arr.dtype.str, tuple(arr.shape), offset))
            arrays[key] = arr
            offset += arr.nbytes
        name = f"{_SHM_PREFIX}-{os.getpid()}-{next(_shm_counter)}"
        shm = shared_memory.SharedMemory(create=True, name=name, size=max(offset, 1))
        for key, dtype, shape, off in layout:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
            view[...] = arrays[key]
        if not owner:
            _untrack(shm)
        meta = {"name": shm.name, "layout": layout, "size": max(offset, 1)}
        with _segments_lock:
            _segments[shm.name] = _Segment(shm, owner=owner)
        return cls(meta, shm, owner=owner)

    @classmethod
    def attach(cls, meta: dict, *, owner: bool = False) -> "SharedTables":
        """Attach to an existing segment by its :attr:`meta`."""
        name = meta["name"]
        with _segments_lock:
            segment = _segments.get(name)
            if segment is not None and not segment.unlinked:
                segment.refs += 1
                segment.owner = segment.owner or owner
                return cls(meta, segment.shm, owner=owner)
        shm = shared_memory.SharedMemory(name=name)
        _untrack(shm)
        with _segments_lock:
            _segments[name] = _Segment(shm, owner=owner)
        return cls(meta, shm, owner=owner)

    # -- views ---------------------------------------------------------------

    def arrays(self) -> dict:
        """Zero-copy ndarray views over the segment, keyed like
        :meth:`~repro.engine.kernels.PreparedDataset.state_arrays`."""
        views = {}
        for key, dtype, shape, off in self.meta["layout"]:
            views[key] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=off
            )
        return views

    def prepared(self):
        """A read-only ``PreparedDataset`` view over the mapping."""
        from .kernels import PreparedDataset

        return PreparedDataset.from_state(self.arrays())

    @property
    def nbytes(self) -> int:
        return int(self.meta["size"])

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop this handle's reference (unmap when the last one goes)."""
        if self._closed:
            return
        self._closed = True
        with _segments_lock:
            segment = _segments.get(self._name)
            if segment is None:
                return
            segment.refs -= 1
            if segment.refs > 0 or (segment.owner and not segment.unlinked):
                return
            _segments.pop(self._name, None)
        _close_quiet(segment.shm)

    def unlink(self) -> None:
        """Remove the segment's name (owner side; idempotent)."""
        unlink_shared(self._name)

    def __enter__(self) -> "SharedTables":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self._owner:
            self.unlink()


def unlink_shared(name: str) -> None:
    """Unlink a segment by name, whether or not this process attached it.

    Safe against double-unlink and missing names; parents use this to
    adopt cleanup of segments their pool workers created for them. Only
    the *name* is removed eagerly: the mapping itself is freed when the
    last in-process handle closes, never under one — NumPy releases its
    buffer hold on ``shm.buf`` immediately (keeping just an object
    reference), so ``SharedMemory.close`` would silently unmap live
    array views instead of raising ``BufferError``.
    """
    with _segments_lock:
        segment = _segments.get(name)
        if segment is not None:
            if not segment.unlinked:
                segment.unlinked = True
                try:
                    segment.shm.unlink()
                except FileNotFoundError:
                    pass
            if segment.refs > 0:
                return  # open handles keep the mapping; close() frees it
            _segments.pop(name, None)
    if segment is not None:
        _close_quiet(segment.shm)
        return
    if _posixshmem is None:  # pragma: no cover - non-POSIX platforms
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        _untrack(shm)
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        _close_quiet(shm)
        return
    try:
        _posixshmem.shm_unlink(name if name.startswith("/") else "/" + name)
    except FileNotFoundError:
        pass


def shared_segment_names() -> list[str]:
    """Names of segments this process currently holds open (tests)."""
    with _segments_lock:
        return [name for name, seg in _segments.items() if not seg.unlinked]


def shutdown_shared() -> None:
    """Unlink every owned segment and unmap everything (atexit hook)."""
    with _segments_lock:
        segments = list(_segments.values())
        _segments.clear()
    for segment in segments:
        if segment.owner and not segment.unlinked:
            segment.unlinked = True
            try:
                segment.shm.unlink()
            except FileNotFoundError:
                pass
        _close_quiet(segment.shm)


atexit.register(shutdown_shared)
