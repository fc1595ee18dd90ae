"""Compiler-cloned kernels and native-threading tests for the kernel backend.

The native library carries one portable C function per kernel family; on
x86-64 the compiler clones each into baseline and AVX2 bodies and the
loader picks one for the CPU.  An in-process pthread pool splits passes
over disjoint row blocks.  Neither may ever change an answer — these tests
pin that contract:

* every kernel (popcount, fused counts, fused masks) × thread count
  {1, 2, 3, 8} × live mask is bit-identical to numpy on word-boundary
  sizes (63/64/65/128), NaN payloads and tombstoned rows, with the
  work-size gate forced open so tiny inputs still take the threaded path;
* config surfaces (env var, ``QueryEngine(native_threads=)``, the CLI
  flag) validate loudly and reach the library;
* the planner calibrates the thread count actually in effect, not a
  blanket "native" figure;
* a toolchain that cannot compile the clones still yields a working,
  bit-identical portable library (subprocess-proven graceful fallback).
"""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.engine import backend as backend_module
from repro.engine import kernels
from repro.engine.backend import (
    native_available,
    native_build_mode,
    native_threads,
    set_native_threads,
    set_thread_min_words,
    use_backend,
    use_native_threads,
)
from repro.engine.kernels import (
    PreparedDataset,
    _BitsetTables,
    dominated_counts,
    dominated_masks,
    dominator_counts,
    dominator_masks,
)
from repro.engine.session import PreparedDatasetCache, QueryEngine
from repro.errors import InvalidParameterError

REPO = Path(__file__).resolve().parent.parent

needs_native = pytest.mark.skipif(
    not native_available(), reason="native backend unavailable (no working C compiler)"
)

THREAD_COUNTS = (1, 2, 3, 8)


@pytest.fixture(autouse=True)
def _restore_native_knobs():
    """Every test leaves the process-wide thread count and work-size gate
    as it found them (they live in the loaded .so)."""
    previous_backend = backend_module._active_backend
    threads = native_threads()
    gate = set_thread_min_words(None) if native_available() else None
    yield
    with backend_module._registry_lock:
        backend_module._active_backend = previous_backend
    if gate is not None:
        set_native_threads(threads)
        set_thread_min_words(gate)


def _tabled(ds) -> PreparedDataset:
    prepared = PreparedDataset(ds)
    assert prepared.tables(build=True) is not None
    return prepared


def _full_answer(ds):
    prepared = _tabled(ds)
    return (
        dominated_counts(ds, prepared=prepared).tolist(),
        dominator_counts(ds, prepared=prepared).tolist(),
        dominated_masks(ds, prepared=prepared).tolist(),
        dominator_masks(ds, prepared=prepared).tolist(),
    )


# ---------------------------------------------------------------------------
# Which build route loaded
# ---------------------------------------------------------------------------

@needs_native
class TestRouteSelection:
    def test_build_mode_reported(self):
        assert native_build_mode() in {"clones+threads", "threads", "clones", "portable"}


# ---------------------------------------------------------------------------
# Bit-identical parity: every kernel × thread count × live mask
# ---------------------------------------------------------------------------

@needs_native
class TestSimdThreadParity:
    @pytest.mark.parametrize("n", (63, 64, 65, 128))
    def test_routes_and_threads_match_numpy(self, make_incomplete, n):
        """Word-boundary sizes with NaN payloads: counts and masks agree
        with numpy under every thread count, with the work-size gate
        forced open so tiny inputs still take the threaded path."""
        ds = make_incomplete(n, 4, missing_rate=0.3, seed=n)
        with use_backend("numpy"):
            expected = _full_answer(ds)
        set_thread_min_words(0)
        with use_backend("native"):
            for count in THREAD_COUNTS:
                with use_native_threads(count):
                    assert _full_answer(ds) == expected, count

    @pytest.mark.parametrize("d", (3, 4))
    def test_accumulator_kernels_with_live_mask(self, d):
        """The fused count kernel with and without a live mask, and the
        fused mask kernel, in both directions, at the unrolled d=4 body
        and the general one."""
        rng = np.random.default_rng(d)
        values = rng.random((130, d))
        values[rng.random((130, d)) < 0.2] = np.nan
        lo = np.where(np.isnan(values), -np.inf, values)
        hi = np.where(np.isnan(values), np.inf, values)
        tables = _BitsetTables(lo, hi)
        idx = np.arange(130, dtype=np.intp)
        live = rng.integers(0, 2**64, size=tables.words, dtype=np.uint64)
        numpy_backend = backend_module._numpy_backend
        native = backend_module._native()
        set_thread_min_words(0)
        for direction in ("dominated", "dominator"):
            expected_bits = numpy_backend.accumulator_bits(
                tables, lo, hi, idx, direction=direction
            )
            for mask in (None, live):
                expected = numpy_backend.accumulator_counts(
                    tables, lo, hi, idx, direction=direction, live=mask
                )
                for count in THREAD_COUNTS:
                    with use_native_threads(count):
                        got = native.accumulator_counts(
                            tables, lo, hi, idx, direction=direction, live=mask
                        )
                        assert got.tolist() == expected.tolist(), (direction, count)
            for count in THREAD_COUNTS:
                with use_native_threads(count):
                    got_bits = native.accumulator_bits(
                        tables, lo, hi, idx, direction=direction
                    )
                    assert np.array_equal(got_bits, expected_bits), (direction, count)

    def test_tombstoned_rows_parity(self, make_incomplete):
        """Streams that leave tombstones behind answer identically at every
        thread count (the live mask rides through the kernels)."""
        answers = {}
        set_thread_min_words(0)
        combos = [("numpy", 1)] + [("native", count) for count in THREAD_COUNTS]
        for backend_name, count in combos:
            ds = make_incomplete(200, 4, missing_rate=0.3, seed=21)
            with use_backend(backend_name), use_native_threads(count):
                engine = QueryEngine(dataset_cache=PreparedDatasetCache())
                child = engine.delete(ds, list(ds.ids[10:40]))
                trace = [engine.query(child, 10).ids]
                child = engine.insert(child, [[0.5, 0.5, 0.5, 0.5]])
                trace.append(engine.query(child, 10).ids)
                answers[(backend_name, count)] = trace
        reference = answers[("numpy", 1)]
        for combo, trace in answers.items():
            assert trace == reference, combo

    def test_popcount_parity_all_routes(self):
        rng = np.random.default_rng(8)
        words = rng.integers(0, 2**64, size=(129, 3), dtype=np.uint64)
        with use_backend("numpy"):
            expected = kernels._popcount_rows(words).tolist()
        set_thread_min_words(0)
        with use_backend("native"):
            for count in THREAD_COUNTS:
                with use_native_threads(count):
                    assert kernels._popcount_rows(words).tolist() == expected, count

    def test_thread_gate_leaves_small_inputs_single_threaded(self):
        """The work-size gate is a pure performance heuristic — answers at
        a huge gate (never thread) equal answers at gate 0 (always)."""
        rng = np.random.default_rng(4)
        words = rng.integers(0, 2**64, size=(500, 4), dtype=np.uint64)
        with use_backend("native"):
            with use_native_threads(8):
                set_thread_min_words(1 << 40)
                gated = kernels._popcount_rows(words).tolist()
                set_thread_min_words(0)
                threaded = kernels._popcount_rows(words).tolist()
        assert gated == threaded


# ---------------------------------------------------------------------------
# Configuration surfaces
# ---------------------------------------------------------------------------

class TestThreadConfig:
    def test_bad_thread_counts_rejected(self):
        for bad in (0, -2, "bogus", "0"):
            with pytest.raises(InvalidParameterError):
                set_native_threads(bad)

    def test_auto_resolves_to_cpu_count_capped(self):
        count = backend_module._coerce_threads("auto")
        assert 1 <= count <= backend_module._MAX_NATIVE_THREADS

    @needs_native
    def test_counts_clamped_to_max(self):
        assert set_native_threads(10_000) == backend_module._MAX_NATIVE_THREADS

    @needs_native
    def test_engine_keyword_sets_threads(self):
        engine = QueryEngine(native_threads=2)
        assert engine is not None
        assert native_threads() == 2

    def test_engine_keyword_validates_even_without_native(self):
        with pytest.raises(InvalidParameterError):
            QueryEngine(native_threads=0)

    @needs_native
    def test_env_application(self, monkeypatch):
        lib = backend_module._load_native()
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        backend_module._apply_native_env(lib)
        assert native_threads() == 3

    @needs_native
    def test_cli_flag_reaches_library(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.core.dataset import IncompleteDataset

        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        path = tmp_path / "sample.csv"
        IncompleteDataset(
            [[1, 2, None], [2, None, 1], [3, 3, 3]],
            ids=["a", "b", "c"],
            dim_names=["x", "y", "z"],
        ).to_csv(path)
        code = main(
            [
                "query", str(path), "--k", "2", "--id-column", "id",
                "--backend", "native", "--native-threads", "2",
            ]
        )
        assert code == 0
        assert native_threads() == 2
        # exported so pool workers inherit the knob
        assert os.environ.get("REPRO_NATIVE_THREADS") == "2"
        os.environ.pop("REPRO_NATIVE_THREADS", None)  # monkeypatch restores the original


# ---------------------------------------------------------------------------
# Planner calibration records the thread count in effect
# ---------------------------------------------------------------------------

@needs_native
class TestVariantCalibration:
    def test_calibration_key_names_threads(self):
        native = backend_module._native()
        with use_native_threads(2):
            assert native.calibration_key == "native:t2"

    def test_measured_speedup_recorded_under_variant_key(self):
        from repro.engine.planner import backend_speedup

        native = backend_module._native()
        from repro.engine.backend import measure_backend_speedup

        speedup = measure_backend_speedup(n=1200, repeats=1)
        assert speedup > 0
        assert backend_speedup(native.calibration_key) == pytest.approx(
            backend_speedup("native")
        )


# ---------------------------------------------------------------------------
# Graceful fallback when the compiler clones or threads cannot build
# ---------------------------------------------------------------------------

def _fallback_report(tmp_path, required_flag: str) -> dict:
    """Build the library in a subprocess through a ``cc`` wrapper that fails
    every attempt lacking ``required_flag``; return the probe's report
    (build mode and native answers, already checked against numpy)."""
    real_cc = backend_module._compiler()
    wrapper = tmp_path / "cc-restricted"
    wrapper.write_text(
        textwrap.dedent(
            f"""\
            #!/bin/sh
            for arg in "$@"; do
                if [ "$arg" = "{required_flag}" ]; then
                    exec {real_cc} "$@"
                fi
            done
            echo "error: unsupported by this toolchain ({required_flag} missing)" >&2
            exit 1
            """
        )
    )
    wrapper.chmod(wrapper.stat().st_mode | stat.S_IEXEC)
    probe = textwrap.dedent(
        """\
        import json
        import numpy as np
        from repro.core.dataset import IncompleteDataset
        from repro.engine.backend import native_available, native_build_mode, use_backend
        from repro.engine.kernels import PreparedDataset, dominated_counts, dominated_masks

        assert native_available(), "fallback build should still load"
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 10, size=(80, 3))
        values[rng.uniform(size=(80, 3)) < 0.25] = np.nan
        ds = IncompleteDataset(values.tolist())
        answers = {}
        for name in ("numpy", "native"):
            with use_backend(name):
                prepared = PreparedDataset(ds)
                prepared.tables(build=True)
                answers[name] = (
                    dominated_counts(ds, prepared=prepared).tolist(),
                    dominated_masks(ds, prepared=prepared).tolist(),
                )
        assert answers["numpy"] == answers["native"]
        print(json.dumps({"mode": native_build_mode(), "answer": answers["native"]}))
        """
    )
    env = dict(os.environ)
    env.update(
        CC=str(wrapper),
        REPRO_NATIVE_CACHE=str(tmp_path / "cache"),
        PYTHONPATH=str(REPO / "src"),
    )
    # Only the wrapper decides which attempt succeeds: inherited extra
    # flags (the sanitizer legs set some) would reach every attempt.
    env.pop("REPRO_NATIVE_THREADS", None)
    env.pop("REPRO_NATIVE_CFLAGS", None)
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def _native_answer_here() -> list:
    from repro.core.dataset import IncompleteDataset

    rng = np.random.default_rng(0)
    values = rng.uniform(0, 10, size=(80, 3))
    values[rng.uniform(size=(80, 3)) < 0.25] = np.nan
    ds = IncompleteDataset(values.tolist())
    with use_backend("native"):
        prepared = _tabled(ds)
        return [
            dominated_counts(ds, prepared=prepared).tolist(),
            dominated_masks(ds, prepared=prepared).tolist(),
        ]


@needs_native
class TestBuildFallback:
    def test_simd_compile_failure_falls_back_to_scalar(self, tmp_path):
        """A toolchain that rejects ``target_clones`` (no ifunc) must still
        produce a working library that keeps the thread pool: the build
        retries with -DREPRO_NO_CLONES, reports the threads mode, and
        answers bit-identically to numpy and to this process's build."""
        report = _fallback_report(tmp_path, "-DREPRO_NO_CLONES")
        assert report["mode"] == "threads"
        assert report["answer"] == _native_answer_here()

    def test_thread_compile_failure_falls_back_to_portable(self, tmp_path):
        """A toolchain that can build neither clones nor the pthread pool
        still yields a working, bit-identical portable library."""
        report = _fallback_report(tmp_path, "-DREPRO_NO_THREADS")
        assert report["mode"] == "portable"
        assert report["answer"] == _native_answer_here()
