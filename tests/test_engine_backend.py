"""The kernel-backend layer: registry, parity, shared memory, pool reuse.

Covers the backend subsystem end to end:

* selection — ``select_backend``/``REPRO_BACKEND``/``QueryEngine(backend=)``
  resolve to the expected backend and reject unknown names;
* parity — the native route returns **bit-identical** answers to the
  portable numpy route on every kernel it accelerates (counts, masks,
  foreign probes, live masks, tombstoned rows, popcount), including
  word-boundary sizes and NaN payloads;
* build fallback — a toolchain that cannot compile the compiler clones
  still yields a working, bit-identical portable library;
* shared memory — :class:`SharedTables` round-trips a prepared dataset
  zero-copy, refcounts attaches, and never leaves a ``/dev/shm`` entry
  behind (engine path, worker-exception path, fallback path);
* pooling — ``query_many`` reuses one process pool across calls;
* planner — per-backend calibration records, clips, and persists.
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

from repro.engine import kernels, planner
from repro.engine import backend as backend_module
from repro.engine import session as session_module
from repro.engine.backend import (
    SharedTables,
    available_backends,
    get_backend,
    measure_backend_speedup,
    native_available,
    native_build_mode,
    select_backend,
    shared_segment_names,
    unlink_shared,
    use_backend,
)
from repro.engine.kernels import (
    PreparedDataset,
    _BitsetTables,
    dominated_counts,
    dominated_masks,
    dominator_counts,
    dominator_masks,
)
from repro.engine.session import PreparedDatasetCache, QueryEngine, shutdown_pool
from repro.errors import InvalidParameterError

REPO = Path(__file__).resolve().parent.parent

needs_native = pytest.mark.skipif(
    not native_available(), reason="native backend unavailable (no working C compiler)"
)


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend selection as it found it."""
    previous = backend_module._active_backend
    yield
    with backend_module._registry_lock:
        backend_module._active_backend = previous


def _tabled(ds) -> PreparedDataset:
    """A PreparedDataset with its bitset tables force-built."""
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
# Registry / selection
# ---------------------------------------------------------------------------


class TestBackendRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        backend = select_backend("numpy")
        assert backend.name == "numpy" and not backend.native
        assert get_backend() is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            select_backend("cuda")

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert select_backend(None).name == "numpy"

    def test_env_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        with pytest.raises(InvalidParameterError):
            select_backend(None)

    def test_use_backend_restores(self):
        select_backend("numpy")
        with use_backend("auto"):
            pass
        assert get_backend().name == "numpy"

    def test_engine_keyword_selects(self):
        engine = QueryEngine(dataset_cache=PreparedDatasetCache(), backend="numpy")
        assert engine is not None
        assert get_backend().name == "numpy"

    @needs_native
    def test_native_selectable(self):
        assert "native" in available_backends()
        backend = select_backend("native")
        assert backend.name == "native" and backend.native

    @needs_native
    def test_measured_speedup_recorded(self):
        speedup = measure_backend_speedup(n=512, d=3, rows=256, repeats=1)
        assert speedup is not None and speedup > 0.0  # parity holds
        assert planner.backend_speedup("native") is not None


# ---------------------------------------------------------------------------
# Bit-identical parity, numpy vs native
# ---------------------------------------------------------------------------


@needs_native
class TestBackendParity:
    @pytest.mark.parametrize("n", (63, 64, 65, 128, 257, 700))
    def test_counts_and_masks(self, make_incomplete, n):
        """Word-boundary sizes with NaN payloads."""
        ds = make_incomplete(n, 4, missing_rate=0.3, seed=n)
        per_backend = {}
        for name in ("numpy", "native"):
            with use_backend(name):
                per_backend[name] = _full_answer(ds)
        assert per_backend["numpy"] == per_backend["native"]

    @pytest.mark.parametrize("n", (63, 64, 65))
    def test_counts_and_masks_general_body(self, make_incomplete, n):
        """The same word-boundary sizes at d=3, which runs the general
        per-dimension loop instead of the unrolled d=4 body."""
        ds = make_incomplete(n, 3, missing_rate=0.3, seed=n)
        per_backend = {}
        for name in ("numpy", "native"):
            with use_backend(name):
                per_backend[name] = _full_answer(ds)
        assert per_backend["numpy"] == per_backend["native"]

    def test_foreign_probes_including_all_missing(self, make_incomplete):
        ds = make_incomplete(365, 4, missing_rate=0.25, seed=11)
        rng = np.random.default_rng(5)
        probe_lo = rng.uniform(0, 25, size=(9, 4))
        probe_hi = probe_lo + rng.uniform(0, 5, size=(9, 4))
        # Two all-missing probes: sentinel bounds (-inf, +inf), the shape
        # a fully-NaN row lowers to (datasets drop such rows themselves).
        probe_lo[3] = -np.inf
        probe_hi[3] = np.inf
        probe_lo[7] = -np.inf
        probe_hi[7] = np.inf
        per_backend = {}
        for name in ("numpy", "native"):
            with use_backend(name):
                prepared = _tabled(ds)
                per_backend[name] = prepared.foreign_dominated_counts(
                    probe_lo, probe_hi
                ).tolist()
        assert per_backend["numpy"] == per_backend["native"]

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
        for direction in ("dominated", "dominator"):
            for mask in (None, live):
                expected = numpy_backend.accumulator_counts(
                    tables, lo, hi, idx, direction=direction, live=mask
                )
                got = native.accumulator_counts(
                    tables, lo, hi, idx, direction=direction, live=mask
                )
                assert got.tolist() == expected.tolist(), direction
            expected_bits = numpy_backend.accumulator_bits(
                tables, lo, hi, idx, direction=direction
            )
            got_bits = native.accumulator_bits(tables, lo, hi, idx, direction=direction)
            assert np.array_equal(got_bits, expected_bits), direction

    def test_tombstoned_rows_parity(self, make_incomplete):
        """Streams that leave tombstones behind answer identically (the
        live mask rides through the kernels)."""
        answers = {}
        for name in ("numpy", "native"):
            ds = make_incomplete(200, 4, missing_rate=0.3, seed=21)
            with use_backend(name):
                engine = QueryEngine(dataset_cache=PreparedDatasetCache())
                child = engine.delete(ds, list(ds.ids[10:40]))
                trace = [engine.query(child, 10).ids]
                child = engine.insert(child, [[0.5, 0.5, 0.5, 0.5]])
                trace.append(engine.query(child, 10).ids)
                answers[name] = trace
        assert answers["numpy"] == answers["native"]

    def test_update_stream_parity(self, make_incomplete):
        """Whole insert/update/delete sequences agree across backends."""
        answers = {}
        for name in ("numpy", "native"):
            ds = make_incomplete(700, 4, missing_rate=0.3, seed=9)
            with use_backend(name):
                engine = QueryEngine(dataset_cache=PreparedDatasetCache())
                engine.prepare_dataset(ds).warm()
                trace = [engine.query(ds, 10).ids]
                child = engine.insert(ds, [[1.0, 2.0, 3.0, 4.0]])
                trace.append(engine.query(child, 10).ids)
                child = engine.update(child, {child.ids[0]: {0: 19.0}})
                trace.append(engine.query(child, 10).ids)
                child = engine.delete(child, [child.ids[5]])
                trace.append(engine.query(child, 10).ids)
                answers[name] = trace
        assert answers["numpy"] == answers["native"]

    def test_popcount_parity(self):
        rng = np.random.default_rng(8)
        words = rng.integers(0, 2**64, size=(129, 3), dtype=np.uint64)
        with use_backend("numpy"):
            expected = kernels._popcount_rows(words).tolist()
        with use_backend("native"):
            assert kernels._popcount_rows(words).tolist() == expected

    def test_popcount_parity_edge_shapes(self):
        """All-zero and all-ones words, a single set bit per word, and the
        empty shapes the native wrapper answers without calling C."""
        single = np.uint64(1) << np.arange(64, dtype=np.uint64)
        cases = [
            np.zeros((65, 2), dtype=np.uint64),
            np.full((64, 3), np.iinfo(np.uint64).max, dtype=np.uint64),
            single.reshape(64, 1),
            single.reshape(16, 4),
            np.zeros((5, 0), dtype=np.uint64),
            np.zeros((0, 3), dtype=np.uint64),
        ]
        for words in cases:
            with use_backend("numpy"):
                expected = kernels._popcount_rows(words).tolist()
            with use_backend("native"):
                assert kernels._popcount_rows(words).tolist() == expected, words.shape


# ---------------------------------------------------------------------------
# Graceful fallback when the compiler clones cannot build
# ---------------------------------------------------------------------------

_FALLBACK_PROBE = textwrap.dedent(
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


@needs_native
class TestBuildFallback:
    def test_build_mode_reported(self):
        assert native_build_mode() in {"clones", "portable"}

    def test_clone_compile_failure_falls_back_to_portable(self, tmp_path):
        """A toolchain that rejects ``target_clones`` (no ifunc) must still
        produce a working library: the build retries with
        -DREPRO_NO_CLONES, reports the portable mode, and answers
        bit-identically to numpy and to this process's build."""
        real_cc = backend_module._compiler()
        wrapper = tmp_path / "cc-restricted"
        wrapper.write_text(
            textwrap.dedent(
                f"""\
                #!/bin/sh
                for arg in "$@"; do
                    if [ "$arg" = "-DREPRO_NO_CLONES" ]; then
                        exec {real_cc} "$@"
                    fi
                done
                echo "error: target_clones unsupported by this toolchain" >&2
                exit 1
                """
            )
        )
        wrapper.chmod(wrapper.stat().st_mode | stat.S_IEXEC)
        env = dict(os.environ)
        env.update(
            CC=str(wrapper),
            REPRO_NATIVE_CACHE=str(tmp_path / "cache"),
            PYTHONPATH=str(REPO / "src"),
        )
        # Only the wrapper decides which attempt succeeds: inherited extra
        # flags (the sanitizer legs set some) would reach every attempt.
        env.pop("REPRO_NATIVE_CFLAGS", None)
        result = subprocess.run(
            [sys.executable, "-c", _FALLBACK_PROBE],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.strip().splitlines()[-1])
        assert report["mode"] == "portable"

        from repro.core.dataset import IncompleteDataset

        rng = np.random.default_rng(0)
        values = rng.uniform(0, 10, size=(80, 3))
        values[rng.uniform(size=(80, 3)) < 0.25] = np.nan
        ds = IncompleteDataset(values.tolist())
        with use_backend("native"):
            prepared = _tabled(ds)
            here = [
                dominated_counts(ds, prepared=prepared).tolist(),
                dominated_masks(ds, prepared=prepared).tolist(),
            ]
        assert report["answer"] == here


# ---------------------------------------------------------------------------
# SharedTables lifecycle
# ---------------------------------------------------------------------------


def _shm_names() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("reproshm")}
    except OSError:  # pragma: no cover - non-POSIX
        return set()


class TestSharedTables:
    def test_roundtrip_and_unlink(self, make_incomplete):
        ds = make_incomplete(600, 4, missing_rate=0.3, seed=1)
        prepared = _tabled(ds)
        handle = SharedTables.create(prepared)
        name = handle.meta["name"]
        assert name in _shm_names()
        twin = SharedTables.attach(handle.meta)
        view = twin.prepared()
        np.testing.assert_array_equal(
            dominated_counts(ds, prepared=view), dominated_counts(ds, prepared=prepared)
        )
        assert view.tables_ready  # the tables travelled, not just the bounds
        del view
        twin.close()
        assert name in _shm_names()  # owner still holds the name
        handle.close()
        handle.unlink()
        assert name not in _shm_names()
        assert name not in shared_segment_names()

    def test_unlink_is_idempotent_and_by_name(self, make_incomplete):
        prepared = _tabled(make_incomplete(80, 3, seed=3))
        handle = SharedTables.create(prepared)
        name = handle.meta["name"]
        handle.close()
        unlink_shared(name)
        unlink_shared(name)  # double unlink must be harmless
        assert name not in _shm_names()

    def test_query_many_cleans_up_segments(self, make_incomplete):
        """The engine path: export, attach, answer, no stale segments."""
        ds = make_incomplete(700, 4, missing_rate=0.3, seed=6)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        engine.prepare_dataset(ds).warm()
        assert engine.prepare_dataset(ds).tables_ready
        expected = [engine.query(ds, k).ids for k in (3, 5, 7, 9)]
        engine._results.clear()
        results = engine.query_many([(ds, k) for k in (3, 5, 7, 9)], workers=2)
        assert [r.ids for r in results] == expected
        assert not _shm_names()
        shutdown_pool()

    def test_worker_exception_still_unlinks(self, make_incomplete):
        """A worker blowing up mid-query must not leak the parent's segments."""
        ds = make_incomplete(700, 4, missing_rate=0.3, seed=6)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        engine.prepare_dataset(ds).warm()
        # An unknown algorithm passes the parent's dispatch (resolution
        # happens inside the worker's query) and blows up both shards
        # after the parent has already exported its segments.
        from repro.errors import UnknownAlgorithmError

        with pytest.raises(UnknownAlgorithmError):
            engine.query_many([(ds, 4), (ds, 5)], algorithm="bogus", workers=2)
        assert not _shm_names()
        shutdown_pool()

    def test_export_failure_falls_back(self, make_incomplete, monkeypatch):
        """When the export fails, workers rebuild and nothing leaks."""
        ds = make_incomplete(700, 4, missing_rate=0.3, seed=6)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        engine.prepare_dataset(ds).warm()
        expected = [engine.query(ds, k).ids for k in (3, 6)]
        engine._results.clear()

        def boom(*args, **kwargs):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(session_module.SharedTables, "create", boom)
        results = engine.query_many([(ds, k) for k in (3, 6)], workers=2)
        assert [r.ids for r in results] == expected
        assert not _shm_names()
        shutdown_pool()

    def test_partitioned_query_cleans_up_segments(self, make_incomplete):
        """A partitioned query accepts workers=2 and leaves no segment."""
        ds = make_incomplete(900, 4, missing_rate=0.25, seed=12)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        sequential = engine.query(ds, 8, partitions=3).ids
        parallel = engine.query(ds, 8, partitions=3, workers=2).ids
        assert parallel == sequential
        assert not _shm_names()
        shutdown_pool()


# ---------------------------------------------------------------------------
# Process-pool reuse
# ---------------------------------------------------------------------------


class TestSharedPool:
    def test_query_many_reuses_pool(self, make_incomplete):
        ds = make_incomplete(300, 3, missing_rate=0.2, seed=5)
        engine = QueryEngine(dataset_cache=PreparedDatasetCache())
        engine.query_many([(ds, k) for k in (2, 3)], workers=2)
        first = session_module._pool
        assert first is not None
        engine.query_many([(ds, k) for k in (4, 5)], workers=2)
        assert session_module._pool is first  # no respawn between calls
        shutdown_pool()
        assert session_module._pool is None

    def test_pool_grows_but_stays_capped(self):
        shutdown_pool()
        pool = session_module._process_pool(1)
        grown = session_module._process_pool(3)
        assert grown is not pool  # grew to fit a wider fan-out
        assert session_module._process_pool(2) is grown  # shrink = reuse
        assert session_module._process_pool(10_000)._max_workers <= session_module._POOL_MAX_WORKERS
        shutdown_pool()


# ---------------------------------------------------------------------------
# Planner calibration persistence
# ---------------------------------------------------------------------------


class TestBackendCalibration:
    def test_record_and_clip(self):
        planner.record_backend_speedup("native", 1000.0)
        assert planner.backend_speedup("native") == planner._BACKEND_SPEEDUP_CLIP[1]
        planner.record_backend_speedup("native", 0.0)  # "measured unusable"
        assert planner.backend_speedup("native") == 0.0
        planner.record_backend_speedup("native", float("nan"))  # ignored
        assert planner.backend_speedup("native") == 0.0

    def test_state_roundtrip_via_store(self, tmp_path):
        from repro.engine.store import PersistentStore

        planner.record_backend_speedup("native", 3.5)
        store = PersistentStore(tmp_path / "store")
        store.save_planner(planner.calibration_state())
        # A "cold process": forget everything, reload from disk.
        planner.reset_calibration()
        try:
            assert planner.backend_speedup("native") is None
            state = store.load_planner()
            assert state is not None and state.get("backends", {}).get("native") == 3.5
            planner.apply_calibration_state(state)
            assert planner.backend_speedup("native") == 3.5
        finally:
            planner.reset_calibration()

    def test_stale_route_keys_are_ignored(self, tmp_path):
        """A store written while calibration keys named a SIMD route
        (``native:avx512:t1``) or a native thread count (``native:t1``)
        loads without error: the stale keys are dropped, pricing reads
        the backend-wide ``native`` key, and the next save does not carry
        the stale keys forward."""
        from repro.engine.store import PersistentStore

        stale = {"native:avx512:t1": 9.0, "native:t1": 7.0}
        store = PersistentStore(tmp_path / "store")
        store.save_planner({"bias": {}, "backends": {"native": 2.0, **stale}})
        planner.reset_calibration()
        try:
            planner.apply_calibration_state(store.load_planner())
            for key in stale:
                assert planner.backend_speedup(key) is None, key
            assert planner.backend_speedup("native") == 2.0
            if native_available():
                with use_backend("native"):
                    assert planner._active_backend_speedup() == 2.0
            store.save_planner(planner.calibration_state())
            assert set(store.load_planner()["backends"]) == {"native"}
        finally:
            planner.reset_calibration()

    def test_estimate_costs_scale_with_active_backend(self):
        planner.record_backend_speedup("native", 4.0)
        with use_backend("numpy"):
            base = planner.estimate_costs(5000, 4, 0.2, 10)
        if not native_available():
            pytest.skip("native backend unavailable")
        with use_backend("native"):
            scaled = planner.estimate_costs(5000, 4, 0.2, 10)
        # naive is vec-dominated: pricing it for a 4x backend cuts the
        # modelled cost by ~4x (step terms keep it from being exact).
        assert scaled["naive"] < base["naive"] / 2.0
