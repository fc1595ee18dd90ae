"""Cost-based query planning: ``algorithm="auto"`` (the engine's middle layer).

The paper's Figs. 12–17 show that no single algorithm wins everywhere:
BIG/IBIG dominate when their bounds bite (low missing rate, small ``k``),
UBB avoids their index build on one-shot queries, and the vectorised
Naive scan is unbeatable on small datasets or when heavy missingness
(MovieLens, σ ≈ 0.95) makes every bound loose. The seed API pushed that
choice onto the caller; :func:`plan_query` makes it from a cost model over
``(n, d, missing rate, k, index availability)`` instead.

The model prices two kinds of work, calibrated for the NumPy kernels in
:mod:`repro.engine.kernels`:

* vectorised element traffic (seconds per boolean element), and
* per-object Python steps (seconds each — queue pops, bitmap
  intersections, candidate-set updates).

The two constants start from hand-fitted defaults, are re-measured once
per process by an import-time microbenchmark (:class:`Calibration`,
clipped so noise rescales but never inverts the model), and are then
refined per algorithm from observed query runtimes — the
:class:`~repro.engine.session.QueryEngine` feeds every planned query's
measured time back through :func:`record_observation`.

Bound-based algorithms score only part of the MaxScore queue; the scanned
fraction is estimated from ``k/n`` and the missing rate (missing values
widen every ``T_i`` set, which is the paper's own explanation for the
MovieLens behaviour in Fig. 18a). Preparation cost is charged unless the
caller reports the structure as already prepared (the
:class:`~repro.engine.session.QueryEngine` does exactly that), spread
over ``repeats`` expected queries otherwise.

The chosen plan is *always exact* — every registered algorithm returns
the same canonical answer for the same ``(S, k)`` under
``tie_break="index"`` (scores descending, then lowest index), so the
choice changes only the cost, never the ids.
"""

from __future__ import annotations

import inspect
import math
import os
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..errors import InvalidParameterError
from . import telemetry
from ._lockcheck import make_lock
from .kernels import _BITSET_TABLE_BUDGET_BYTES, _bitset_table_bytes
from .telemetry import clock as _clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.dataset import IncompleteDataset

__all__ = [
    "QueryPlan",
    "DeltaPlan",
    "PartitionPlan",
    "Calibration",
    "calibration",
    "calibration_state",
    "apply_calibration_state",
    "estimate_costs",
    "estimate_delta_costs",
    "estimate_partition_costs",
    "estimate_survival",
    "plan_query",
    "plan_delta",
    "plan_partitioned",
    "explain_plan",
    "merge_plan_options",
    "record_observation",
    "reset_calibration",
]

#: Seconds per vectorised boolean element touched by a broadcast kernel
#: (hand-fitted default; recalibrated once per process, see Calibration).
_VEC_DEFAULT = 2.0e-9
#: Seconds per per-object Python step (queue pop + bound check + offer).
_STEP_DEFAULT = 4.0e-6
#: Per-iteration cost of the pure-Python reference loop on the machine the
#: defaults were fitted on; the measured loop rescales _STEP through it.
_REFERENCE_LOOP_S = 60e-9
#: Extra per-object steps BIG pays for bitmap intersections and rim checks.
_BIG_STEP_FACTOR = 6.0
#: Each calibrated constant may move at most this factor from its default…
_CAL_CLIP = 2.5
#: …and the vec/step *ratio* at most this factor, so a noisy microbenchmark
#: can rescale the model but never flip its regime ordering outright.
_RATIO_CLIP = 2.0
#: Observed-runtime feedback bounds the per-algorithm bias multiplier.
_BIAS_CLIP = (0.5, 2.0)
#: EWMA weight (in log space) of one observation against the running bias.
_BIAS_ALPHA = 0.3
#: Measured kernel-backend speedups are believed only within this range —
#: a corrupt store entry can rescale vectorised costs but not zero them.
_BACKEND_SPEEDUP_CLIP = (0.25, 16.0)

#: Shape of the backend calibration keys this version records: a bare
#: backend name (``native``). A persisted key of any other shape (one
#: that also named a thread count or a SIMD route) prices a
#: configuration that no longer exists and is dropped on load.
_BACKEND_KEY_RE = re.compile(r"[a-z]+")


@dataclass
class Calibration:
    """The cost model's machine-dependent constants, per process.

    ``vec``/``step`` start from the hand-fitted defaults and are replaced
    once, at import time, by a microbenchmark of this machine (clipped —
    see ``_CAL_CLIP``/``_RATIO_CLIP``). ``bias`` holds per-algorithm
    multipliers learned from observed query runtimes vs modelled cost
    (:func:`record_observation`, fed by ``QueryEngine.query``); it starts
    empty and is bounded by ``_BIAS_CLIP`` so exploration noise cannot run
    away. ``backends`` holds measured kernel-backend speedups relative to
    the numpy route (:func:`record_backend_speedup`, fed by
    ``backend.measure_backend_speedup``); persisting them through the
    store lets a cold process auto-select the right backend without
    re-measuring. Set ``REPRO_PLANNER_CALIBRATION=0`` to pin the defaults.
    """

    vec: float = _VEC_DEFAULT
    step: float = _STEP_DEFAULT
    source: str = "default"
    bias: dict[str, float] = field(default_factory=dict)
    backends: dict[str, float] = field(default_factory=dict)

    def biased(self, algorithm: str, seconds: float) -> float:
        return seconds * self.bias.get(algorithm, 1.0)


_calibration: Calibration | None = None

#: Guards the process-wide calibration singleton and its ``bias`` dict —
#: ``record_observation`` is fed from every planned query, including from
#: concurrent server threads sharing one process.
_calibration_lock = make_lock("planner")


def _measure_vec() -> float:
    """Seconds per boolean element of a vectorised compare (best of 3)."""
    elements = 1 << 18
    a = np.linspace(0.0, 1.0, elements)
    b = a[::-1].copy()
    best = float("inf")
    for _ in range(3):
        start = _clock()
        (a <= b).sum()
        best = min(best, _clock() - start)
    return best / elements


def _measure_loop() -> float:
    """Seconds per iteration of a small pure-Python bookkeeping loop."""
    items = list(range(4096))
    best = float("inf")
    for _ in range(3):
        start = _clock()
        acc = 0
        for value in items:
            if value > acc:
                acc = value
        best = min(best, _clock() - start)
    return best / len(items)


def calibration() -> Calibration:
    """The process-wide calibration, measuring it on first use."""
    global _calibration
    with _calibration_lock:
        if _calibration is not None:
            return _calibration
        if os.environ.get("REPRO_PLANNER_CALIBRATION", "1").lower() in ("0", "false", "off"):
            _calibration = Calibration()
            return _calibration
        try:
            vec = float(np.clip(_measure_vec(), _VEC_DEFAULT / _CAL_CLIP, _VEC_DEFAULT * _CAL_CLIP))
            step = _STEP_DEFAULT * (_measure_loop() / _REFERENCE_LOOP_S)
            step = float(np.clip(step, _STEP_DEFAULT / _CAL_CLIP, _STEP_DEFAULT * _CAL_CLIP))
            # Bound the relative tilt: pull both constants toward each other
            # until the vec/step ratio moved at most _RATIO_CLIP from default.
            ratio = (vec / _VEC_DEFAULT) / (step / _STEP_DEFAULT)
            if ratio > _RATIO_CLIP or ratio < 1.0 / _RATIO_CLIP:
                excess = math.sqrt(ratio / _RATIO_CLIP) if ratio > 1 else math.sqrt(ratio * _RATIO_CLIP)
                vec /= excess
                step *= excess
            _calibration = Calibration(vec=vec, step=step, source="microbenchmark")
        except Exception:  # pragma: no cover - timing must never break planning
            _calibration = Calibration()
        return _calibration


def reset_calibration() -> None:
    """Forget measurements and biases (tests; re-measures on next use)."""
    global _calibration
    with _calibration_lock:
        _calibration = None


def record_observation(algorithm: str, modelled_seconds: float, measured_seconds: float) -> None:
    """Feed one observed (modelled, measured) pair back into the model.

    Nudges the per-algorithm bias multiplier by a bounded log-space EWMA;
    :class:`~repro.engine.session.QueryEngine` calls this after every
    planned query, so ``algorithm="auto"`` converges toward the machine's
    actual behaviour instead of the hand-fitted constants. Thread-safe:
    the read-nudge-write cycle holds the calibration lock.
    """
    if modelled_seconds <= 0.0 or measured_seconds <= 0.0:
        return
    with _calibration_lock:
        cal = calibration()
        previous = cal.bias.get(algorithm, 1.0)
        nudged = previous * (measured_seconds / modelled_seconds) ** _BIAS_ALPHA
        bias = cal.bias[algorithm] = float(np.clip(nudged, *_BIAS_CLIP))
    if telemetry.enabled():
        registry = telemetry.metrics()
        registry.count(f"planner.observations.{algorithm}")
        registry.gauge(f"planner.bias.{algorithm}", bias)
        registry.observe(f"planner.measured_seconds.{algorithm}", measured_seconds)


def backend_speedup(name: str) -> float | None:
    """The recorded speedup of kernel backend *name* over numpy, if any.

    ``0.0`` is a real (and meaningful) value: the measurement found the
    backend unusable (e.g. a parity mismatch), which auto-selection
    treats as "never pick this".
    """
    with _calibration_lock:
        return calibration().backends.get(str(name))


def record_backend_speedup(name: str, speedup: float) -> None:
    """Record a measured kernel-backend speedup (persisted via the store).

    Positive values are clipped to ``_BACKEND_SPEEDUP_CLIP``; ``0.0``
    passes through untouched as the "disabled by measurement" marker.
    """
    try:
        value = float(speedup)
    except (TypeError, ValueError):
        return
    if not math.isfinite(value) or value < 0.0:
        return
    if value > 0.0:
        value = float(np.clip(value, *_BACKEND_SPEEDUP_CLIP))
    with _calibration_lock:
        calibration().backends[str(name)] = value


def _active_backend_speedup() -> float:
    """Vectorised-cost scale of the *currently selected* kernel backend.

    1.0 for numpy (the constants' reference point) or when nothing has
    been measured yet. Deliberately passive: it peeks at the selection
    without resolving it, so pure planning never triggers a backend
    build/measurement. Exception-safe: the planner must keep working
    even if the backend layer cannot load.
    """
    try:  # deferred: backend imports planner for calibration recording
        from . import backend as backend_module

        active = backend_module._active_backend
        if active is None or not active.native:
            return 1.0
        speedup = backend_speedup(active.name)
    except Exception:  # pragma: no cover - defensive
        return 1.0
    if speedup is None or speedup <= 0.0:
        return 1.0
    return float(speedup)


def calibration_state() -> dict:
    """JSON-safe snapshot of the calibration (what the store persists).

    ``vec``/``step`` travel for inspection; ``bias`` is the part worth
    reusing across processes (see :func:`apply_calibration_state`).
    """
    with _calibration_lock:
        cal = calibration()
        return {
            "vec": cal.vec,
            "step": cal.step,
            "source": cal.source,
            "bias": dict(cal.bias),
            "backends": dict(cal.backends),
        }


def apply_calibration_state(state: Mapping) -> None:
    """Adopt a persisted calibration snapshot into this process.

    Only the learned per-algorithm ``bias`` multipliers are applied
    (re-clipped defensively), and only for algorithms this process has
    not observed yet — in-process learning is always fresher than a
    persisted snapshot, so opening a store mid-process can never regress
    a bias that ``record_observation`` already refined. ``vec``/``step``
    stay as this machine's own import-time measurement — they cost ~2 ms
    to re-measure and adopting another host's constants could mis-rank
    algorithms outright. Unknown or malformed fields are ignored so a
    hand-edited store cannot break planning.
    """
    if not isinstance(state, Mapping):
        return
    bias = state.get("bias")
    backends = state.get("backends")
    with _calibration_lock:
        cal = calibration()
        if isinstance(bias, Mapping):
            for algorithm, value in bias.items():
                if str(algorithm) in cal.bias:
                    continue
                try:
                    cal.bias[str(algorithm)] = float(np.clip(float(value), *_BIAS_CLIP))
                except (TypeError, ValueError):
                    continue
        if isinstance(backends, Mapping):
            # Same freshness rule as bias: a persisted speedup never
            # overrides one this process measured itself.
            for name, value in backends.items():
                if str(name) in cal.backends or not _BACKEND_KEY_RE.fullmatch(str(name)):
                    continue
                record_backend_speedup(str(name), value)

#: Algorithms the planner will choose between. Deliberately the paper's
#: core trio + Naive: the alternative-index algorithms (mosaic/brtree/
#: quantization) answer the same queries but are never the fastest route
#: in this implementation, and "ibig" only trades time for space.
_PLANNABLE = ("naive", "ubb", "big")


@dataclass(frozen=True)
class QueryPlan:
    """Outcome of cost-based planning for one ``(dataset, k)`` query."""

    #: Registry name of the chosen algorithm.
    algorithm: str
    #: Constructor options for :func:`repro.core.query.make_algorithm`.
    options: dict = field(default_factory=dict)
    #: One-line human-readable justification.
    reason: str = ""
    #: Modelled cost (seconds) of the chosen plan.
    estimated_seconds: float = 0.0
    #: Modelled cost of every candidate plan, for inspection/printing.
    candidate_seconds: dict = field(default_factory=dict)

    def summary(self) -> str:
        """Render the plan the way ``repro query --explain`` prints it."""
        ranking = ", ".join(
            f"{name}={seconds * 1e3:.2f}ms"
            for name, seconds in sorted(self.candidate_seconds.items(), key=lambda kv: kv[1])
        )
        return f"plan: {self.algorithm} ({self.reason}) | modelled: {ranking}"


def _scanned_fraction(n: int, k: int, missing_rate: float) -> float:
    """Expected fraction of the MaxScore queue a bound-based scan visits.

    Grows with ``k/n`` (deeper answers need more exact scores) and with
    the missing rate (every missing cell inflates ``|T_i|``, flattening
    the queue). The constants are fitted loosely to this implementation's
    behaviour on the Table 2 grid; the planner only needs ordering, not
    absolute accuracy.
    """
    base = min(1.0, 4.0 * max(k, 1) / max(n, 1))
    slack = missing_rate * 2.0
    return float(min(1.0, base + 0.02 + slack * slack))


def estimate_costs(
    n: int,
    d: int,
    missing_rate: float,
    k: int,
    *,
    prepared: Sequence[str] = (),
    repeats: int = 1,
) -> dict[str, float]:
    """Modelled query cost (seconds) of each plannable algorithm."""
    if n <= 0 or d <= 0:
        raise InvalidParameterError(f"need n >= 1 and d >= 1, got n={n} d={d}")
    if not 0.0 <= missing_rate <= 1.0:
        raise InvalidParameterError(f"missing_rate must lie in [0, 1], got {missing_rate}")
    repeats = max(int(repeats), 1)
    prepared_set = frozenset(prepared)
    cal = calibration()
    # Vectorised-kernel terms scale with the active kernel backend: a
    # native backend measured S× faster than numpy divides every `vec`
    # contribution by S while the pure-Python `step` terms stay put, so
    # ``algorithm="auto"`` prices plans for the backend that will run them.
    vec, step = cal.vec / _active_backend_speedup(), cal.step

    pair_elems = float(n) * n * d
    frac = _scanned_fraction(n, k, missing_rate)
    scanned = frac * n

    # Naive: one blocked kernel sweep over all n objects, no preparation.
    costs = {"naive": vec * pair_elems + step * math.ceil(n / 256)}

    # UBB: MaxScore queue build (unless prepared), then per-object exact
    # scores down the queue until Heuristic 1 fires.
    ubb_prep = 0.0 if "ubb" in prepared_set else (vec * n * d * max(math.log2(n), 1.0)) / repeats
    costs["ubb"] = ubb_prep + scanned * (step + vec * n * d)

    # BIG: bitmap index build is ~one pass per distinct value per dimension
    # (bounded by n but typically the Table 2 cardinality ~100); queries
    # replace the O(n·d) exact score with a handful of packed bitmap ops.
    effective_cardinality = min(n, 160)
    big_prep = (
        0.0
        if "big" in prepared_set
        else (vec * n * d * effective_cardinality * 0.5) / repeats
    )
    costs["big"] = big_prep + scanned * step * _BIG_STEP_FACTOR + scanned * vec * n * 0.1

    # Observed-runtime feedback: bounded per-algorithm multipliers learned
    # from QueryStats history (see record_observation).
    return {name: cal.biased(name, seconds) for name, seconds in costs.items()}


def plan_query(
    dataset: "IncompleteDataset",
    k: int,
    *,
    prepared: Sequence[str] = (),
    repeats: int = 1,
) -> QueryPlan:
    """Choose the cheapest exact algorithm for one TKD query.

    Parameters
    ----------
    dataset: the query's dataset (only shape statistics are read).
    k: the answer size.
    prepared: algorithm names whose auxiliary structures already exist
        (their preparation cost is not charged) — the
        :class:`~repro.engine.session.QueryEngine` passes its cache state.
    repeats: expected number of queries that will reuse the preparation;
        amortises index builds for parametrised sweeps.
    """
    with telemetry.trace("planner.plan") as span:
        n, d = dataset.n, dataset.d
        missing_rate = dataset.missing_rate
        costs = estimate_costs(n, d, missing_rate, k, prepared=prepared, repeats=repeats)

        algorithm = min(costs, key=costs.__getitem__)
        options: dict = {}
        if algorithm == "ubb":
            # Blocked exact scoring amortises the per-object kernel dispatch.
            # A constant block keeps the options — and therefore a session's
            # prepared-structure cache key — identical across a k-ladder.
            options["block"] = 64

        if algorithm == "naive":
            reason = (
                f"vectorised scan wins at n={n}, d={d}, σ={missing_rate:.2f} "
                "(bounds too loose or dataset too small to repay preparation)"
            )
        elif algorithm == "ubb":
            reason = (
                f"MaxScore pruning with blocked scoring at k={k}, σ={missing_rate:.2f} "
                "without paying an index build"
            )
        else:
            reason = (
                f"bitmap pruning repays its index at n={n}, k={k}, σ={missing_rate:.2f}"
                + (" (index already prepared)" if "big" in frozenset(prepared) else "")
            )
        span.set("algorithm", algorithm)
        span.set("estimated_seconds", costs[algorithm])
        return QueryPlan(
            algorithm=algorithm,
            options=options,
            reason=reason,
            estimated_seconds=costs[algorithm],
            candidate_seconds=dict(costs),
        )


#: A cold table rebuild costs roughly this many passes over the packed
#: table bytes (stable argsort + one-hot scatter + bitwise accumulate per
#: direction), versus ~1 splice copy per structural patch op. Fitted
#: loosely against the kernels on the Table 2 grid; like the query model,
#: only the ordering has to be right.
_REBUILD_PASS_FACTOR = 10.0
#: Tombstones beyond this dead fraction force a compacting rebuild even
#: when per-delta patch cost still looks cheaper — the debt ceiling.
_MAX_TOMBSTONE_DEBT = 0.5
#: Weight of the amortised tombstone debt in the patch-vs-rebuild margin:
#: each dead slot inflates every future query/patch a little, so patching
#: is charged ``debt_weight × dead_fraction`` of a rebuild per delta.
_DEBT_WEIGHT = 0.25


@dataclass(frozen=True)
class DeltaPlan:
    """Patch-vs-rebuild decision for applying one delta to prepared state."""

    #: ``"patch"`` (splice the existing tables) or ``"rebuild"`` (cold
    #: build over the child's live rows, shedding tombstone debt).
    action: str
    #: One-line human-readable justification.
    reason: str
    #: Modelled cost (seconds) of patching the parent's structures.
    patch_seconds: float = 0.0
    #: Modelled cost (seconds) of rebuilding from scratch.
    rebuild_seconds: float = 0.0
    #: Tombstone debt (dead storage fraction) the child would carry.
    tombstone_debt: float = 0.0

    def summary(self) -> str:
        return (
            f"delta plan: {self.action} ({self.reason}) | "
            f"patch={self.patch_seconds * 1e3:.2f}ms "
            f"rebuild={self.rebuild_seconds * 1e3:.2f}ms "
            f"debt={self.tombstone_debt:.0%}"
        )


def estimate_delta_costs(
    storage_n: int,
    d: int,
    *,
    inserts: int = 0,
    deletes: int = 0,
    updates: int = 0,
    changed_dims: int | None = None,
    tombstones: int = 0,
    tables_ready: bool = True,
) -> dict[str, float]:
    """Modelled seconds for patching vs rebuilding one version's tables.

    ``changed_dims`` is the number of dimensions an average update
    actually changes (updates re-rank only those); defaults to all ``d``.
    The patch estimate charges one table-splice copy per structural op
    per direction, plus the *amortised tombstone debt*: every dead slot
    keeps inflating table width for all later work, so each patched delta
    is charged a slice of the rebuild that would shed the debt.
    """
    if storage_n <= 0 or d <= 0:
        raise InvalidParameterError(f"need storage_n >= 1 and d >= 1, got {storage_n}, {d}")
    cal = calibration()
    new_storage = storage_n + max(int(inserts), 0)
    words = (new_storage + 63) >> 6
    table_bytes = 2.0 * d * (new_storage + 1) * words * 8.0
    splice_bytes = table_bytes / (2.0 * d)  # one direction of one dimension
    changed = d if changed_dims is None else max(min(int(changed_dims), d), 0)

    if not tables_ready:
        # No tables to preserve: "patching" is sentinel bookkeeping only.
        patch = cal.vec * (inserts + updates + deletes + 1) * d * 64
        rebuild = cal.vec * table_bytes * _REBUILD_PASS_FACTOR + cal.step * d
        return {"patch": patch, "rebuild": rebuild, "tombstone_debt": _debt(new_storage, tombstones)}

    rebuild = cal.vec * table_bytes * _REBUILD_PASS_FACTOR + cal.step * d
    structural = inserts * 2 * d + updates * 4 * changed  # splices per delta
    patch = cal.vec * structural * splice_bytes + cal.step * (inserts + updates + deletes)
    debt = _debt(new_storage, tombstones + deletes)
    patch += _DEBT_WEIGHT * debt * rebuild
    return {"patch": patch, "rebuild": rebuild, "tombstone_debt": debt}


def _debt(storage_n: int, tombstones: int) -> float:
    return min(max(tombstones, 0) / max(storage_n, 1), 1.0)


def plan_delta(
    storage_n: int,
    d: int,
    *,
    inserts: int = 0,
    deletes: int = 0,
    updates: int = 0,
    changed_dims: int | None = None,
    tombstones: int = 0,
    tables_ready: bool = True,
) -> DeltaPlan:
    """Decide whether to patch prepared tables in place or rebuild them.

    The session layer calls this on every
    :meth:`~repro.engine.session.QueryEngine.apply_delta`; ``"rebuild"``
    doubles as the lazy compaction trigger (a rebuild over the live rows
    sheds all tombstones). Small deltas patch; bulk rewrites and
    debt-saturated storage rebuild.
    """
    costs = estimate_delta_costs(
        storage_n,
        d,
        inserts=inserts,
        deletes=deletes,
        updates=updates,
        changed_dims=changed_dims,
        tombstones=tombstones,
        tables_ready=tables_ready,
    )
    debt = costs["tombstone_debt"]
    if not tables_ready:
        action, reason = "patch", "no tables built yet — sentinel bookkeeping only"
    elif debt >= _MAX_TOMBSTONE_DEBT:
        action = "rebuild"
        reason = f"tombstone debt {debt:.0%} ≥ {_MAX_TOMBSTONE_DEBT:.0%} — compacting"
    elif costs["rebuild"] < costs["patch"]:
        action = "rebuild"
        reason = (
            f"bulk delta (+{inserts}/-{deletes}/~{updates}) cheaper to rebuild "
            f"at n={storage_n}, d={d}"
        )
    else:
        action = "patch"
        reason = f"splice {inserts + updates + deletes} ops into cached tables"
    return DeltaPlan(
        action=action,
        reason=reason,
        patch_seconds=costs["patch"],
        rebuild_seconds=costs["rebuild"],
        tombstone_debt=debt,
    )


#: A shard's packed-table route costs roughly this many passes over the
#: table bytes (build + one gather sweep), mirroring _REBUILD_PASS_FACTOR.
_SHARD_TABLE_PASSES = 12.0
#: Shard counts ``partitions="auto"`` prices when no budget forces one.
_PARTITION_LADDER = (2, 4, 8)


@dataclass(frozen=True)
class PartitionPlan:
    """Outcome of pricing partitioned vs. monolithic execution."""

    #: ``"partition"`` (run the two-phase protocol) or ``"monolithic"``.
    action: str
    #: Shard count the estimate priced (the best candidate).
    partitions: int
    #: Modelled seconds of the partitioned plan.
    estimated_seconds: float
    #: Modelled seconds of the best monolithic algorithm.
    monolithic_seconds: float
    #: Estimated phase-2 candidate-survival fraction.
    survival: float
    #: One-line human-readable justification.
    reason: str = ""
    #: True when the plan expects out-of-core execution: the shards'
    #: table footprint exceeds the memory budget, so tables spill to
    #: memory-mapped store files under a resident-set budget.
    spill: bool = False
    #: Estimated total prepared-table bytes across all shards.
    table_bytes: int = 0

    def summary(self) -> str:
        text = (
            f"partition plan: {self.action} (P={self.partitions}) — "
            f"partitioned {self.estimated_seconds * 1e3:.1f}ms vs "
            f"monolithic {self.monolithic_seconds * 1e3:.1f}ms, "
            f"est. survival {self.survival:.0%} ({self.reason})"
        )
        if self.spill:
            text += f" [out-of-core: ~{self.table_bytes / 1e6:.0f}MB of shard tables spill]"
        return text


def estimate_survival(n: int, k: int, missing_rate: float, partitions: int) -> float:
    """Expected fraction of objects surviving the phase-1 bound merge.

    Grows with ``k/n`` (a deeper answer lowers τ), with the partition
    count (each shard's summary bound is looser than a global bound, and
    the lower bound is only a ``1/P`` slice of the true score), and with
    the missing rate (missing cells widen every per-dimension count).
    Like the query model, only the ordering has to be right.
    """
    base = min(1.0, 8.0 * max(k, 1) / max(n, 1))
    spread = 0.015 * max(partitions - 1, 0)
    slack = missing_rate * missing_rate
    return float(min(1.0, base + 0.02 + spread + slack))


def estimate_partition_costs(
    n: int,
    d: int,
    missing_rate: float,
    k: int,
    *,
    partitions: int,
) -> dict[str, float]:
    """Modelled seconds of the two-phase protocol over *partitions*
    in-process shards."""
    if partitions < 1:
        raise InvalidParameterError(f"partitions must be >= 1, got {partitions}")
    cal = calibration()
    partitions = min(int(partitions), n)
    m = math.ceil(n / partitions)

    table_bytes = _bitset_table_bytes(m, d)
    if table_bytes <= _BITSET_TABLE_BUDGET_BYTES:
        # Table build + one packed gather sweep over the shard's members.
        shard_seconds = cal.vec * table_bytes * _SHARD_TABLE_PASSES / 8.0
    else:
        shard_seconds = cal.vec * float(m) * m * d  # blocked broadcast scan
    merge_seconds = cal.vec * float(n) * d * partitions  # summary UB sweeps

    survival = estimate_survival(n, k, missing_rate, partitions)
    candidates = survival * n
    if table_bytes <= _BITSET_TABLE_BUDGET_BYTES:
        exchange_shard = cal.vec * candidates * d * (m / 8.0)  # packed gathers
    else:
        exchange_shard = cal.vec * candidates * m * d
    # Fixed per-shard Python work the kernels can't amortise: subset
    # construction, fingerprinting, summary sorts, dispatch bookkeeping.
    per_shard_fixed = cal.step * 100 + cal.vec * m * d * 10
    phase1 = partitions * shard_seconds + merge_seconds
    phase2 = partitions * exchange_shard
    return {
        "total": phase1 + phase2 + per_shard_fixed * partitions,
        "phase1": phase1,
        "phase2": phase2,
        "survival": survival,
    }


def plan_partitioned(
    n: int,
    d: int,
    missing_rate: float,
    k: int,
    *,
    partitions: int | None = None,
    memory_budget: int | None = None,
) -> PartitionPlan:
    """Price partitioned vs. monolithic execution for one query.

    With *partitions* given, only that shard count is priced (the engine
    still executes a forced ``partitions=P`` request either way — the
    plan is what ``partitions="auto"`` consults). Otherwise the shard
    counts of :data:`_PARTITION_LADDER` are searched.

    *memory_budget* adds the out-of-core dimension: when the monolithic
    tables alone would exceed it, partitioning is forced (the monolithic
    engine cannot run at all) and the shard count is doubled until one
    shard's tables fit in ``budget/8`` — so a resident set of at least
    ~8 shard tables cycles under the budget while the rest stay spilled
    on disk. ``plan.spill`` reports whether execution will go
    out-of-core at the chosen P.
    """
    if n <= 0 or d <= 0:
        raise InvalidParameterError(f"need n >= 1 and d >= 1, got n={n} d={d}")
    monolithic = min(estimate_costs(n, d, missing_rate, k).values())

    budget = None if memory_budget is None else max(int(memory_budget), 1)
    # Non-None exactly when the budget *forces* partitioning (the
    # monolithic tables alone would not fit).
    forced_budget = (
        budget if budget is not None and _bitset_table_bytes(n, d) > budget else None
    )
    if partitions is not None:
        ladder = [max(int(partitions), 1)]
    elif forced_budget is not None:
        per_shard_target = max(forced_budget // 8, 1)
        p = 2
        while p < n and _bitset_table_bytes(math.ceil(n / p), d) > per_shard_target:
            p *= 2
        ladder = [min(p, n)]
    else:
        ladder = list(_PARTITION_LADDER)
    best_p: int | None = None
    best: dict[str, float] | None = None
    for p in ladder:
        p = min(max(p, 1), n)
        costs = estimate_partition_costs(n, d, missing_rate, k, partitions=p)
        if best is None or costs["total"] < best["total"]:
            best_p, best = p, costs
    assert best_p is not None and best is not None  # ladder is never empty

    table_bytes = best_p * _bitset_table_bytes(math.ceil(n / best_p), d)
    spill = budget is not None and table_bytes > budget
    if forced_budget is not None:
        action = "partition"
        reason = (
            f"monolithic tables (~{_bitset_table_bytes(n, d) / 1e9:.1f}GB) exceed "
            f"the {forced_budget / 1e6:.0f}MB memory budget — out-of-core is the only route"
        )
    elif best["total"] < monolithic:
        action = "partition"
        reason = f"sharded bounds repay the exchange at n={n}, d={d}, k={k}"
    else:
        action = "monolithic"
        reason = (
            f"partition overhead exceeds the monolithic scan at n={n}, d={d}"
        )
    return PartitionPlan(
        action=action,
        partitions=best_p,
        estimated_seconds=best["total"],
        monolithic_seconds=monolithic,
        survival=best["survival"],
        reason=reason,
        spill=spill,
        table_bytes=int(table_bytes),
    )


#: A partitioned view whose max/mean shard-size ratio exceeds this is
#: worth rebalancing: skewed shards stretch phase-1 wall clock (the
#: largest shard gates every barrier) and loosen its summary bounds.
_REBALANCE_IMBALANCE = 1.5


@dataclass(frozen=True)
class RepartitionPlan:
    """Outcome of pricing a shard rebalance against observed imbalance."""

    #: ``"rebalance"`` (splice shards back to even sizes) or ``"keep"``.
    action: str
    #: Shard count the rebalance would produce.
    partitions: int
    #: Observed max/mean shard-size ratio.
    imbalance: float
    #: Trigger threshold the observation was compared against.
    threshold: float
    #: Modelled seconds of executing the rebalance splices.
    estimated_seconds: float
    #: One-line human-readable justification.
    reason: str = ""

    def summary(self) -> str:
        return (
            f"repartition plan: {self.action} (P={self.partitions}) — "
            f"imbalance {self.imbalance:.2f} vs threshold {self.threshold:.2f}, "
            f"est. {self.estimated_seconds * 1e3:.1f}ms ({self.reason})"
        )


def plan_repartition(
    sizes: Sequence[float],
    d: int,
    *,
    partitions: int | None = None,
    threshold: float = _REBALANCE_IMBALANCE,
) -> RepartitionPlan:
    """Decide whether a partitioned view's shards should be rebalanced.

    *sizes* are the live row counts per shard. The plan prices the
    moved-row volume (each row leaving its shard pays a delete splice
    there and an insert splice in its destination) and triggers when the
    observed ``max/mean`` ratio exceeds *threshold* — the signal
    ``QueryEngine.stats.partition_imbalance`` exposes. The rebalance
    itself is executed as delta splices by
    ``PartitionedDataset.rebalance`` and is bit-identical before/after.
    """
    sizes = [int(s) for s in sizes]
    if not sizes or min(sizes) < 0:
        raise InvalidParameterError(f"shard sizes must be non-negative, got {sizes}")
    cal = calibration()
    total = sum(sizes)
    count = len(sizes) if partitions is None else max(int(partitions), 1)
    mean = total / max(len(sizes), 1)
    imbalance = max(sizes) / mean if mean > 0 else 1.0
    target = total / max(count, 1)
    moved = sum(abs(s - target) for s in sizes) / 2.0
    # Each moved row pays two splices plus its share of the table work.
    estimated = cal.vec * moved * d * 40.0 + cal.step * 50.0 * count
    if len(sizes) < 2 or count < 2:
        action, reason = "keep", "a single shard cannot be rebalanced"
    elif imbalance <= threshold:
        action, reason = "keep", "shard sizes are within the skew threshold"
    else:
        action = "rebalance"
        reason = f"skew {imbalance:.2f} gates phase-1 on the largest shard"
    return RepartitionPlan(
        action=action,
        partitions=count,
        imbalance=float(imbalance),
        threshold=float(threshold),
        estimated_seconds=float(estimated),
        reason=reason,
    )


def explain_plan(
    dataset: "IncompleteDataset",
    k: int,
    *,
    prepared: Sequence[str] = (),
    repeats: int = 1,
) -> str:
    """One-line plan explanation (what ``repro query --explain`` prints)."""
    return plan_query(dataset, k, prepared=prepared, repeats=repeats).summary()


def merge_plan_options(plan: QueryPlan, overrides: Mapping) -> dict:
    """Plan options with caller overrides winning on conflicts."""
    merged = dict(plan.options)
    merged.update(overrides)
    return merged


def supported_options(algorithm_cls: type, options: Mapping) -> dict:
    """Drop options the chosen constructor cannot accept.

    ``algorithm="auto"`` callers may pass options meant for one algorithm
    family (``enable_h1=``, ``bins=``, …) while the planner picks another;
    forwarding those verbatim would crash data-dependently. Options the
    resolved class does not declare are discarded (the plan, not the
    option, decided the algorithm).
    """
    parameters = inspect.signature(algorithm_cls.__init__).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return dict(options)
    return {name: value for name, value in options.items() if name in parameters}


# One-shot import-time calibration: ~2 ms of microbenchmarks replace the
# hand-fitted constants with this machine's, before the first plan is made.
calibration()
