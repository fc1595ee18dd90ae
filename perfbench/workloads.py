"""The three benchmark workloads.

Each workload is a closed loop: one client in one process issues its next
call when the previous one returns. A workload generates its inputs from
the seed before any clock starts (:meth:`__init__`), builds a fresh
session on demand (:meth:`fresh`, timed as set-up), issues timed calls
(:meth:`step`), checks every answer afterwards (:meth:`verify`) and reads
its layer counters from the session (:meth:`layer_metrics`).
"""

from __future__ import annotations

import gc
import statistics
import traceback

import numpy as np

from reference import Reference, StreamModel
from repro.datasets.synthetic import anticorrelated_dataset, independent_dataset
from repro.engine import QueryEngine, telemetry
from repro.engine.session import PreparedDatasetCache

clock = telemetry.clock


class Call:
    """One timed public call and what it returned."""

    __slots__ = ("kind", "seconds", "answer", "error", "info")

    def __init__(self, kind: str, seconds: float, answer=None, error: str | None = None, info=None):
        self.kind = kind
        self.seconds = seconds
        self.answer = answer
        self.error = error
        self.info = info


def _timed(kind: str, span: str, fn, info=None) -> Call:
    """Run one public call inside the benchmark's own span, timing it."""
    with telemetry.trace(span):
        start = clock()
        try:
            answer = fn()
        except Exception as exc:  # a failed call is counted, the loop goes on
            seconds = clock() - start
            traceback.print_exc()
            return Call(kind, seconds, error=f"{type(exc).__name__}: {exc}", info=info)
        return Call(kind, clock() - start, answer=answer, info=info)


def _fresh_engine(**kwargs) -> QueryEngine:
    """A session with a private prepared cache and no persistent store."""
    return QueryEngine(dataset_cache=PreparedDatasetCache(), store=None, **kwargs)


class Session:
    """What a fresh set-up hands to the timed phase."""

    def __init__(self, engine: QueryEngine, calls: list[Call], handle=None) -> None:
        self.engine = engine
        self.calls = calls
        self.handle = handle


class PaperQueries:
    """``engine.query(ds, k)`` with ``algorithm="auto"`` over five paper shapes."""

    name = "paper_queries"
    why = (
        "paper algorithms (BIG's bitmap index) under the planner and session caches: "
        "five n=20000 IND/AC shapes across d and sigma, k-ladders, every 10th call repeated"
    )
    setups = 5
    #: (generator, d, missing rate, datasets); equal shares, n=20000 each.
    #: The cheap shapes rotate over three datasets each, so that one seed's
    #: data moves the percentiles less; sigma=0.8 keeps one, since each of
    #: its queries (and its reference) costs about 1.5 s.
    SHAPES = (
        ("IND", 4, 0.3, 3),
        ("AC", 4, 0.3, 3),
        ("IND", 6, 0.1, 3),
        ("IND", 4, 0.1, 3),
        ("IND", 4, 0.8, 1),
    )
    N = 20000
    FIRST_K = 10
    REPEAT_EVERY = 10
    #: k asked of the planner-regret probe (below every ladder rung, so a miss).
    REGRET_K = 9
    #: Exact routes the regret probe races auto against. naive (~30 s per
    #: dataset), ubb (1-40 s) and esb (5-20 s) are never the fastest here.
    REGRET_ROUTES = ("big", "ibig")

    def __init__(self, seed: int) -> None:
        self.datasets, self.shape_of = [], []
        self.members: list[list[int]] = []
        for shape, (kind, d, sigma, copies) in enumerate(self.SHAPES):
            make = independent_dataset if kind == "IND" else anticorrelated_dataset
            self.members.append([])
            for copy in range(copies):
                self.members[shape].append(len(self.datasets))
                self.shape_of.append(shape)
                self.datasets.append(
                    make(self.N, d, missing_rate=sigma, seed=[seed, shape, copy], name=f"{kind}-d{d}-s{sigma}-{copy}")
                )
        self._rng = np.random.default_rng([seed, 100])
        self._rung = [self.FIRST_K] * len(self.SHAPES)
        self._round: list[int] = []
        self._history = [(index, self.FIRST_K) for index in range(len(self.datasets))]
        self._calls = 0

    def label(self, index: int) -> str:
        kind, d, sigma, _ = self.SHAPES[self.shape_of[index]]
        return f"{kind} d={d} sigma={sigma} dataset {index}"

    def fresh(self) -> Session:
        engine = _fresh_engine()
        calls = [self._query(engine, index, self.FIRST_K) for index in range(len(self.datasets))]
        return Session(engine, calls)

    def _next(self) -> tuple[int, int]:
        """The next (dataset, k): every REPEAT_EVERY-th call repeats a seeded
        earlier one; the others take the next shape of a seeded round, the
        next of that shape's datasets and the next rung of its k-ladder. The
        mix of a run is thus fixed up to one call per shape, so the
        percentiles do not wander between clusters."""
        self._calls += 1
        if self._calls % self.REPEAT_EVERY == 0:
            return self._history[int(self._rng.integers(len(self._history)))]
        if not self._round:
            self._round = list(self._rng.permutation(len(self.SHAPES)))
        shape = int(self._round.pop())
        self._rung[shape] += 1
        members = self.members[shape]
        index = members[self._rung[shape] % len(members)]
        self._history.append((index, self._rung[shape]))
        return index, self._rung[shape]

    def _query(self, engine: QueryEngine, index: int, k: int) -> Call:
        """One query; an answer served by the result cache is a "cached"
        call, a separate operation type kept out of the query percentiles."""
        hits = engine.stats.result_hits
        call = _timed("query", "bench.query", lambda: engine.query(self.datasets[index], k), info=(index, k))
        if engine.stats.result_hits > hits:
            call.kind = "cached"
        return call

    def stratum(self, call: Call):
        """Calls of one stratum cost alike: cached answers, else per shape."""
        return call.kind if call.kind == "cached" else self.shape_of[call.info[0]]

    def step(self, session: Session) -> list[Call]:
        index, k = self._next()
        return [self._query(session.engine, index, k)]

    def verify(self, calls: list[Call]) -> dict[int, str]:
        tops = {}
        for call in calls:
            if call.error is None:
                index, k = call.info
                tops[index] = max(tops.get(index, 0), k)
        references = {
            index: Reference(self.datasets[index].minimized, top) for index, top in tops.items()
        }
        failures = {}
        for index, call in enumerate(calls):
            if call.error is not None:
                failures[index] = call.error
                continue
            dataset, k = call.info
            reason = references[dataset].check(k, call.answer.indices, call.answer.scores)
            if reason is not None:
                failures[index] = f"{self.label(dataset)} k={k}: {reason}"
        return failures

    def layer_metrics(self, session: Session, calls: list[Call]) -> dict:
        stats = session.engine.stats
        computed = [c for c in calls if c.error is None and c.kind == "query"]
        out = {
            "session.result_hit_rate": stats.hit_rate,
            "session.prepared_hit_rate": stats.prepared_hits / max(stats.prepared_hits + stats.prepared_misses, 1),
        }
        if computed:
            results = [c.answer.stats for c in computed]
            out["core.scored_fraction"] = float(np.mean([s.scores_computed / max(s.n, 1) for s in results]))
            out["core.pruned_h1"] = float(np.mean([s.pruned_h1 for s in results]))
            out["core.pruned_h2"] = float(np.mean([s.pruned_h2 for s in results]))
            out["core.pruned_h3"] = float(np.mean([s.pruned_h3 for s in results]))
        index_bytes = {}
        for call in calls:
            if call.error is None:
                dataset = call.info[0]
                index_bytes[dataset] = max(index_bytes.get(dataset, 0), call.answer.stats.index_bytes)
        out["core.index_bytes"] = float(sum(index_bytes.values()))
        # How auto resolved the set-up's first query on each dataset: a fixed
        # set of calls, so the counts repeat exactly from run to run.
        for call in session.calls:
            if call.error is None:
                key = f"planner.choice.{call.answer.algorithm}"
                out[key] = out.get(key, 0.0) + 1.0
        ratios = self.regret(session)
        out["planner.regret"] = statistics.geometric_mean(ratios.values())
        out["planner.regret_by_shape"] = ratios
        return out

    def regret(self, session: Session) -> dict:
        """auto latency / fastest exact route latency, one k per shape.

        auto runs on the warmed session; each route runs on its own fresh
        session, warmed with one query first, so every timing is a warm
        cache miss.
        """
        ratios = {}
        for members in self.members:
            index = members[0]
            dataset = self.datasets[index]
            start = clock()
            session.engine.query(dataset, self.REGRET_K)
            auto = clock() - start
            fastest = None
            for route in self.REGRET_ROUTES:
                engine = _fresh_engine()
                engine.query(dataset, self.REGRET_K + 1, algorithm=route)
                start = clock()
                engine.query(dataset, self.REGRET_K, algorithm=route)
                seconds = clock() - start
                fastest = seconds if fastest is None else min(fastest, seconds)
                del engine
                gc.collect()
            ratios[self.label(index)] = auto / fastest
        return ratios


class OutOfCoreSpill:
    """Partitioned out-of-core queries: 32 shards, 2 workers, 2560 KB budget.

    n=20000 keeps a call near 1 s, so a run times well over 20 calls and
    its p50 has more than ten samples beyond it; at n=100000 a call takes
    about 3.4 s. The budget is 64 MB scaled by the shards' table bytes
    (n squared per shard), so the tables exceed it about five times over,
    as at n=100000: every call spills, nothing stays resident, and
    ``partition.merge`` is still the largest phase (about 0.55 s of 1 s).
    """

    name = "outofcore_spill"
    why = (
        "partition, spill I/O, store and process pool: IND n=20000 d=4 sigma=0.3, "
        "32 partitions, 2 workers, 2560K memory budget, new k every call"
    )
    setups = 7
    N = 20000
    PARTITIONS = 32
    WORKERS = 2
    BUDGET = "2560K"
    FIRST_K = 10

    def __init__(self, seed: int) -> None:
        self.dataset = independent_dataset(self.N, 4, missing_rate=0.3, seed=[seed, 0], name="IND-spill")
        self._k = self.FIRST_K

    def fresh(self) -> Session:
        engine = _fresh_engine(memory_budget=self.BUDGET)
        return Session(engine, [self._query(engine, self.FIRST_K)])

    def _query(self, engine: QueryEngine, k: int) -> Call:
        return _timed(
            "query",
            "bench.query",
            lambda: engine.query(self.dataset, k, partitions=self.PARTITIONS, workers=self.WORKERS),
            info=k,
        )

    def stratum(self, call: Call):
        return call.kind

    def step(self, session: Session) -> list[Call]:
        self._k += 1
        return [self._query(session.engine, self._k)]

    def verify(self, calls: list[Call]) -> dict[int, str]:
        top = max((c.info for c in calls if c.error is None), default=1)
        reference = Reference(self.dataset.minimized, top)
        failures = {}
        for index, call in enumerate(calls):
            if call.error is not None:
                failures[index] = call.error
                continue
            reason = reference.check(call.info, call.answer.indices, call.answer.scores)
            if reason is not None:
                failures[index] = f"k={call.info}: {reason}"
        return failures

    def layer_metrics(self, session: Session, calls: list[Call]) -> dict:
        extras = [c.answer.stats.extra for c in calls if c.error is None and c.answer.stats.extra]
        cache = session.engine.dataset_cache
        out = {
            "session.result_hit_rate": session.engine.stats.hit_rate,
            "spill.resident_hit_rate": cache.resident_hit_rate,
        }
        if extras:
            out["partition.survival"] = float(np.mean([e["survival"] for e in extras]))
            out["partition.refined"] = float(np.mean([e["refined"] for e in extras]))
            out["partition.merge_groups"] = float(np.mean([e["merge_groups"] for e in extras]))
        return out


class UpdateStream:
    """A ``ContinuousQuery`` under a 1:1:1 insert/delete/update stream."""

    name = "update_stream"
    why = (
        "write path (delta, table splice, maintained scores, splice/popcount kernels): "
        "IND n=12000 d=4 sigma=0.3, k=10 and k=50 subscribed, each write then one read"
    )
    #: A set-up takes about 0.25 s (the first in a process about 0.4 s), so
    #: many are cheap and steady the median.
    setups = 15
    N = 12000
    D = 4
    SIGMA = 0.3
    KS = (10, 50)
    #: Writes after which the maintained score vector is snapshotted and
    #: later compared with cold scores (seeded offsets inside these ranges).
    CHECKPOINT_RANGES = ((1, 60), (60, 200), (200, 400))

    def __init__(self, seed: int) -> None:
        self.dataset = independent_dataset(self.N, self.D, missing_rate=self.SIGMA, seed=[seed, 0], name="IND-stream")
        self._rng = np.random.default_rng([seed, 200])
        self._live = list(self.dataset.ids)
        self._ops: list[str] = []
        self._serial = 0
        self.checkpoints = {int(self._rng.integers(lo, hi)) for lo, hi in self.CHECKPOINT_RANGES}
        #: write number -> {id: maintained score}
        self.snapshots: dict[int, dict] = {}
        self._writes = 0

    def fresh(self) -> Session:
        engine = _fresh_engine()
        handle = engine.continuous(self.dataset)
        for k in self.KS:
            handle.subscribe(k)
        calls = [_timed("read", "stream.read", handle.results, info=0)]
        return Session(engine, calls, handle)

    def _row(self) -> np.ndarray:
        row = np.floor(self._rng.random(self.D) * 100) + 1
        hide = self._rng.random(self.D) < self.SIGMA
        hide[int(self._rng.integers(self.D))] = False  # keep one dimension observed
        row[hide] = np.nan
        return row

    def _next_write(self):
        """The next seeded write: (op, id, row or None)."""
        if not self._ops:
            self._ops = [str(op) for op in self._rng.permutation(["insert", "delete", "update"])]
        op = self._ops.pop()
        if op == "insert":
            self._serial += 1
            object_id = f"s{self._serial}"
            self._live.append(object_id)
            return op, object_id, self._row()
        position = int(self._rng.integers(len(self._live)))
        object_id = self._live[position]
        if op == "delete":
            self._live[position] = self._live[-1]
            self._live.pop()
            return op, object_id, None
        return op, object_id, self._row()

    def stratum(self, call: Call):
        return call.kind

    def step(self, session: Session) -> list[Call]:
        handle = session.handle
        op, object_id, row = self._next_write()
        if op == "insert":
            fn = lambda: handle.insert(row[None, :], ids=[object_id])
        elif op == "delete":
            fn = lambda: handle.delete([object_id])
        else:
            fn = lambda: handle.update({object_id: row})
        self._writes += 1
        write = _timed(op, f"stream.{op}", fn, info=(object_id, row))
        read = _timed("read", "stream.read", handle.results, info=self._writes)
        if self._writes in self.checkpoints:
            self.snapshots[self._writes] = dict(zip(handle.dataset.ids, handle.scores.tolist()))
        return [write, read]

    def verify(self, calls: list[Call]) -> dict[int, str]:
        model = StreamModel(self.dataset.ids, self.dataset.minimized)
        failures = {}
        writes = 0
        for index, call in enumerate(calls):
            if call.kind != "read":
                writes += 1
            if call.error is not None:
                failures[index] = call.error
                continue
            if call.kind == "read":
                if call.info == 0:  # a set-up's first read, before any write
                    pass
                elif call.info != writes:
                    failures[index] = "read out of order with its write"
                    continue
                for k in self.KS:
                    reason = model.check(k, call.answer.get(k, []))
                    if reason is not None:
                        failures[index] = f"after {writes} writes, k={k}: {reason}"
                        break
                snapshot = self.snapshots.get(writes) if call.info else None
                if snapshot is not None:
                    reason = self._check_snapshot(model, snapshot)
                    if reason is not None:
                        failures[index] = f"checkpoint after {writes} writes: {reason}"
                continue
            object_id, row = call.info
            getattr(model, call.kind)(object_id, *(() if call.kind == "delete" else (row,)))
        return failures

    @staticmethod
    def _check_snapshot(model: StreamModel, snapshot: dict) -> str | None:
        """Maintained scores vs the model's and a cold recomputation."""
        ids = list(snapshot)
        maintained = np.array([snapshot[i] for i in ids], dtype=np.int64)
        if not np.array_equal(maintained, model.scores_for(ids)):
            return "maintained scores differ from the replayed exact scores"
        if not np.array_equal(maintained, model.cold_scores(ids)):
            return "maintained scores differ from cold scores"
        return None

    def layer_metrics(self, session: Session, calls: list[Call]) -> dict:
        stats = session.engine.stats
        return {
            "session.tables_patched": float(stats.tables_patched),
            "session.tables_rebuilt": float(stats.tables_rebuilt),
        }


WORKLOADS = {w.name: w for w in (PaperQueries, OutOfCoreSpill, UpdateStream)}
