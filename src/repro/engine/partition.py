"""Partitioned execution: one query's data sharded across workers.

Every algorithm in the reproduction — the paper's UBB/BIG/IBIG family
included — evaluates one monolithic dataset in one process, so single-query
latency and the maximum workable ``n`` are capped by one core's bitset
build. This module removes that cap by exploiting a decomposition the
paper's own upper-bound machinery (Lemma 2) composes with naturally:

    ``score(o) = Σ_i |{p ∈ partition_i : o ≻ p}|``

— a tuple's global dominance score is the **sum of its per-partition
scores**, so per-partition upper bounds let shards discard most objects
before any cross-partition exchange (the same structure emphasised for
dynamic TKD by Kosmatopoulos & Tsichlas).

:class:`PartitionedDataset` splits an
:class:`~repro.core.dataset.IncompleteDataset` into ``P`` contiguous
row shards, each a first-class dataset with its own fingerprint — and
therefore its own :class:`~repro.engine.kernels.PreparedDataset` cache
entry, persistent-store warm start, and delta patching. Deltas against
the full dataset route to the owning shard (:meth:`PartitionedDataset.apply_delta`),
so incremental maintenance stays ``O(|delta|)`` per *affected* partition.

:func:`execute_partitioned` runs the two-phase distributed top-k protocol:

**Phase 1 (local).** Each shard computes exact *local* scores for its own
members and publishes a :class:`ShardSummary` — per-dimension bucketed
rank samples of its ``hi`` sentinel column (``O(d·B)`` floats, exchanged
*instead of raw rows*). For any foreign object ``o`` the summary yields a
sound Lemma-2-style bound on the shard's contribution:

    ``UB_i(o) = min_t |{p ∈ shard_i : hi_p[t] ≥ lo_o[t]}|``

(each count upper-bounded from the bucket boundaries; dimensions ``o``
misses contribute the full shard size and drop out of the ``min``).

**Merge.** Every object's global *lower* bound is its own-shard exact
score; its *upper* bound adds the foreign summaries. With ``τ`` = the
k-th largest lower bound, any object whose upper bound falls below ``τ``
is provably outside the answer.

**τ refinement.** Summary bounds are loose when missingness is high, so
before the full exchange a small head of the survivors — the highest
upper bounds — is scored *exactly* first; the k-th largest of those
exact scores is a true lower bound on the global k-th best and replaces
``τ`` (the TPUT move, transplanted to dominance scores). This typically
collapses the candidate set by an order of magnitude.

**Phase 2 (exchange).** Only the surviving candidate set's sentinel rows
are shipped; each shard answers exact foreign counts for them
(:meth:`~repro.engine.kernels.PreparedDataset.foreign_dominated_counts`,
riding the packed tables), and the per-shard sums are the exact global
scores. Selection over the candidates is **bit-identical** to the
monolithic engine under deterministic tie-breaking: every true top-k
object has ``score ≥ τ`` (both τ's are sound lower bounds on the k-th
best score, so it survived), and every pruned object has
``score ≤ UB < τ`` strictly (so it can neither enter nor tie into the
answer).

With ``workers=N`` both phases fan out over one process pool; workers
keep their shard's prepared structures in a process-global cache between
phases and warm-start them from the persistent store under the shard's
own fingerprint key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import InvalidParameterError
from . import telemetry
from .backend import SharedTables, unlink_shared
from .kernels import PreparedDataset, _bounds, dominated_counts
from .telemetry import clock as _clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.dataset import IncompleteDataset
    from ..core.delta import DatasetDelta

__all__ = [
    "PartitionShard",
    "PartitionedDataset",
    "ShardSummary",
    "execute_partitioned",
]

#: Bucket-boundary count of one shard summary dimension. 128 samples keep
#: the per-shard exchange at O(d·128) floats while bounding the count
#: slack at shard_size/128 per dimension.
_SUMMARY_BINS = 128

#: Candidate batches shipped to the pool are chunked so one phase-2
#: payload never exceeds a few MB of sentinel rows.
_PROBE_CHUNK = 65536

#: Byte cap on one phase-2 exchange window's sentinel payload (lo + hi
#: rows of the survivors in flight at once). Survivor sets are streamed
#: window by window instead of broadcast whole — bit-identical, but the
#: exchange footprint stops scaling with the survivor count.
_EXCHANGE_WINDOW_BYTES = 8 << 20

#: Smallest τ-refinement head worth an extra exchange round: the head is
#: ``max(4k, this)`` of the highest upper bounds, scored exactly to pull
#: τ up to a true global bound before the main exchange.
_MIN_REFINE_HEAD = 64

#: Bucket edges per axis of a summary's 2-D grid sketches. 32 edges give
#: a (33×33) suffix-count grid per dimension pair — ~8KB — that prunes
#: the correlated-dimension slack the per-dimension ``min`` cannot see.
_GRID_BINS = 32

#: Above this shard count the flat P-way summary merge (``O(P·n)``
#: probes) gives way to the two-level tree merge: ~√P group envelopes
#: over everyone, per-shard descent only for pass-1 survivors.
_TREE_MERGE_MIN_SHARDS = 16


def _grid_edges(column: np.ndarray, bins: int = _GRID_BINS) -> np.ndarray:
    """Sorted finite bucket edges covering one sentinel column."""
    finite = np.unique(column[np.isfinite(column)])
    if finite.size > bins:
        sel = np.unique(np.round(np.linspace(0, finite.size - 1, bins)).astype(np.intp))
        finite = finite[sel]
    return finite


class ShardSummary:
    """Per-dimension bucketed rank samples of one shard's sentinel columns.

    For each dimension the shard's ``hi`` column (value, or ``+inf`` for
    missing) *and* ``lo`` column (value, or ``-inf``) are sorted
    ascending and sampled at ``B`` positions; the retained
    ``(value, rank)`` pairs bound, for any probe value ``v``, the counts
    ``|{p : hi_p ≥ v}|`` and ``|{p : lo_p > v}|`` from above: the last
    sampled value on the safe side of ``v`` pins a bound on ``v``'s
    insertion rank. With every position sampled (``m ≤ B``) the bounds
    are exact.

    Two complementary bounds come out of one summary (see
    :meth:`upper_bound_counts`): the Lemma-2-style *necessity* bound
    ``min_t |{hi_p ≥ lo_o}|`` (tight at low missingness) and the
    *strict-witness union* bound ``Σ_t |{lo_p > hi_o}|`` (a dominated
    member must be strictly worse somewhere — tight at high missingness,
    where almost every per-dimension necessity count degenerates to the
    shard size).

    A third family sharpens both: per disjoint dimension *pair*
    ``(2i, 2i+1)`` a small 2-D suffix-count grid over the two ``hi``
    columns bounds ``|{p : hi_p[a] ≥ lo_o[a] ∧ hi_p[b] ≥ lo_o[b]}|`` —
    a joint necessity count the per-dimension ``min`` overestimates
    whenever the dimensions are correlated. Grid cells count members
    whose hi-bucket is at least the probe's lo-bucket on *both* axes;
    bucketing rounds the probe down and the member up, so the cell sum
    only ever over-counts (sound at any resolution).
    """

    __slots__ = ("count", "values", "lo_values", "ranks", "grids")

    def __init__(
        self,
        count: int,
        values: list[np.ndarray],
        lo_values: list[np.ndarray],
        ranks: np.ndarray,
        grids: "list[tuple] | None" = None,
    ) -> None:
        self.count = int(count)
        self.values = values
        self.lo_values = lo_values
        #: One sampled-position array shared by every dimension and both
        #: sentinel sides (all columns are sampled at the same ranks).
        self.ranks = ranks
        #: ``(dim_a, dim_b, edges_a, edges_b, cells)`` suffix-count grids,
        #: one per disjoint dimension pair.
        self.grids = list(grids) if grids else []

    @classmethod
    def build(cls, dataset: "IncompleteDataset", *, bins: int = _SUMMARY_BINS) -> "ShardSummary":
        lo, hi = _bounds(dataset)
        return cls.from_bounds(lo, hi, bins=bins)

    @classmethod
    def from_bounds(
        cls, lo: np.ndarray, hi: np.ndarray, *, bins: int = _SUMMARY_BINS
    ) -> "ShardSummary":
        """Summarise a ``(m, d)`` sentinel block directly.

        Lets callers summarise *any* contiguous row run — a group of
        shards in the tree merge — without materialising a dataset.
        """
        m, d = hi.shape
        if m <= bins:
            idx = np.arange(m, dtype=np.intp)
        else:
            idx = np.unique(np.round(np.linspace(0, m - 1, bins)).astype(np.intp))
        values = [np.sort(hi[:, dim])[idx] for dim in range(d)]
        lo_values = [np.sort(lo[:, dim])[idx] for dim in range(d)]
        return cls(m, values, lo_values, idx, cls._build_grids(hi))

    @staticmethod
    def _build_grids(hi: np.ndarray) -> list[tuple]:
        """One 2-D suffix-count grid per disjoint ``hi`` dimension pair.

        ``cells[ia, ib]`` counts members whose hi-bucket (rank_right over
        the finite edges — ``+inf``/missing lands in the top bucket) is
        ``≥ ia`` on axis *a* and ``≥ ib`` on axis *b*.
        """
        _, d = hi.shape
        grids: list[tuple] = []
        for a in range(0, d - 1, 2):
            b = a + 1
            edges_a = _grid_edges(hi[:, a])
            edges_b = _grid_edges(hi[:, b])
            bucket_a = np.searchsorted(edges_a, hi[:, a], side="right")
            bucket_b = np.searchsorted(edges_b, hi[:, b], side="right")
            counts = np.zeros((edges_a.size + 1, edges_b.size + 1), dtype=np.int64)
            np.add.at(counts, (bucket_a, bucket_b), 1)
            cells = counts[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
            grids.append((a, b, edges_a, edges_b, np.ascontiguousarray(cells)))
        return grids

    @property
    def nbytes(self) -> int:
        return (
            self.ranks.nbytes
            + sum(v.nbytes + lv.nbytes for v, lv in zip(self.values, self.lo_values))
            + sum(ea.nbytes + eb.nbytes + cells.nbytes for _, _, ea, eb, cells in self.grids)
        )

    def upper_bound_counts(
        self, probe_lo: "np.ndarray | _Probes", probe_hi: np.ndarray | None = None
    ) -> np.ndarray:
        """Sound upper bounds on this shard's score contribution per probe.

        *probe_lo*/*probe_hi* are ``(b, d)`` sentinel matrices (missing →
        ``∓inf``), or *probe_lo* is a prebuilt :class:`_Probes` index over
        them (*probe_hi* is then ignored). Returns ``(b,)`` int64 bounds —
        the minimum of the necessity bound ``min_t |{p : hi_p[t] ≥ lo_o[t]}|``
        (every dominated member must pass the ≤ test on *all* dimensions)
        and, when probe ``hi`` columns are given, the strict-witness union
        bound ``Σ_t |{p : lo_p[t] > hi_o[t]}|`` (every dominated member
        must be strictly worse on *some* dimension). Both are
        upper-bounded from the bucket samples, so the combined bound
        stays sound at any bin resolution.

        Every bucket search runs over a column's ``u`` *distinct* probe
        values and is gathered back through the inverse, so one call
        costs ``O(u·log B + b)`` per column instead of ``O(b·log B)``.
        """
        probes = probe_lo if isinstance(probe_lo, _Probes) else _Probes(probe_lo, probe_hi)
        count, ranks = self.count, self.ranks

        def rank_bound(values: np.ndarray, column: tuple, side: str) -> np.ndarray:
            # Samples before j are on the safe side of v, so the count
            # past v is ≤ m − ranks[j-1] − 1; j == 0 bounds nothing.
            unique, inverse = column
            j = np.searchsorted(values, unique, side=side)
            bound = np.where(j > 0, count - ranks[np.maximum(j - 1, 0)] - 1, count)
            return bound[inverse]

        out = np.full(probes.size, count, dtype=np.int64)
        for values, column in zip(self.values, probes.lo):
            # |{hi ≥ v}| from the left insertion rank of v = lo_o[t].
            np.minimum(out, rank_bound(values, column, "left"), out=out)
        for dim_a, dim_b, edges_a, edges_b, cells in self.grids:
            # lo_o ≤ hi_p ⟹ rank_left(lo_o) ≤ rank_right(hi_p): the
            # probe's bucket floor never exceeds a qualifying member's
            # bucket, so the suffix cell over-counts the joint test.
            (ua, inv_a), (ub, inv_b) = probes.lo[dim_a], probes.lo[dim_b]
            ia = np.searchsorted(edges_a, ua, side="left")[inv_a]
            ib = np.searchsorted(edges_b, ub, side="left")[inv_b]
            np.minimum(out, cells[ia, ib], out=out)
        if probes.hi is None:
            return out
        union = np.zeros(probes.size, dtype=np.int64)
        for values, column in zip(self.lo_values, probes.hi):
            # |{lo > v}| from the right insertion rank of v = hi_o[t].
            union += rank_bound(values, column, "right")
        return np.minimum(out, union)


class _Probes:
    """Distinct-value index over a probe block's sentinel columns.

    Holds ``np.unique(col, return_inverse=True)`` for every ``lo`` (and,
    when given, ``hi``) column, so each summary searches its bucket
    samples once per distinct value — the per-value economy the paper's
    bitmap index is built on — instead of once per probe row. Inverses
    are stored in the narrowest unsigned dtype that fits (``uint8`` for
    the ≤255-value columns of integer-domain data), keeping the index
    small next to the ``(b, d)`` floats it replaces.
    """

    __slots__ = ("size", "lo", "hi")

    def __init__(self, probe_lo: np.ndarray, probe_hi: np.ndarray | None = None) -> None:
        self.size = int(probe_lo.shape[0])
        self.lo = [self._index(column) for column in probe_lo.T]
        self.hi = None if probe_hi is None else [self._index(column) for column in probe_hi.T]

    @staticmethod
    def _index(column: np.ndarray) -> tuple:
        unique, inverse = np.unique(column, return_inverse=True)
        return unique, inverse.astype(np.min_scalar_type(unique.size), copy=False)

    @property
    def distinct(self) -> int:
        """Distinct values summed over every indexed column."""
        columns = self.lo + (self.hi or [])
        return sum(unique.size for unique, _ in columns)

    def take(self, rows: np.ndarray) -> "_Probes":
        """The index of a row subset: shared unique values, sliced inverses."""
        view = _Probes.__new__(_Probes)
        view.size = int(rows.size)
        view.lo = [(unique, inverse[rows]) for unique, inverse in self.lo]
        view.hi = None if self.hi is None else [(u, inv[rows]) for u, inv in self.hi]
        return view


class PartitionShard:
    """One shard: a contiguous row range materialised as its own dataset."""

    __slots__ = ("dataset", "start")

    def __init__(self, dataset: "IncompleteDataset", start: int) -> None:
        self.dataset = dataset
        #: Global row index of this shard's first row (concatenation offset).
        self.start = int(start)

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def stop(self) -> int:
        return self.start + self.dataset.n

    def fingerprint(self) -> str:
        """The shard dataset's own identity — its cache and store key."""
        return self.dataset.fingerprint()


class PartitionedDataset:
    """A dataset split into ``P`` row shards, each independently prepared.

    The shards partition the row axis, so the concatenation of the shard
    datasets holds exactly the full dataset's rows — the invariant that
    makes per-partition score sums exact and lets deltas route to their
    owning shard. The concatenation need not follow dataset row order:
    :attr:`order` maps *concatenation positions* to dataset rows
    (``None`` means identity), which is what lets unowned inserts route
    to the least-loaded shard and :meth:`rebalance` splice rows between
    shards while the underlying dataset version stays untouched. A shard
    emptied by deletions is dropped.
    """

    def __init__(
        self,
        dataset: "IncompleteDataset",
        partitions: int,
        *,
        _shards: "list[PartitionShard] | None" = None,
        _order: "np.ndarray | None" = None,
    ) -> None:
        if not isinstance(partitions, (int, np.integer)) or isinstance(partitions, bool):
            raise InvalidParameterError(f"partitions must be a positive integer, got {partitions!r}")
        if partitions < 1:
            raise InvalidParameterError(f"partitions must be >= 1, got {partitions}")
        self.dataset = dataset
        #: Concatenation position → dataset row (``None`` = identity).
        self.order = _order
        if _shards is not None:
            self.shards = _shards
            return
        count = int(min(partitions, dataset.n))
        base, extra = divmod(dataset.n, count)
        self.shards: list[PartitionShard] = []
        start = 0
        for j in range(count):
            size = base + (1 if j < extra else 0)
            self.shards.append(
                PartitionShard(dataset.subset(range(start, start + size)), start)
            )
            start += size

    @property
    def partitions(self) -> int:
        """Current shard count (may differ from the requested ``P`` after deltas)."""
        return len(self.shards)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(shard.n for shard in self.shards)

    @property
    def imbalance(self) -> float:
        """Largest-to-mean shard size ratio — the repartition signal."""
        sizes = self.sizes
        return max(sizes) / (sum(sizes) / len(sizes))

    def shard_of_row(self, row: int) -> int:
        """Index of the shard owning global dataset *row*."""
        pos = row
        if self.order is not None:
            matches = np.flatnonzero(self.order == row)
            if matches.size == 0:
                raise InvalidParameterError(f"row {row} outside [0, {self.dataset.n})")
            pos = int(matches[0])
        for j, shard in enumerate(self.shards):
            if shard.start <= pos < shard.stop:
                return j
        raise InvalidParameterError(f"row {row} outside [0, {self.dataset.n})")

    def apply_delta(self, delta: "DatasetDelta", *, child: "IncompleteDataset | None" = None):
        """Route one global delta to its owning shards.

        Returns ``(child_view, advanced)`` where *child_view* is the
        partitioned view of the child version and *advanced* lists one
        ``(parent_shard_dataset, sub_delta, child_shard_dataset)`` triple
        per shard the delta touched (*child* is ``None`` when the shard
        was emptied and dropped). Untouched shards keep their dataset
        object — and therefore their fingerprint and every cache entry
        keyed on it. Pass *child* when the caller already materialised
        ``dataset.apply_delta(delta)`` (the engine always has) so the
        full-dataset clone is not paid twice.
        """
        from ..core.delta import DatasetDelta  # deferred: core imports the engine

        if child is None:
            child = self.dataset.apply_delta(delta)
        if delta.is_empty:
            return self, []
        inserts = int(delta.inserted_values.shape[0])
        insert_ids = tuple(child.ids[child.n - inserts :]) if inserts else ()

        n = self.dataset.n
        order = self.order
        inv = None
        if order is not None:
            inv = np.empty(n, dtype=np.intp)
            inv[order] = np.arange(n, dtype=np.intp)
        keep = np.ones(n, dtype=bool)
        if delta.deleted_rows:
            keep[list(delta.deleted_rows)] = False
        old2new = (np.cumsum(keep) - 1).astype(np.intp)

        # Unowned inserts go to the least-loaded live shard (ties break
        # toward the lowest shard index for determinism), keeping routed
        # insert streams from piling onto one shard.
        target = -1
        if inserts:
            target = min(range(len(self.shards)), key=lambda j: (self.shards[j].n, j))

        new_shards: list[PartitionShard] = []
        order_parts: list[np.ndarray] = []
        advanced = []
        start = 0
        for j, shard in enumerate(self.shards):
            span = (
                np.arange(shard.start, shard.stop, dtype=np.intp)
                if order is None
                else order[shard.start : shard.stop]
            )
            if inv is None:
                local_del = [r - shard.start for r in delta.deleted_rows if shard.start <= r < shard.stop]
                upd_pos = [
                    (i, r - shard.start)
                    for i, r in enumerate(delta.updated_rows)
                    if shard.start <= r < shard.stop
                ]
            else:
                local_del = [
                    int(inv[r]) - shard.start
                    for r in delta.deleted_rows
                    if shard.start <= inv[r] < shard.stop
                ]
                upd_pos = [
                    (i, int(inv[r]) - shard.start)
                    for i, r in enumerate(delta.updated_rows)
                    if shard.start <= inv[r] < shard.stop
                ]
            shard_inserts = inserts if j == target else 0
            surviving = old2new[span[keep[span]]]
            if not local_del and not upd_pos and not shard_inserts:
                new_shards.append(PartitionShard(shard.dataset, start))
                order_parts.append(surviving)
                start += shard.n
                continue
            ids = shard.dataset.ids
            sub = DatasetDelta(
                delta.d,
                inserted_values=delta.inserted_values if shard_inserts else None,
                inserted_ids=insert_ids if shard_inserts else None,
                deleted_rows=local_del,
                deleted_ids=[ids[r] for r in local_del],
                updated_rows=[r for _, r in upd_pos],
                updated_ids=[ids[r] for _, r in upd_pos],
                updated_values=delta.updated_values[[i for i, _ in upd_pos]]
                if upd_pos
                else None,
            )
            if len(local_del) == shard.n and not shard_inserts:
                advanced.append((shard.dataset, sub, None))
                continue  # shard emptied: drop it
            shard_child = shard.dataset.apply_delta(sub)
            advanced.append((shard.dataset, sub, shard_child))
            new_shards.append(PartitionShard(shard_child, start))
            if shard_inserts:
                surviving = np.concatenate(
                    [surviving, np.arange(child.n - inserts, child.n, dtype=np.intp)]
                )
            order_parts.append(surviving)
            start += shard_child.n
        child_order: "np.ndarray | None"
        if order_parts:
            child_order = np.concatenate(order_parts).astype(np.intp, copy=False)
        else:
            child_order = np.zeros(0, dtype=np.intp)
        if np.array_equal(child_order, np.arange(child.n, dtype=np.intp)):
            child_order = None
        view = PartitionedDataset(
            child, max(len(new_shards), 1), _shards=new_shards, _order=child_order
        )
        return view, advanced

    def rebalance(self, partitions: "int | None" = None):
        """Restore an even row split by splicing rows between shards.

        Rows move through ordinary per-shard deltas — trailing/leading
        runs deleted, displaced runs re-inserted — so the underlying
        dataset version, its fingerprint, and the query answer are all
        untouched; only the shard boundaries (and :attr:`order`) change.
        Returns ``(view, advanced)`` with the same
        ``(parent_shard_dataset, sub_delta, child_shard_dataset)``
        contract as :meth:`apply_delta`, letting the engine advance each
        touched shard's prepared structures incrementally.
        """
        from ..core.delta import DatasetDelta  # deferred: core imports the engine

        n = self.dataset.n
        count = len(self.shards) if partitions is None else int(partitions)
        count = max(1, min(count, n))
        base, extra = divmod(n, count)
        order = self.order
        values = self.dataset.values
        all_ids = self.dataset.ids

        def rows_at(s: int, e: int) -> np.ndarray:
            """Dataset rows sitting at concatenation positions [s, e)."""
            if order is None:
                return np.arange(s, e, dtype=np.intp)
            return order[s:e]

        new_shards: list[PartitionShard] = []
        advanced = []
        start = 0
        for j in range(count):
            size = base + (1 if j < extra else 0)
            s, e = start, start + size
            start = e
            # Derive the new shard from the old shard holding position s:
            # its overlap with [s, e) survives in place, the rest is
            # deleted, and positions past its end are inserted from the
            # dataset (they belonged to later shards).
            src = max(i for i, sh in enumerate(self.shards) if sh.start <= s)
            sh = self.shards[src]
            keep_stop = min(e, sh.stop)
            local_del = list(range(0, s - sh.start)) + list(
                range(keep_stop - sh.start, sh.n)
            )
            append = rows_at(sh.stop, e) if e > sh.stop else np.zeros(0, dtype=np.intp)
            if not local_del and not append.size:
                new_shards.append(PartitionShard(sh.dataset, s))
                continue
            ids = sh.dataset.ids
            sub = DatasetDelta(
                self.dataset.d,
                inserted_values=values[append] if append.size else None,
                inserted_ids=tuple(all_ids[r] for r in append) if append.size else None,
                deleted_rows=local_del,
                deleted_ids=[ids[r] for r in local_del],
            )
            shard_child = sh.dataset.apply_delta(sub)
            advanced.append((sh.dataset, sub, shard_child))
            new_shards.append(PartitionShard(shard_child, s))
        view = PartitionedDataset(
            self.dataset, count, _shards=new_shards, _order=order
        )
        return view, advanced

    def validate(self) -> None:
        """Assert the concatenation invariant (tests and debugging)."""
        order = self.order
        expected_values = self.dataset.values if order is None else self.dataset.values[order]
        expected_ids = (
            self.dataset.ids
            if order is None
            else [self.dataset.ids[r] for r in order]
        )
        values = np.concatenate([shard.dataset.values for shard in self.shards], axis=0)
        same = (values == expected_values) | (np.isnan(values) & np.isnan(expected_values))
        if values.shape != expected_values.shape or not same.all():
            raise InvalidParameterError("shard concatenation no longer matches the dataset")
        ids = [i for shard in self.shards for i in shard.dataset.ids]
        if ids != list(expected_ids):
            raise InvalidParameterError("shard id order no longer matches the dataset")
        if order is not None and (
            order.shape != (self.dataset.n,)
            or not np.array_equal(np.sort(order), np.arange(self.dataset.n))
        ):
            raise InvalidParameterError("order is not a permutation of the dataset rows")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PartitionedDataset n={self.dataset.n} shards={self.sizes}>"


# ---------------------------------------------------------------------------
# Two-phase distributed protocol
# ---------------------------------------------------------------------------


def execute_partitioned(
    view: PartitionedDataset,
    k: int,
    *,
    engine=None,
    workers: int | None = None,
    tie_break: str = "index",
    rng=None,
    summary_bins: int = _SUMMARY_BINS,
    memory_budget: "int | None" = None,
    spill_store=None,
):
    """Answer one TKD query through the two-phase partition protocol.

    Bit-identical to the monolithic engine under ``tie_break="index"``
    (see the module docstring for the exactness argument); under
    ``tie_break="random"`` the boundary tie is drawn among the surviving
    candidates — a different (equally arbitrary, paper-sanctioned) draw
    than the monolithic permutation.

    ``workers=N`` (N ≥ 2) fans both phases out over a process pool; the
    sequential path reuses *engine*'s shared prepared-dataset cache and
    store warm-start per shard.

    With *spill_store* and *memory_budget* set, shard tables live as
    memory-mapped spill files in the store and only a bounded resident
    set of attachments is kept hot (out-of-core mode): phase 1 builds
    each shard's structures, spills them, and drops the anonymous RAM
    copy; phase 2 re-attaches shards on demand through the engine
    cache's resident-set manager, so peak RSS tracks *memory_budget*
    instead of the sum of all shard tables.
    """
    from ..core.result import TKDResult, select_top_k, validate_k
    from ..core.stats import QueryStats

    dataset = view.dataset
    n = dataset.n
    kk = validate_k(k, n)
    shards = view.shards
    pool_workers = 0 if workers is None else int(workers)
    if pool_workers < 0:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    spill = spill_store is not None

    # -- phase 1: local scores + summaries ---------------------------------
    start_p1 = _clock()
    shm_metas: dict[str, dict] = {}
    provider = None
    with telemetry.trace("partition.phase1") as span:
        span.set("shards", len(shards)).set("workers", pool_workers).set("spill", spill)
        if pool_workers > 1 and len(shards) > 1:
            locals_, summaries, pool, shm_metas = _phase1_parallel(
                view,
                engine,
                min(pool_workers, len(shards)),
                summary_bins,
                spill_store if spill else None,
            )
        elif spill:
            # Out-of-core: build → spill → drop, never holding more than the
            # resident set of mmap attachments (plus the one shard in build).
            pool = None
            locals_, summaries = [], []
            budget = memory_budget if memory_budget is not None else 0
            provider = lambda shard: _attach_spilled(engine, spill_store, shard, budget)
            for shard in shards:
                prepared = provider(shard)
                locals_.append(
                    dominated_counts(shard.dataset, prepared=prepared).astype(np.int64, copy=False)
                )
                summaries.append(ShardSummary.build(shard.dataset, bins=summary_bins))
                del prepared  # resident-set manager decides what stays mapped
        else:
            pool = None
            prepared_shards = []
            provider = lambda shard: prepared_shards[shards.index(shard)]
            locals_, summaries = [], []
            for shard in shards:
                prepared = _shard_prepared(engine, shard)
                prepared.warm()
                prepared_shards.append(prepared)
                locals_.append(
                    dominated_counts(shard.dataset, prepared=prepared).astype(np.int64, copy=False)
                )
                summaries.append(ShardSummary.build(shard.dataset, bins=summary_bins))
    phase1_seconds = _clock() - start_p1

    try:
        # -- merge: bounds, tau, surviving candidates ----------------------
        # Everything from here to selection happens in *concatenation
        # space*: position p belongs to the shard whose [start, stop)
        # contains p, and maps to dataset row perm[p] (identity when the
        # view was never re-routed or rebalanced).
        with telemetry.trace("partition.merge") as span:
            perm = view.order
            lo_g, hi_g = _bounds(dataset)
            if perm is None:
                lo, hi = lo_g, hi_g
            else:
                lo, hi = lo_g[perm], hi_g[perm]
            lower = np.concatenate(locals_)  # own-shard exact score == global lower bound
            tau = int(np.partition(lower, n - kk)[n - kk])
            upper, merge_groups, envelope_survivors, distinct = _merged_upper_bounds(
                shards, summaries, lower, lo, hi, tau, bins=summary_bins
            )
            candidates = np.flatnonzero(upper >= tau).astype(np.intp)
            span.set("merge", "tree" if merge_groups else "flat")
            span.set("merge_groups", merge_groups)
            span.set("envelope_survivors", envelope_survivors)
            span.set("distinct_probes", distinct)
            span.set("tau", tau).set("candidates", int(candidates.size))

        # -- phase 2: exact cross-partition scores for the survivors -------
        start_p2 = _clock()
        with telemetry.trace("partition.phase2") as p2:
            total = lower.copy()
            refined = np.zeros(0, dtype=np.intp)
            exchange_windows = 0
            if len(shards) > 1:
                exchange = _Exchanger(view, pool, provider, lo, hi, shm_metas)
                # τ refinement: exactly score the highest-upper-bound head
                # first; the k-th best of those *actual* scores is a sound —
                # and usually far tighter — lower bound on the global k-th.
                # The head is small (O(k)), so it runs in-parent with one
                # broadcast per shard instead of burning a pool round.
                head = min(candidates.size, max(4 * kk, _MIN_REFINE_HEAD))
                if head >= kk and head < candidates.size:
                    with telemetry.trace("partition.refine") as span:
                        by_upper = np.argsort(-upper[candidates], kind="stable")
                        refined = candidates[by_upper[:head]]
                        _refine_in_parent(view, refined, lo, hi, total)
                        refined_tau = int(np.partition(total[refined], head - kk)[head - kk])
                        if refined_tau > tau:
                            tau = refined_tau
                            candidates = candidates[upper[candidates] >= tau]
                        span.set("refined", int(refined.size)).set("tau", tau)
                        span.set("candidates", int(candidates.size))
                with telemetry.trace("partition.exchange") as span:
                    # Drop already-refined rows by scatter rather than
                    # np.isin: O(n) bytes beats isin's sort for index sets.
                    is_refined = np.zeros(n, dtype=bool)
                    is_refined[refined] = True
                    mask = ~is_refined[candidates]
                    exchange.add_exact(candidates[mask], total)
                    exchange_windows = exchange.windows
                    span.set("survivors", int(candidates.size))
                    span.set("windows", exchange_windows)
            p2.set("tau", tau).set("candidates", int(candidates.size))
        phase2_seconds = _clock() - start_p2
    finally:
        # Segments the phase-1 workers exported on our behalf: the pool
        # outlives this query (it is the shared session pool), so the
        # names must go now, success or not. Spill metas carry no "name";
        # their files belong to the store and persist across queries.
        for meta in shm_metas.values():
            if "name" in meta:
                unlink_shared(meta["name"])

    with telemetry.trace("partition.select") as span:
        eligible = np.zeros(n, dtype=bool)
        eligible[candidates] = True
        eligible[refined] = True  # exactly scored either way; keeps ties honest
        if perm is not None:
            # Scatter concat-space scores back to dataset rows so selection
            # tie-breaks on the *dataset* row index, same as the monolithic
            # engine (non-eligible rows carry lower bounds; the mask hides them).
            scattered = np.zeros_like(total)
            scattered[perm] = total
            total = scattered
            scattered_mask = np.zeros(n, dtype=bool)
            scattered_mask[perm[np.flatnonzero(eligible)]] = True
            eligible = scattered_mask
        selection = select_top_k(total, kk, tie_break=tie_break, rng=rng, eligible=eligible)
        survivors = int(eligible.sum())
        span.set("survivors", survivors).set("survival", float(survivors) / max(n, 1))

    stats = QueryStats(
        algorithm="partitioned", n=n, d=dataset.d, k=kk, scores_computed=n
    )
    stats.candidates = survivors
    stats.index_bytes = sum(summary.nbytes for summary in summaries)
    # Phase 1 through selection: the merge and the final selection run
    # outside both phase clocks, so the phase sum would under-report.
    stats.query_seconds = _clock() - start_p1
    if telemetry.enabled():
        registry = telemetry.metrics()
        registry.count("partition.queries")
        registry.observe("partition.phase1_seconds", phase1_seconds)
        registry.observe("partition.phase2_seconds", phase2_seconds)
        registry.gauge("partition.survival", float(survivors) / max(n, 1))
    # Deprecated compatibility shim: the protocol counters below are now
    # recorded as span attributes on the partition.* spans (telemetry);
    # ``stats.extra`` keeps carrying them for existing readers.
    stats.extra.update(
        partitions=len(shards),
        shard_sizes=list(view.sizes),
        workers=pool_workers,
        tau=tau,
        refined=int(refined.size),
        survival=float(survivors) / max(n, 1),
        phase1_seconds=phase1_seconds,
        phase2_seconds=phase2_seconds,
        merge="tree" if merge_groups else "flat",
        merge_groups=merge_groups,
        spill=spill,
        exchange_windows=exchange_windows,
    )
    return TKDResult.from_selection(
        dataset,
        selection,
        total[selection],
        k=kk,
        algorithm="partitioned",
        stats=stats,
    )


def _merged_upper_bounds(
    shards: "list[PartitionShard]",
    summaries: "list[ShardSummary]",
    lower: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tau: int,
    *,
    bins: int = _SUMMARY_BINS,
):
    """Global upper bounds from the shard summaries (flat or tree merge).

    Returns ``(upper, groups, survivors, distinct)`` in concatenation
    space. One :class:`_Probes` index over ``lo``/``hi`` is built once and
    shared by every summary probe, so each probe costs ``O(u·log B + b)``
    for ``u`` distinct column values. At ``P`` shards the flat merge
    probes every summary for every position. Past
    :data:`_TREE_MERGE_MIN_SHARDS` a two-level tree takes over: pass 1
    probes only ``G ≈ √P`` *group* summaries (built over contiguous shard
    runs straight from the sentinel block) for a sound envelope
    ``Σ_g UB_g ≥ score``; pass 2 descends into the per-shard summaries
    only for the envelope's τ-survivors. ``groups`` is 0 on the flat
    path; ``survivors`` counts the pass-1 survivors (every position on
    the flat path) and ``distinct`` the index's summed distinct values.
    """
    n = lower.shape[0]
    probes = _Probes(lo, hi)
    if len(shards) <= _TREE_MERGE_MIN_SHARDS:
        upper = lower.copy()
        for shard, summary in zip(shards, summaries):
            ub = summary.upper_bound_counts(probes)
            upper += ub
            upper[shard.start : shard.stop] -= ub[shard.start : shard.stop]
        return upper, 0, n, probes.distinct

    group_count = max(2, int(round(len(shards) ** 0.5)))
    step = -(-len(shards) // group_count)
    envelope = np.zeros(n, dtype=np.int64)
    groups = 0
    for g0 in range(0, len(shards), step):
        run = shards[g0 : g0 + step]
        gs, ge = run[0].start, run[-1].stop
        group_summary = ShardSummary.from_bounds(lo[gs:ge], hi[gs:ge], bins=bins)
        envelope += group_summary.upper_bound_counts(probes)
        groups += 1
    # The envelope bounds the *full* score (own-shard contribution
    # included), so it is directly comparable with τ.
    cand = np.flatnonzero(envelope >= tau).astype(np.intp)
    if cand.size:
        survivors = probes.take(cand)
        tight = lower[cand].astype(np.int64, copy=True)
        for shard, summary in zip(shards, summaries):
            ub = summary.upper_bound_counts(survivors)
            inside = (cand >= shard.start) & (cand < shard.stop)
            ub[inside] = 0  # own-shard part is already exact in `lower`
            tight += ub
        envelope[cand] = np.minimum(envelope[cand], tight)
    return envelope, groups, int(cand.size), probes.distinct


def _refine_in_parent(
    view: PartitionedDataset,
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    total: np.ndarray,
) -> None:
    """Exactly score the small refinement head against every shard.

    One ``(head, m)`` comparison pass per shard and dimension — no
    tables, no pool round; the head is ``O(k)`` so this is cheaper than
    shipping it anywhere. Folding the dimensions one at a time keeps
    the reductions off numpy's slow short-axis ``all``/``any``.
    """
    for shard in view.shards:
        foreign = rows[(rows < shard.start) | (rows >= shard.stop)]
        if not foreign.size:
            continue
        member_lo = lo[shard.start : shard.stop]
        member_hi = hi[shard.start : shard.stop]
        foreign_lo, foreign_hi = lo[foreign], hi[foreign]
        le_all = np.ones((foreign.size, shard.n), dtype=bool)
        lt_any = np.zeros((foreign.size, shard.n), dtype=bool)
        for t in range(lo.shape[1]):
            le_all &= foreign_lo[:, None, t] <= member_hi[None, :, t]
            lt_any |= foreign_hi[:, None, t] < member_lo[None, :, t]
        total[foreign] += np.count_nonzero(le_all & lt_any, axis=1)


def _shard_prepared(engine, shard: PartitionShard) -> PreparedDataset:
    """The shard's PreparedDataset — through the engine's caches when given."""
    if engine is not None:
        return engine.prepare_dataset(shard.dataset)
    return PreparedDataset(shard.dataset)


def _spill_prepared(store, fingerprint: str, dataset) -> "tuple[PreparedDataset, int]":
    """Attach a shard's tables from its spill file, building it on a miss.

    Build → spill → reattach keeps the hot copy file-backed: dropping
    the attachment returns clean pages to the OS with no write-back.
    Falls back to the anonymous RAM build if the spill write fails
    (disk full), so out-of-core mode degrades rather than erroring.
    """
    spilled = store.get_shard_tables(fingerprint)
    if spilled is None:
        built = PreparedDataset(dataset)
        built.warm()
        try:
            spilled = store.put_shard_tables(fingerprint, built)
        except OSError:
            return built, built.nbytes
        del built
    return spilled.prepared(), spilled.nbytes


def _attach_spilled(engine, store, shard: PartitionShard, budget: int) -> PreparedDataset:
    """Resident-set entry point: the shard's mmap-backed PreparedDataset.

    Attachments are LRU-managed by the engine cache's resident-set
    manager under *budget* bytes; evicting one just drops the mapping
    (the spill file stays), so a re-attach is a page-cache hit, not a
    rebuild.
    """
    if engine is not None:
        cache = engine.dataset_cache
    else:
        from .session import _shared_dataset_cache

        cache = _shared_dataset_cache
    fingerprint = shard.fingerprint()
    dataset = shard.dataset
    return cache.attach_spilled(
        fingerprint,
        lambda: _spill_prepared(store, fingerprint, dataset),
        max_resident_bytes=budget,
    )


# ---------------------------------------------------------------------------
# Process-pool workers
# ---------------------------------------------------------------------------

#: Per-worker-process cache: shard fingerprint → PreparedDataset, so the
#: phase-2 task for a shard reuses the structures phase 1 built whenever
#: the pool schedules it onto the same process (payloads carry a
#: shared-memory meta — and a sentinel-only rebuild fallback — for when
#: it does not). Size-capped because the pool is shared across queries.
_WORKER_SHARDS: dict[str, PreparedDataset] = {}
_WORKER_HANDLES: dict[str, SharedTables] = {}
_WORKER_SHARDS_CAP = 8

#: Names of transfer segments this worker exported for its parent. The
#: parent adopts cleanup by name; this atexit net only matters when the
#: parent dies before adopting (unlink_shared is double-unlink safe).
_EXPORTED_NAMES: list[str] = []


def _cache_worker_shard(
    fingerprint: str, prepared: PreparedDataset, handle: SharedTables | None = None
) -> None:
    while len(_WORKER_SHARDS) >= _WORKER_SHARDS_CAP:
        evicted = next(iter(_WORKER_SHARDS))
        _WORKER_SHARDS.pop(evicted, None)
        stale = _WORKER_HANDLES.pop(evicted, None)
        if stale is not None:
            stale.close()
    _WORKER_SHARDS[fingerprint] = prepared
    if handle is not None:
        _WORKER_HANDLES[fingerprint] = handle


def _cleanup_exported() -> None:  # pragma: no cover - crash net
    for name in _EXPORTED_NAMES:
        unlink_shared(name)
    _EXPORTED_NAMES.clear()


def _shard_payload(
    shard: PartitionShard, store_dir: str | None, bins: int, spill: bool = False
) -> tuple:
    dataset = shard.dataset
    return (
        shard.fingerprint(),
        dataset.values,
        dataset.directions,
        store_dir,
        bins,
        spill,
        telemetry.propagation_context(),
    )


def _phase1_worker(payload: tuple):
    """Pool worker: one shard's local scores, summary and shared tables.

    Besides the phase-1 answer, the worker exports its freshly prepared
    structures into a shared-memory segment (``owner=False``: the parent
    adopts cleanup by name) so phase-2 tasks landing on *other* workers
    attach zero-copy instead of re-preparing the shard. In spill mode
    the store's spill file *is* the shared medium: the worker builds and
    spills the shard, then serves (and advertises, via a spill meta) the
    mmap attachment instead of an anonymous shm segment.

    The trailing payload element is the coordinator's trace context;
    spans recorded here come back as the trailing result element.
    """
    import atexit

    from ..core.dataset import IncompleteDataset

    fingerprint, values, directions, store_dir, bins, spill, trace_ctx = payload
    telemetry.begin_remote(trace_ctx)
    dataset = IncompleteDataset(values, directions=directions)
    if spill and store_dir:
        from .store import PersistentStore

        with telemetry.trace("partition.phase1.shard") as span:
            span.set("n", dataset.n).set("spill", True)
            store = PersistentStore(store_dir)
            prepared, _ = _spill_prepared(store, fingerprint, dataset)
            local = dominated_counts(dataset, prepared=prepared).astype(np.int64, copy=False)
            summary = ShardSummary.build(dataset, bins=bins)
            _cache_worker_shard(fingerprint, prepared)
            spilled = store.get_shard_tables(fingerprint)
        meta = spilled.meta() if spilled is not None else None
        return local, summary, meta, telemetry.end_remote()
    with telemetry.trace("partition.phase1.shard") as span:
        span.set("n", dataset.n)
        prepared = None
        if store_dir:
            from .store import PersistentStore

            prepared = PersistentStore(store_dir).get_prepared(fingerprint)
            if prepared is not None and prepared.n != dataset.n:
                prepared = None
        if prepared is None:
            prepared = PreparedDataset(dataset)
        prepared.warm()
        local = dominated_counts(dataset, prepared=prepared).astype(np.int64, copy=False)
        summary = ShardSummary.build(dataset, bins=bins)
        _cache_worker_shard(fingerprint, prepared)
        meta = None
        try:
            handle = SharedTables.create(prepared, owner=False)
        except (OSError, ValueError):
            handle = None  # /dev/shm full: phase 2 rebuilds from the pickle
        if handle is not None:
            if not _EXPORTED_NAMES:
                atexit.register(_cleanup_exported)
            _EXPORTED_NAMES.append(handle.meta["name"])
            meta = handle.meta
            handle.close()
    return local, summary, meta, telemetry.end_remote()


def _phase2_worker(payload: tuple) -> tuple:
    """Pool worker: exact foreign counts for one shard × candidate chunk.

    Returns ``(counts, spans)`` — the spans recorded under the trace
    context the payload carried (empty when the coordinator is not
    tracing).
    """
    from ..core.dataset import IncompleteDataset

    fingerprint, values, directions, probe_lo, probe_hi, shm_meta, trace_ctx = payload
    telemetry.begin_remote(trace_ctx)
    span = telemetry.trace("partition.phase2.probe")
    span.__enter__()
    span.set("rows", int(probe_lo.shape[0]))
    prepared = _WORKER_SHARDS.get(fingerprint)
    if prepared is None and shm_meta is not None:
        if shm_meta.get("kind") == "spill":
            from .store import SpilledTables

            try:
                prepared = SpilledTables.from_meta(shm_meta).prepared()
            except (OSError, ValueError, KeyError):
                prepared = None  # spill file gone; rebuild locally below
            if prepared is not None:
                _cache_worker_shard(fingerprint, prepared)
        else:
            try:
                handle = SharedTables.attach(shm_meta)
            except (OSError, ValueError):
                handle = None  # segment gone; rebuild locally below
            if handle is not None:
                prepared = handle.prepared()
                _cache_worker_shard(fingerprint, prepared, handle)
    if prepared is None:
        prepared = PreparedDataset(IncompleteDataset(values, directions=directions))
        _cache_worker_shard(fingerprint, prepared)
    counts = prepared.foreign_dominated_counts(probe_lo, probe_hi)
    span.__exit__(None, None, None)
    return counts, telemetry.end_remote()


def _phase1_parallel(
    view: PartitionedDataset, engine, pool_size: int, bins: int, spill_store=None
):
    """Fan phase 1 out over the shared session pool.

    Returns ``(locals, summaries, pool, shm_metas)`` — the pool stays
    open for phase 2 (and for the next query: it is the process-global
    :func:`repro.engine.session._process_pool`), and ``shm_metas`` maps
    shard fingerprints to the transfer handles the workers exported:
    shared-memory metas (whose cleanup the caller now owns) or, in
    spill mode, store-owned spill-file metas (nothing to clean up).
    """
    from .session import _process_pool

    spill = spill_store is not None
    store = spill_store if spill else getattr(engine, "store", None)
    store_dir = str(store.directory) if store is not None else None
    pool = _process_pool(pool_size)
    payloads = [_shard_payload(shard, store_dir, bins, spill) for shard in view.shards]
    results = list(pool.map(_phase1_worker, payloads))
    for r in results:
        telemetry.absorb_spans(r[3])
    shm_metas = {
        shard.fingerprint(): r[2]
        for shard, r in zip(view.shards, results)
        if r[2] is not None
    }
    return [r[0] for r in results], [r[1] for r in results], pool, shm_metas


class _Exchanger:
    """One phase-2 exchange surface serving both τ refinement and the
    final candidate exchange (in-process or over the phase-1 pool)."""

    def __init__(self, view, pool, provider, lo, hi, shm_metas=None) -> None:
        self._view = view
        self._pool = pool
        #: ``shard -> PreparedDataset`` callable — a list lookup on the
        #: resident path, the resident-set attach in spill mode. Holding
        #: a callable instead of the prepared list keeps this object
        #: from pinning every shard's tables in RAM at once.
        self._provider = provider
        self._lo = lo
        self._hi = hi
        self._shm_metas = shm_metas or {}
        #: Fixed-size windows the survivor sets were streamed in
        #: (reported as ``exchange_windows`` in partition stats).
        self.windows = 0

    def _window_rows(self) -> int:
        """Survivor rows per exchange window, sized so one window's
        sentinel payload (lo + hi rows) stays under the byte cap."""
        d = int(self._lo.shape[1]) if self._lo.ndim == 2 else 1
        per_row = 2 * self._lo.dtype.itemsize * max(d, 1)
        return max(1, _EXCHANGE_WINDOW_BYTES // per_row)

    def add_exact(self, rows: np.ndarray, total: np.ndarray) -> None:
        """Fold every shard's exact foreign contribution into ``total[rows]``.

        The survivor set is streamed in fixed-size windows rather than
        broadcast whole, so per-exchange bytes stay capped however many
        candidates survive phase 1. Contributions are integer adds into
        disjoint-per-shard positions, so the window order (and any
        window size) is bit-identical to the one-shot exchange.
        """
        if rows.size == 0:
            return
        lo, hi = self._lo, self._hi
        window = self._window_rows()
        self.windows += -(-rows.size // window)
        if self._pool is None:
            # Shard-major: table attaches dominate in spill mode, so each
            # shard is attached once; the inner windows bound the gathered
            # sentinel temporaries instead.
            for shard in self._view.shards:
                foreign = rows[(rows < shard.start) | (rows >= shard.stop)]
                if foreign.size:
                    prepared = self._provider(shard)
                    for start in range(0, foreign.size, window):
                        sel = foreign[start : start + window]
                        total[sel] += prepared.foreign_dominated_counts(
                            lo[sel], hi[sel]
                        )
            return
        # Window-major over the pool: one window's futures (all shards)
        # are submitted and drained before the next window starts, so the
        # pickled sentinel bytes in flight are capped too.
        for start in range(0, rows.size, window):
            wrows = rows[start : start + window]
            futures = []
            for shard in self._view.shards:
                foreign = wrows[(wrows < shard.start) | (wrows >= shard.stop)]
                fingerprint = shard.fingerprint()
                for chunk_start in range(0, foreign.size, _PROBE_CHUNK):
                    chunk = foreign[chunk_start : chunk_start + _PROBE_CHUNK]
                    payload = (
                        fingerprint,
                        shard.dataset.values,
                        shard.dataset.directions,
                        lo[chunk],
                        hi[chunk],
                        self._shm_metas.get(fingerprint),
                        telemetry.propagation_context(),
                    )
                    futures.append(
                        (chunk, self._pool.submit(_phase2_worker, payload))
                    )
            for chunk, future in futures:
                counts, spans = future.result()
                total[chunk] += counts
                telemetry.absorb_spans(spans)
