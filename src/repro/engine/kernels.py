"""Blocked, fully vectorised dominance kernels (the engine's bottom layer).

Every TKD algorithm in :mod:`repro.core` ultimately needs one of a small
set of primitives over Definition 1 dominance: "which objects does a block
of query objects dominate?", "how many dominate it?", "how many are
incomparable?", and the Lemma 2 / Lemma 3 upper bounds. The seed code
answered these object-by-object (``dominated_mask`` in a Python loop);
this module answers them for whole *blocks* of objects at a time, through
two routes:

**Broadcast kernel** (:func:`score_block`). Replace missing values by
sentinels — ``lo = value or −∞``, ``hi = value or +∞`` — and Definition 1
collapses to two float comparisons with no mask plumbing::

    o ≻ p   ⇔   all_i lo[o,i] <= hi[p,i]   and   any_i hi[o,i] < lo[p,i]

(a missing dimension on either side satisfies the ``le`` test and can
never witness the strict test, exactly the "common observed dimensions"
rule). One ``(b, n, d)`` broadcast yields the dominated-masks of ``b``
objects at once.

**Packed-bitset kernel** (:class:`_BitsetTables`). The ``le`` test per
dimension is a threshold test, so the objects satisfying it form a
*suffix* of that dimension's sort order, and the objects failing the
strict test form a *prefix*. A threshold only ever falls between two
distinct values, so one cumulative row per distinct value holds every
such set: the paper's range-encoded bitmap index (Section 4.3, Fig. 6),
here packed into uint64 words. A whole block of objects is then scored
with ``2·d`` row gathers, ``2·(d−1)`` packed ANDs and one popcount::

    score(o) = popcount( ∩_i SUFFIX_i[rank_ge(o,i)]  &  ~∩_i PREFIX_i[rank_le(o,i)] )

which touches ``n/64`` words per object per dimension instead of ``n``
booleans. The same two accumulators, combined the other way round, give
the *dominators* of ``o`` (``p ≻ o ⇔ ∀i lo[p,i] ≤ hi[o,i] ∧ ∃i hi[p,i] <
lo[o,i]`` — the first half is exactly the "no strict witness" prefix set,
the second the complement of the suffix set), so one pass serves both
directions; and the packed rows unpack into exact boolean dominated-masks
(:func:`unpack_mask_bits`), which is how ``dominance_matrix`` and the MFD
operator ride this route too.

Tables are ``O(d·u·n/8)`` bytes for ``u`` distinct values per column
(``O(d·n²/8)`` only on continuous data), so they are built only when a
batch is big enough to amortise the cost and the tables fit a fixed
memory budget
— **or when a previous call already paid for them**: tables live in a
:class:`PreparedDataset` cached by content fingerprint inside the engine
session layer (:mod:`repro.engine.session`), so repeated sweeps, the MFD
operator, ``query_many`` batches and the experiment harness build them
once per dataset. Module-level calls reach that cache through a small
default-session shim (:func:`_shared_prepared`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import InvalidParameterError
from . import telemetry
from ._lockcheck import make_lock
from .backend import get_backend
from .telemetry import clock as _clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.dataset import IncompleteDataset

__all__ = [
    "auto_block",
    "score_block",
    "dominated_counts",
    "dominated_masks",
    "dominator_counts",
    "dominator_masks",
    "incomparable_counts",
    "max_bit_score_counts",
    "upper_bound_scores",
    "dominance_matrix_blocked",
    "unpack_mask_bits",
    "PreparedDataset",
    "SentinelDelta",
    "prepared_for_scan",
]

#: Target element count of one (b, n, d) broadcast tensor. 4M float
#: comparisons keeps the temporaries of a kernel step within a few MB.
_BLOCK_ELEMENT_BUDGET = 4_000_000

#: Ceiling for the packed prefix/suffix tables (Σ(u+1)·⌈n/64⌉·8 bytes).
_BITSET_TABLE_BUDGET_BYTES = 256 * 1024 * 1024

#: Datasets below this size never consult the shared prepared cache: a
#: content fingerprint costs O(n·d) and tables are never built this small,
#: so the broadcast kernel is the whole story anyway.
_MIN_SHARED_N = 512

#: Row-batch bound for the (b, W) bitset gather temporaries.
_BITSET_ROW_STEP = 8192

#: Per-byte popcounts for the uint64→uint8 view (endianness-agnostic).
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")  # NumPy >= 2.0


def auto_block(n: int, d: int, *, budget: int = _BLOCK_ELEMENT_BUDGET) -> int:
    """Pick a block size so one ``(b, n, d)`` broadcast stays near *budget*."""
    per_row = max(int(n) * max(int(d), 1), 1)
    return int(np.clip(budget // per_row, 8, 1024))


def _as_rows(rows, n: int) -> np.ndarray:
    idx = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.intp)
    if idx.ndim != 1:
        raise InvalidParameterError(f"rows must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidParameterError(f"row indices must lie in [0, {n}), got [{idx.min()}, {idx.max()}]")
    return idx


def _validate_block(block: int | None) -> int | None:
    if block is None:
        return None
    block = int(block)
    if block <= 0:
        raise InvalidParameterError(f"block must be >= 1, got {block}")
    return block


def _bounds(dataset: "IncompleteDataset") -> tuple[np.ndarray, np.ndarray]:
    """The ``lo``/``hi`` sentinel matrices (missing → −∞ / +∞)."""
    values = dataset.minimized
    observed = dataset.observed
    lo = np.where(observed, values, -np.inf)
    hi = np.where(observed, values, np.inf)
    return lo, hi


# ---------------------------------------------------------------------------
# Broadcast route
# ---------------------------------------------------------------------------

def score_block(dataset: "IncompleteDataset", rows: Sequence[int]) -> np.ndarray:
    """Dominated-masks for a whole block of objects in one broadcast.

    Returns a ``(len(rows), n)`` boolean array whose row ``r`` equals
    ``dominated_mask(dataset, rows[r])``; each row's ``sum()`` is the
    object's exact ``score`` (Definition 2). This is the pure broadcast
    primitive; :func:`dominated_masks` answers the same question but rides
    cached bitset tables when the session layer has them.
    """
    idx = _as_rows(rows, dataset.n)
    lo, hi = _bounds(dataset)
    return _score_block(lo, hi, idx)


def _score_block(lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
    le_all = np.all(lo[idx][:, None, :] <= hi[None, :, :], axis=2)
    lt_any = np.any(hi[idx][:, None, :] < lo[None, :, :], axis=2)
    dominated = le_all & lt_any  # (b, n)
    # Self-dominance is already impossible (no strict dimension), but be
    # explicit so floating-point ties can never sneak through.
    dominated[np.arange(idx.size), idx] = False
    return dominated


def _dominator_block(lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
    ge_all = np.all(lo[None, :, :] <= hi[idx][:, None, :], axis=2)
    gt_any = np.any(hi[None, :, :] < lo[idx][:, None, :], axis=2)
    dominators = ge_all & gt_any
    dominators[np.arange(idx.size), idx] = False
    return dominators


def _blocked_counts(
    dataset, idx: np.ndarray, block: int | None, kernel, bounds=None
) -> np.ndarray:
    """Run a broadcast *kernel* over blocks of rows, collect row sums."""
    if block is None:
        block = auto_block(dataset.n, dataset.d)
    out = np.empty(idx.size, dtype=np.int64)
    lo, hi = _bounds(dataset) if bounds is None else bounds
    for start in range(0, idx.size, block):
        chunk = idx[start : start + block]
        out[start : start + chunk.size] = kernel(lo, hi, chunk).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Packed-bitset route
# ---------------------------------------------------------------------------

def _bitset_table_bytes(n: int, d: int, distinct: Sequence[int] | None = None) -> int:
    """Bytes of the packed rank tables over *n* objects and *d* dimensions.

    A table holds one ``⌈n/64⌉``-word row per distinct value of its
    column plus the empty row. *distinct* gives the per-column distinct
    counts (the ``hi`` columns, then the ``lo`` columns, as
    :func:`_column_values` orders them); without it every value counts
    as distinct (``u = n``), the shape-only upper bound.
    """
    words = (n + 63) >> 6
    if distinct is None:
        return 2 * d * (n + 1) * words * 8
    return sum(int(u) + 1 for u in distinct) * words * 8


def _column_values(lo: np.ndarray, hi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``np.unique(column, return_inverse=True)`` of every ``hi`` column,
    then of every ``lo`` column: the distinct values a compact table keeps
    and each object's rank among them."""
    return [np.unique(column, return_inverse=True) for column in (*hi.T, *lo.T)]


def _use_bitsets(n: int, d: int, batch: int, *, cached: bool = False) -> bool:
    """Bitsets pay when the batch amortises the O(d·u·n/64) table build.

    With ``cached=True`` the tables already exist (a previous call, or the
    session's :class:`PreparedDataset` cache, paid for them), so *any*
    batch rides them — ``2·d`` row gathers per object beat an ``O(n·d)``
    broadcast row regardless of batch size. Whether the tables fit the
    memory budget is :meth:`PreparedDataset.tables`' decision, taken on
    the measured distinct counts.
    """
    if cached:
        return True
    return batch >= 256 and batch * 16 >= n and n >= 512


def _rank_rows(ranks: np.ndarray, distinct: int, words: int, *, suffix: bool) -> np.ndarray:
    """One dimension's cumulative rows over its *distinct* values.

    One-hot rows (one per distinct value, bits of the objects whose value
    has that rank) OR-accumulated from the top for a suffix table, from
    the bottom for a prefix table; the extra row is the empty set.
    """
    slots = np.arange(ranks.size)
    rows = ranks if suffix else ranks + 1
    one_hot = np.zeros((distinct + 1, words), dtype=np.uint64)
    np.bitwise_or.at(
        one_hot.reshape(-1),
        rows * words + (slots >> 6),
        np.uint64(1) << (slots & 63).astype(np.uint64),
    )
    if suffix:
        return np.ascontiguousarray(np.bitwise_or.accumulate(one_hot[::-1], axis=0)[::-1])
    return np.bitwise_or.accumulate(one_hot, axis=0)


class _BitsetTables:
    """Per-dimension packed prefix/suffix bitsets, one row per distinct value.

    For dimension ``i`` let ``hi_values`` be the ``u`` distinct values of
    the ``hi`` column, ascending: ``suffix[i][r]`` holds (as bits) every
    object whose ``hi`` is at least ``hi_values[r]``, and row ``u`` is
    empty. Likewise ``prefix[i][r]`` holds every object whose ``lo`` is
    at most ``lo_values[r − 1]``, and row ``0`` is empty. A lookup
    ``searchsorted(hi_values, x, "left")`` lands on the row of
    ``{p : hi[p] ≥ x}`` and ``searchsorted(lo_values, x, "right")`` on
    the row of ``{p : lo[p] ≤ x}``, for any probe value ``x``. These are
    the range-encoded bitmap columns of the paper (Section 4.3, Fig. 6):
    ``(u + 1) · ⌈n/64⌉`` words per dimension and direction, built in
    ``O(u·n/64)``.

    Bit ``j`` of word ``w`` in any row stands for object ``64·w + j``
    (little-endian within the word); :func:`unpack_mask_bits` is the
    inverse adapter back to boolean masks.

    Tables are *patchable*: :meth:`add_rank` and :meth:`remove_rank` set
    or clear one object's bit across at most ``u + 1`` rows, inserting a
    row for a new value and dropping one whose last holder left, which is
    how :meth:`PreparedDataset.patched` turns a parent version's tables
    into a child's. The format is canonical — the rows depend only on the
    objects' values — so a patched table equals a cold build of the same
    storage array for array. Patches never mutate an array in place; they
    rebind fresh ones, so a :meth:`shallow` copy can share every
    untouched dimension with its parent safely.
    """

    __slots__ = ("n", "suffix", "prefix", "hi_values", "lo_values", "words")

    def __init__(
        self, lo: np.ndarray, hi: np.ndarray, columns: list[tuple[np.ndarray, np.ndarray]] | None = None
    ) -> None:
        n, d = lo.shape
        self.n = n
        self.words = (n + 63) >> 6
        columns = _column_values(lo, hi) if columns is None else columns
        self.hi_values = [values for values, _ in columns[:d]]
        self.lo_values = [values for values, _ in columns[d:]]
        self.suffix = [
            _rank_rows(ranks, values.size, self.words, suffix=True) for values, ranks in columns[:d]
        ]
        self.prefix = [
            _rank_rows(ranks, values.size, self.words, suffix=False) for values, ranks in columns[d:]
        ]

    @property
    def nbytes(self) -> int:
        return sum(
            arr.nbytes
            for group in (self.suffix, self.prefix, self.hi_values, self.lo_values)
            for arr in group
        )

    # -- patching ----------------------------------------------------------

    def shallow(self) -> "_BitsetTables":
        """Copy sharing every per-dimension array (patches rebind, never mutate)."""
        clone = _BitsetTables.__new__(_BitsetTables)
        clone.n = self.n
        clone.words = self.words
        clone.suffix = list(self.suffix)
        clone.prefix = list(self.prefix)
        clone.hi_values = list(self.hi_values)
        clone.lo_values = list(self.lo_values)
        return clone

    def _side(self, kind: str):
        if kind == "suffix":
            return self.suffix, self.hi_values
        return self.prefix, self.lo_values

    def add_rank(self, dim: int, kind: str, value: float, slot: int, width: int) -> int:
        """Add storage *slot* holding sentinel *value*; returns rows touched.

        Sets the slot's bit in the rows of every value up to *value*
        (suffix) or from *value* on (prefix), inserting *value*'s row
        first when the column does not hold it yet. ``width`` is the
        target word count (``>= self.words``): the copy widens for free
        when the new slot crosses a 64-bit word boundary.
        """
        tables, column_values = self._side(kind)
        table, values = tables[dim], column_values[dim]
        pos = int(np.searchsorted(values, value))
        exists = pos < values.size and values[pos] == value
        rows, w = table.shape[0] + (0 if exists else 1), table.shape[1]
        out = np.zeros((rows, width), dtype=np.uint64)
        if exists:
            out[:, :w] = table
        else:
            # Duplicate row pos: one copy becomes the new value's row in a
            # suffix table (objects strictly above it), the other in a
            # prefix table (objects strictly below it).
            out[: pos + 1, :w] = table[: pos + 1]
            out[pos + 1 :, :w] = table[pos:]
            column_values[dim] = np.insert(values, pos, value)
        touched = slice(0, pos + 1) if kind == "suffix" else slice(pos + 1, rows)
        out[touched, slot >> 6] |= np.uint64(1) << np.uint64(slot & 63)
        tables[dim] = out
        return touched.stop - touched.start + (0 if exists else 1)

    def remove_rank(self, dim: int, kind: str, value: float, slot: int) -> int:
        """Remove storage *slot* from *value*'s run; returns rows touched.

        Clears the slot's bit wherever :meth:`add_rank` set it and drops
        *value*'s row when no other object holds the value any more.
        """
        tables, column_values = self._side(kind)
        table, values = tables[dim], column_values[dim]
        pos = int(np.searchsorted(values, value))
        if pos >= values.size or values[pos] != value:
            raise InvalidParameterError(
                f"rank entry for slot {slot} at value {value!r} not found (corrupt tables?)"
            )
        word, bit = slot >> 6, np.uint64(1) << np.uint64(slot & 63)
        own = pos if kind == "suffix" else pos + 1
        other = pos + 1 if kind == "suffix" else pos
        holders = table[own] & ~table[other]
        holders[word] &= ~bit
        if holders.any():
            out, stop = table.copy(), pos + 1
        else:
            out, stop = np.delete(table, own, axis=0), pos
            column_values[dim] = np.delete(values, pos)
        touched = slice(0, stop) if kind == "suffix" else slice(pos + 1, out.shape[0])
        out[touched, word] &= ~bit
        tables[dim] = out
        return touched.stop - touched.start + (stop == pos)

    def _accumulators(self, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray):
        """The two packed accumulators both dominance directions share.

        ``le_acc[r]``     = bits of ``{p : ∀i hi[p,i] ≥ lo[o_r,i]}``
        ``not_lt_acc[r]`` = bits of ``{p : ∀i lo[p,i] ≤ hi[o_r,i]}``

        ``o_r`` dominates ``le_acc & ~not_lt_acc``; it is dominated by
        ``not_lt_acc & ~le_acc``. The query object sits in both sets (it
        is never strictly below itself), so it drops out of either
        combination without special-casing; so do duplicates and
        incomparable objects.
        """
        d = len(self.suffix)
        le_acc = self.suffix[0][np.searchsorted(self.hi_values[0], lo[idx, 0], side="left")]
        not_lt_acc = self.prefix[0][np.searchsorted(self.lo_values[0], hi[idx, 0], side="right")]
        for dim in range(1, d):
            rank_ge = np.searchsorted(self.hi_values[dim], lo[idx, dim], side="left")
            np.bitwise_and(le_acc, self.suffix[dim][rank_ge], out=le_acc)
            rank_le = np.searchsorted(self.lo_values[dim], hi[idx, dim], side="right")
            np.bitwise_and(not_lt_acc, self.prefix[dim][rank_le], out=not_lt_acc)
        return le_acc, not_lt_acc

    def dominated_block_bits(self, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Packed dominated-masks: row ``r`` holds the bits of ``{p : o_r ≻ p}``.

        Tail bits are clean on every backend: the suffix tables never set
        them, and the native route computes the same words.
        """
        return get_backend().accumulator_bits(self, lo, hi, idx, direction="dominated")

    def dominator_block_bits(self, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Packed dominator-masks: row ``r`` holds the bits of ``{p : p ≻ o_r}``
        (tail bits clean via the prefix tables)."""
        return get_backend().accumulator_bits(self, lo, hi, idx, direction="dominator")

    def dominated_counts(self, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``score(o)`` for each row: ``popcount(∩ suffixes & ~∩ prefixes)``."""
        return get_backend().accumulator_counts(self, lo, hi, idx, direction="dominated")

    def dominator_counts(self, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``|{p : p ≻ o}|`` for each row, from the same two accumulators."""
        return get_backend().accumulator_counts(self, lo, hi, idx, direction="dominator")


def unpack_mask_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Adapter: ``(b, W)`` packed uint64 rows → ``(b, n)`` boolean masks.

    Inverse of the packing used by :class:`_BitsetTables` (bit ``j`` of
    word ``w`` = object ``64·w + j``). The little-endian ``astype`` is a
    no-op view on little-endian hosts and a byteswap on big-endian ones,
    so the uint8 reinterpretation is portable.
    """
    le_words = words.astype("<u8", copy=False)
    bits = np.unpackbits(le_words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n].view(np.bool_)


def _popcount_rows_lookup(words: np.ndarray) -> np.ndarray:
    """Lookup-table per-row popcount (the NumPy < 2.0 fallback path)."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return _POPCOUNT8[as_bytes].sum(axis=1)


def _popcount_rows_numpy(words: np.ndarray) -> np.ndarray:
    """The portable per-row popcount (the ``numpy`` backend's route)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1).astype(np.int64)
    return _popcount_rows_lookup(words)


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(b, W)`` uint64 array (backend-dispatched)."""
    return get_backend().popcount_rows(words)


class SentinelDelta:
    """A :class:`~repro.core.delta.DatasetDelta` lowered to kernel inputs.

    Everything :meth:`PreparedDataset.patched` needs, already in sentinel
    form: minimized-orientation ``lo``/``hi`` rows for inserts and
    updates, observed masks, and the parent *dataset* row indices of
    deletes and updates (the prepared structure maps them to storage
    slots itself).
    """

    __slots__ = (
        "insert_lo",
        "insert_hi",
        "insert_observed",
        "delete_rows",
        "update_rows",
        "update_lo",
        "update_hi",
        "update_observed",
    )

    def __init__(
        self,
        *,
        insert_lo: np.ndarray,
        insert_hi: np.ndarray,
        insert_observed: np.ndarray,
        delete_rows: np.ndarray,
        update_rows: np.ndarray,
        update_lo: np.ndarray,
        update_hi: np.ndarray,
        update_observed: np.ndarray,
    ) -> None:
        self.insert_lo = insert_lo
        self.insert_hi = insert_hi
        self.insert_observed = insert_observed
        self.delete_rows = delete_rows
        self.update_rows = update_rows
        self.update_lo = update_lo
        self.update_hi = update_hi
        self.update_observed = update_observed

    @classmethod
    def from_delta(cls, delta, directions: Sequence[str]) -> "SentinelDelta":
        """Lower a bound :class:`~repro.core.delta.DatasetDelta`.

        *directions* is the parent dataset's per-dimension orientation;
        ``"max"`` columns are negated exactly like
        :attr:`~repro.core.dataset.IncompleteDataset.minimized` does.
        """
        sign = np.array([-1.0 if str(x) == "max" else 1.0 for x in directions])

        def sentinels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            observed = ~np.isnan(values)
            minimized = np.where(observed, values * sign, 0.0)
            lo = np.where(observed, minimized, -np.inf)
            hi = np.where(observed, minimized, np.inf)
            return lo, hi, observed

        insert_lo, insert_hi, insert_observed = sentinels(delta.inserted_values)
        update_lo, update_hi, update_observed = sentinels(delta.updated_values)
        return cls(
            insert_lo=insert_lo,
            insert_hi=insert_hi,
            insert_observed=insert_observed,
            delete_rows=np.asarray(delta.deleted_rows, dtype=np.intp),
            update_rows=np.asarray(delta.updated_rows, dtype=np.intp),
            update_lo=update_lo,
            update_hi=update_hi,
            update_observed=update_observed,
        )

    @property
    def inserts(self) -> int:
        return int(self.insert_lo.shape[0])


class PreparedDataset:
    """Reusable kernel inputs for one dataset: sentinels, tables, bitsets.

    Holds the ``lo``/``hi`` sentinel matrices eagerly (every route needs
    them; the seed rebuilt them per call) and two lazily built structures:

    * the packed prefix/suffix :class:`_BitsetTables` (``O(d·u·n/8)``
      bytes for ``u`` distinct values per column, built in
      ``O(d·u·n/64)`` on the first call whose batch justifies them), and
    * per-dimension packed *observed* bitsets (``d × ⌈n/64⌉`` words) that
      turn incomparability counting into ``d`` conditional ORs plus one
      popcount per object.

    Instances are what the engine session's fingerprint-keyed,
    byte-budgeted cache stores
    (:class:`repro.engine.session.PreparedDatasetCache`).

    **Versioned storage model.** Since the delta refactor the arrays live
    in a *storage* layer that may be wider than the dataset: deleted
    objects keep their bit position as a **tombstone** (sentinel rows
    poisoned to ``lo=+inf``/``hi=-inf`` so the broadcast route never sees
    them; packed results are AND-ed with a live-bit mask so the bitset
    route never returns them) and inserted objects append new bit
    positions at the end. ``n`` is always the *live* object count —
    equal to the matching dataset's ``n`` — while :attr:`storage_n` is the
    bit width of the packed tables. Live storage slots, in ascending
    order, correspond 1:1 to dataset rows (the ordering contract of
    :func:`repro.core.delta.apply_delta`). :meth:`patched` advances an
    instance to a child version by splicing tables instead of rebuilding
    them; :meth:`compacted` pays one cold rebuild to shed tombstone debt
    (the planner's :func:`~repro.engine.planner.plan_delta` decides when).
    """

    __slots__ = (
        "d",
        "build_seconds",
        "_n",
        "_storage_n",
        "_lo_buf",
        "_hi_buf",
        "_obs_buf",
        "_live",
        "_live_slots",
        "_live_words",
        "_live_bounds",
        "_tombstones",
        "_tables",
        "_observed_bits",
        "_tail_mask",
        "_build_lock",
    )

    def __init__(self, dataset: "IncompleteDataset") -> None:
        start = _clock()
        self._n = dataset.n
        self._storage_n = dataset.n
        self.d = dataset.d
        self._lo_buf, self._hi_buf = _bounds(dataset)
        # Keep only the observed-mask array, not the dataset object: a
        # cache entry must not pin a caller's throwaway dataset (ids,
        # value matrices, …) for the process lifetime. Copied, because
        # in-place patching may overwrite rows and must never reach back
        # into the caller's dataset.
        self._obs_buf = np.array(dataset.observed, copy=True)
        self._live: np.ndarray | None = None
        self._live_slots: np.ndarray | None = None
        self._live_words: np.ndarray | None = None
        self._live_bounds: tuple[np.ndarray, np.ndarray] | None = None
        self._tombstones = 0
        self._tables: _BitsetTables | None = None
        self._observed_bits: np.ndarray | None = None
        self._tail_mask: np.ndarray | None = None
        #: Guards the lazy builds: concurrent threads must not duplicate
        #: an O(d·u·n/64) table build (or observe a half-written entry).
        self._build_lock = make_lock("prepared", reentrant=False)
        #: Accumulated seconds spent building this entry (sentinels plus
        #: any lazy structures) — the *rebuild cost* the session cache's
        #: cost-aware eviction weighs against the entry's bytes.
        self.build_seconds = _clock() - start

    # -- storage geometry ---------------------------------------------------

    @property
    def n(self) -> int:
        """Live object count — always equal to the matching dataset's ``n``."""
        return self._n

    @property
    def storage_n(self) -> int:
        """Occupied storage slots (live + tombstoned); the packed bit width."""
        return self._storage_n

    @property
    def lo(self) -> np.ndarray:
        """``(storage_n, d)`` lo sentinels (tombstoned rows hold ``+inf``)."""
        return self._lo_buf[: self._storage_n]

    @property
    def hi(self) -> np.ndarray:
        """``(storage_n, d)`` hi sentinels (tombstoned rows hold ``-inf``)."""
        return self._hi_buf[: self._storage_n]

    @property
    def observed(self) -> np.ndarray:
        """``(storage_n, d)`` observed masks (tombstoned rows all-False)."""
        return self._obs_buf[: self._storage_n]

    @property
    def tombstones(self) -> int:
        """Dead storage slots awaiting compaction."""
        return self._tombstones

    @property
    def tombstone_debt(self) -> float:
        """Dead fraction of the storage layer — the planner's debt signal."""
        return self._tombstones / max(self._storage_n, 1)

    def slots_of(self, rows: np.ndarray) -> np.ndarray:
        """Storage slots of the given *dataset* rows (identity when compact)."""
        if self._live is None:
            return rows
        return self._live_slots_array()[rows]

    def _live_slots_array(self) -> np.ndarray:
        if self._live_slots is None:
            self._live_slots = np.flatnonzero(self._live[: self._storage_n])
        return self._live_slots

    def _live_words_for(self, width: int) -> np.ndarray:
        """Packed live-bit mask padded/cached at the given word width."""
        if self._live_words is None or self._live_words.size < width:
            words = np.zeros(max(width, (self._storage_n + 63) >> 6), dtype=np.uint64)
            live = self._live_slots_array()
            np.bitwise_or.at(
                words, live >> 6, np.uint64(1) << (live & 63).astype(np.uint64)
            )
            self._live_words = words
        return self._live_words[:width]

    def live_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Dataset-indexed ``(lo, hi)`` for the broadcast route (memoised)."""
        if self._live is None:
            return self.lo, self.hi
        if self._live_bounds is None:
            slots = self._live_slots_array()
            self._live_bounds = (self.lo[slots], self.hi[slots])
        return self._live_bounds

    # -- bitset-route wrappers ---------------------------------------------

    def _masked(self, bits: np.ndarray) -> np.ndarray:
        if self._live is not None:
            bits &= self._live_words_for(bits.shape[1])
        return bits

    def dominated_bits(self, rows: np.ndarray) -> np.ndarray:
        """Packed dominated-masks for *dataset* rows, tombstones masked out."""
        slots = self.slots_of(rows)
        return self._masked(self._tables.dominated_block_bits(self.lo, self.hi, slots))

    def dominator_bits(self, rows: np.ndarray) -> np.ndarray:
        """Packed dominator-masks for *dataset* rows, tombstones masked out."""
        slots = self.slots_of(rows)
        return self._masked(self._tables.dominator_block_bits(self.lo, self.hi, slots))

    def _count_live_words(self) -> np.ndarray | None:
        return (
            self._live_words_for(self._tables.words) if self._live is not None else None
        )

    def dominated_count_rows(self, rows: np.ndarray) -> np.ndarray:
        """Exact ``score`` counts for *dataset* rows, fused on one pass.

        Equivalent to ``popcount(dominated_bits(rows))`` but lets the
        active backend fold the gather, AND-reduction, live mask and
        popcount together without materialising the ``(b, W)`` bits.
        """
        slots = self.slots_of(rows)
        return get_backend().accumulator_counts(
            self._tables, self.lo, self.hi, slots,
            direction="dominated", live=self._count_live_words(),
        )

    def dominator_count_rows(self, rows: np.ndarray) -> np.ndarray:
        """Exact dominator counts for *dataset* rows (fused mirror)."""
        slots = self.slots_of(rows)
        return get_backend().accumulator_counts(
            self._tables, self.lo, self.hi, slots,
            direction="dominator", live=self._count_live_words(),
        )

    def unpack_live(self, bits: np.ndarray) -> np.ndarray:
        """Packed storage rows → boolean masks over *dataset* columns."""
        masks = unpack_mask_bits(bits, self._storage_n)
        if self._live is None:
            return masks
        return masks[:, self._live_slots_array()]

    def foreign_dominated_counts(
        self, probe_lo: np.ndarray, probe_hi: np.ndarray
    ) -> np.ndarray:
        """``|{p ∈ this dataset : o ≻ p}|`` for *foreign* probe objects.

        The cross-partition primitive: the probes are sentinel rows
        (``lo``/``hi``, missing → ∓∞) of objects living in *another*
        shard, so no self-bit handling is needed — an object never
        strictly beats its own values, and duplicates drop out of the
        accumulator combination like everywhere else. Rides the packed
        tables when they exist (the probe values searchsort into the same
        per-dimension orders any member row would), the blocked broadcast
        otherwise. Tombstoned rows are masked out on both routes.
        """
        probe_lo = np.asarray(probe_lo, dtype=np.float64)
        probe_hi = np.asarray(probe_hi, dtype=np.float64)
        if probe_lo.ndim != 2 or probe_lo.shape != probe_hi.shape:
            raise InvalidParameterError(
                f"probe bounds must share one (b, d) shape, got {probe_lo.shape} and {probe_hi.shape}"
            )
        if probe_lo.shape[1] != self.d:
            raise InvalidParameterError(
                f"probes have d={probe_lo.shape[1]}, prepared dataset has d={self.d}"
            )
        b = probe_lo.shape[0]
        if b == 0:
            return np.zeros(0, dtype=np.int64)
        tables = self.tables(build=_use_bitsets(self._storage_n, self.d, b, cached=self.tables_ready))
        out = np.empty(b, dtype=np.int64)
        if tables is not None:
            backend = get_backend()
            live = self._count_live_words()
            for start in range(0, b, _BITSET_ROW_STEP):
                idx = np.arange(start, min(start + _BITSET_ROW_STEP, b), dtype=np.intp)
                out[start : start + idx.size] = backend.accumulator_counts(
                    tables, probe_lo, probe_hi, idx, direction="dominated", live=live
                )
            return out
        lo, hi = self.live_bounds()
        block = auto_block(lo.shape[0], self.d)
        for start in range(0, b, block):
            stop = min(start + block, b)
            le_all = np.all(probe_lo[start:stop, None, :] <= hi[None, :, :], axis=2)
            lt_any = np.any(probe_hi[start:stop, None, :] < lo[None, :, :], axis=2)
            out[start:stop] = (le_all & lt_any).sum(axis=1)
        return out

    def storage_arrays(self) -> list[np.ndarray]:
        """Every constituent array buffer, for id-aware cache accounting.

        Copy-on-write delta chains share untouched table arrays between
        parent and child entries (:meth:`_BitsetTables.shallow`), so a
        byte budget that sums per-entry :attr:`nbytes` double-counts
        them; :class:`~repro.engine.session.PreparedDatasetCache` dedupes
        the arrays this returns by identity instead.
        """
        arrays = [self._lo_buf, self._hi_buf, self._obs_buf]
        if self._live is not None:
            arrays.append(self._live)
        if self._tables is not None:
            tables = self._tables
            for group in (tables.suffix, tables.prefix, tables.hi_values, tables.lo_values):
                arrays.extend(group)
        if self._observed_bits is not None:
            arrays.append(self._observed_bits)
        return arrays

    # -- footprint / lifecycle ----------------------------------------------

    @property
    def lazy_built(self) -> int:
        """How many lazy structures (tables, observed bitsets) are built.

        The only way a shared entry grows in place, so the session cache
        re-measures its footprint only when this count moves.
        """
        return (self._tables is not None) + (self._observed_bits is not None)

    @property
    def nbytes(self) -> int:
        """Current footprint (grows when the lazy tables are built)."""
        total = self._lo_buf.nbytes + self._hi_buf.nbytes + self._obs_buf.nbytes
        if self._live is not None:
            total += self._live.nbytes
        if self._tables is not None:
            total += self._tables.nbytes
        if self._observed_bits is not None:
            total += self._observed_bits.nbytes
        return total

    @property
    def tables_ready(self) -> bool:
        return self._tables is not None

    @property
    def is_memory_mapped(self) -> bool:
        """True when the storage arrays are views over a file mapping.

        Spilled shards (``store.SpilledTables``) attach this way: their
        pages are file-backed and clean, so dropping the instance releases
        them without a write-back — byte budgets that police *anonymous*
        RAM (``PreparedDatasetCache``) must not charge them at full price.
        """
        return any(
            isinstance(arr.base if arr.base is not None else arr, np.memmap)
            for arr in self.storage_arrays()
        )

    @property
    def rebuild_cost_per_byte(self) -> float:
        """Measured build seconds per byte held — the eviction currency."""
        return self.build_seconds / max(self.nbytes, 1)

    def tables(self, *, build: bool = True) -> _BitsetTables | None:
        """The packed bitset tables; built on demand when *build* is true.

        Returns ``None`` when the tables are not built and either *build*
        is false or they would exceed the per-table memory budget. The
        budget is checked on the measured distinct counts of every column
        before any table is allocated. Thread-safe: one builder wins,
        others wait on the build lock.
        """
        if self._tables is None and build:
            with self._build_lock:
                if self._tables is None:
                    start = _clock()
                    columns = _column_values(self.lo, self.hi)
                    distinct = [values.size for values, _ in columns]
                    table_bytes = _bitset_table_bytes(self._storage_n, self.d, distinct)
                    if table_bytes > _BITSET_TABLE_BUDGET_BYTES:
                        return None
                    with telemetry.trace("kernel.build_tables") as span:
                        span.set("n", self._storage_n).set("d", self.d).set("bytes", table_bytes)
                        self._tables = _BitsetTables(self.lo, self.hi, columns)
                        elapsed = _clock() - start
                    self.build_seconds += elapsed
                    if telemetry.enabled():
                        telemetry.metrics().observe("kernel.build_seconds", elapsed)
        return self._tables

    def warm(self, batch: int | None = None) -> "PreparedDataset":
        """Build the tables now if a scan of *batch* rows (default all
        ``n``) would justify them — so the build lands in a preparation
        phase instead of inside the first timed/measured query."""
        scan = self._n if batch is None else int(batch)
        self.tables(
            build=_use_bitsets(self._storage_n, self.d, scan, cached=self.tables_ready)
        )
        return self

    def observed_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """``(d, W)`` packed observed-object bitsets and the live-bit mask."""
        if self._observed_bits is None:
            with self._build_lock:
                if self._observed_bits is None:
                    start = _clock()
                    n, d = self._storage_n, self.d
                    words = (n + 63) >> 6
                    bits = np.zeros((d, words), dtype=np.uint64)
                    observed = self.observed
                    arange = np.arange(n)
                    word_idx = arange >> 6
                    bit_val = np.uint64(1) << (arange & 63).astype(np.uint64)
                    for dim in range(d):
                        obs = observed[:, dim]
                        np.bitwise_or.at(bits[dim], word_idx[obs], bit_val[obs])
                    tail = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
                    if n & 63:
                        tail[-1] = (np.uint64(1) << np.uint64(n & 63)) - np.uint64(1)
                    if self._live is not None:
                        tail &= self._live_words_for(words)
                    # Publish the tail mask first: readers key on
                    # _observed_bits, which is assigned last.
                    self._tail_mask = tail
                    self._observed_bits = bits
                    self.build_seconds += _clock() - start
        return self._observed_bits, self._tail_mask

    # -- delta patching ------------------------------------------------------

    def patched(self, delta: SentinelDelta, *, inplace: bool = False) -> "PreparedDataset":
        """Advance to the child version under *delta* without a rebuild.

        Updates re-rank the changed dimensions only (one bit cleared and
        one set per changed dimension and direction); deletions tombstone
        their slot (poisoned sentinels + live-mask, ``O(d)``); insertions
        append new bit positions (one bit set per dimension and
        direction). Each of those touches at most ``u + 2`` rows of one
        compact table. The resulting structure answers child-version
        queries bit-identically to a cold rebuild of the child dataset.

        With ``inplace=False`` (the default) ``self`` stays valid — parent
        and child share every untouched table array copy-on-write, which
        is what the fingerprint-keyed cache needs. ``inplace=True`` reuses
        the sentinel buffers (amortised doubling growth) and must only be
        used on a privately owned instance, e.g. by
        :class:`~repro.engine.session.ContinuousQuery`.
        """
        with telemetry.trace("kernel.patch_tables") as span:
            start = _clock()
            inserts = delta.inserts
            target = self if inplace else self._spawn(extra_rows=inserts)
            if inplace:
                target._ensure_capacity(self._storage_n + inserts)
                target._observed_bits = None
                target._tail_mask = None
            tables = target._tables
            touched = 0

            # 1. Updates: re-rank changed dimensions (old sentinel values are
            #    still in the buffers — read them before overwriting).
            if delta.update_rows.size:
                slots = target.slots_of(delta.update_rows)
                for j, slot in enumerate(slots):
                    slot = int(slot)
                    if tables is not None:
                        for dim in range(target.d):
                            for kind, buf, new in (
                                ("suffix", target._hi_buf, delta.update_hi),
                                ("prefix", target._lo_buf, delta.update_lo),
                            ):
                                old_value, new_value = float(buf[slot, dim]), float(new[j, dim])
                                if old_value != new_value:
                                    touched += tables.remove_rank(dim, kind, old_value, slot)
                                    touched += tables.add_rank(
                                        dim, kind, new_value, slot, tables.words
                                    )
                    target._lo_buf[slot] = delta.update_lo[j]
                    target._hi_buf[slot] = delta.update_hi[j]
                    target._obs_buf[slot] = delta.update_observed[j]

            # 2. Deletions: tombstone — no table traffic at all.
            if delta.delete_rows.size:
                slots = target.slots_of(delta.delete_rows)
                if target._live is None:
                    live = np.ones(target._lo_buf.shape[0], dtype=bool)
                    live[target._storage_n :] = False
                    target._live = live
                target._live[slots] = False
                target._lo_buf[slots] = np.inf
                target._hi_buf[slots] = -np.inf
                target._obs_buf[slots] = False
                target._tombstones += int(slots.size)

            # 3. Insertions: append new bit positions at the end of storage.
            for j in range(inserts):
                slot = target._storage_n
                if tables is not None:
                    width = max(tables.words, (slot >> 6) + 1)
                    for dim in range(target.d):
                        hi, lo = float(delta.insert_hi[j, dim]), float(delta.insert_lo[j, dim])
                        touched += tables.add_rank(dim, "suffix", hi, slot, width)
                        touched += tables.add_rank(dim, "prefix", lo, slot, width)
                    tables.words = width
                    tables.n += 1
                target._lo_buf[slot] = delta.insert_lo[j]
                target._hi_buf[slot] = delta.insert_hi[j]
                target._obs_buf[slot] = delta.insert_observed[j]
                if target._live is not None:
                    target._live[slot] = True
                target._storage_n += 1

            target._n = self._n - int(delta.delete_rows.size) + inserts
            target._live_slots = None
            target._live_words = None
            target._live_bounds = None
            target.build_seconds = self.build_seconds + (_clock() - start)
            span.set("inserts", inserts).set("updates", int(delta.update_rows.size))
            span.set("deletes", int(delta.delete_rows.size)).set("rows_touched", touched)
        return target

    def _spawn(self, *, extra_rows: int) -> "PreparedDataset":
        """Copy-on-write child: private sentinel buffers, shared tables."""
        child = PreparedDataset.__new__(PreparedDataset)
        child.d = self.d
        child._n = self._n
        child._storage_n = self._storage_n
        rows = self._storage_n + extra_rows
        child._lo_buf = _grown_copy(self._lo_buf, self._storage_n, rows)
        child._hi_buf = _grown_copy(self._hi_buf, self._storage_n, rows)
        child._obs_buf = _grown_copy(self._obs_buf, self._storage_n, rows)
        child._live = None
        if self._live is not None:
            child._live = _grown_copy(self._live[:, None], self._storage_n, rows)[:, 0]
        child._live_slots = None
        child._live_words = None
        child._live_bounds = None
        child._tombstones = self._tombstones
        child._tables = None if self._tables is None else self._tables.shallow()
        child._observed_bits = None
        child._tail_mask = None
        child._build_lock = make_lock("prepared", reentrant=False)
        child.build_seconds = self.build_seconds
        return child

    def _ensure_capacity(self, rows: int) -> None:
        """Amortised doubling growth of the sentinel buffers (in place).

        Invariants preserved exactly: dtypes (``float64``/``bool``),
        storage orientation ``(capacity, d)``, poisoned tombstone rows,
        and fresh rows pre-poisoned so an unfilled slot can never look
        like a live all-zero object.
        """
        capacity = self._lo_buf.shape[0]
        if rows <= capacity:
            return
        new_capacity = max(2 * capacity, rows)
        self._lo_buf = _grown_copy(self._lo_buf, self._storage_n, new_capacity)
        self._hi_buf = _grown_copy(self._hi_buf, self._storage_n, new_capacity)
        self._obs_buf = _grown_copy(self._obs_buf, self._storage_n, new_capacity)
        if self._live is not None:
            self._live = _grown_copy(self._live[:, None], self._storage_n, new_capacity)[:, 0]

    def compacted(self, dataset: "IncompleteDataset") -> "PreparedDataset":
        """Shed tombstone debt: one cold rebuild over the live rows.

        *dataset* must be the child version this instance currently
        serves. The result is a compact :class:`PreparedDataset` (storage
        == dataset rows) whose tables — rebuilt eagerly when this
        instance had them — are bit-identical to a cold build.
        """
        if dataset.n != self._n:
            raise InvalidParameterError(
                f"compaction dataset has n={dataset.n}, prepared serves n={self._n}"
            )
        fresh = PreparedDataset(dataset)
        if self.tables_ready:
            fresh.tables(build=True)
        return fresh

    # -- persistence ---------------------------------------------------------

    def state_arrays(self) -> dict:
        """Serializable array state (what the persistent store writes).

        Inverse of :meth:`from_state`. Tombstone state travels too, so a
        restored instance resumes exactly where the saved one stood.
        """
        state = {
            "meta": np.array(
                [self._n, self._storage_n, self.d, self._tombstones], dtype=np.int64
            ),
            "build_seconds": np.array([self.build_seconds]),
            "lo": self.lo,
            "hi": self.hi,
            "observed": self.observed,
        }
        if self._live is not None:
            state["live"] = self._live[: self._storage_n]
        if self._tables is not None:
            state["words"] = np.array([self._tables.words], dtype=np.int64)
            for dim in range(self.d):
                state[f"suffix{dim}"] = self._tables.suffix[dim]
                state[f"prefix{dim}"] = self._tables.prefix[dim]
                state[f"hi_values{dim}"] = self._tables.hi_values[dim]
                state[f"lo_values{dim}"] = self._tables.lo_values[dim]
        return state

    @classmethod
    def from_state(cls, state) -> "PreparedDataset":
        """Rebuild an instance from :meth:`state_arrays` output."""
        meta = np.asarray(state["meta"], dtype=np.int64)
        n, storage_n, d, tombstones = (int(x) for x in meta[:4])
        prepared = cls.__new__(cls)
        prepared._n = n
        prepared._storage_n = storage_n
        prepared.d = d
        prepared._tombstones = tombstones
        prepared._lo_buf = np.ascontiguousarray(state["lo"], dtype=np.float64)
        prepared._hi_buf = np.ascontiguousarray(state["hi"], dtype=np.float64)
        prepared._obs_buf = np.ascontiguousarray(state["observed"], dtype=bool)
        prepared._live = None
        if "live" in state:
            prepared._live = np.ascontiguousarray(state["live"], dtype=bool)
        prepared._live_slots = None
        prepared._live_words = None
        prepared._live_bounds = None
        prepared._tables = None
        if "words" in state:
            tables = _BitsetTables.__new__(_BitsetTables)
            tables.n = storage_n
            tables.words = int(np.asarray(state["words"])[0])
            tables.suffix = [np.ascontiguousarray(state[f"suffix{dim}"], dtype=np.uint64) for dim in range(d)]
            tables.prefix = [np.ascontiguousarray(state[f"prefix{dim}"], dtype=np.uint64) for dim in range(d)]
            tables.hi_values = [np.ascontiguousarray(state[f"hi_values{dim}"], dtype=np.float64) for dim in range(d)]
            tables.lo_values = [np.ascontiguousarray(state[f"lo_values{dim}"], dtype=np.float64) for dim in range(d)]
            for group, values in ((tables.suffix, tables.hi_values), (tables.prefix, tables.lo_values)):
                if any(t.shape[0] != v.size + 1 for t, v in zip(group, values)):
                    raise ValueError("rank tables do not match their distinct values")
            prepared._tables = tables
        prepared._observed_bits = None
        prepared._tail_mask = None
        prepared._build_lock = make_lock("prepared", reentrant=False)
        prepared.build_seconds = float(np.asarray(state["build_seconds"])[0])
        return prepared


def _grown_copy(buffer: np.ndarray, occupied: int, capacity: int) -> np.ndarray:
    """Copy *buffer*'s occupied rows into a fresh (capacity, d) buffer.

    Fresh rows are pre-poisoned per dtype (NaN / False) so an unfilled
    slot can never masquerade as live data; inserts overwrite them.
    """
    out = np.empty((capacity,) + buffer.shape[1:], dtype=buffer.dtype)
    out[:occupied] = buffer[:occupied]
    out[occupied:] = False if buffer.dtype == bool else np.nan
    return out


def _shared_prepared(dataset: "IncompleteDataset") -> PreparedDataset | None:
    """Default-session shim: the engine's fingerprint-keyed prepared cache.

    Module-level kernel calls (``score_all``, ``dominance_matrix``, the
    MFD operator, …) reach the same :class:`PreparedDataset` instances a
    :class:`~repro.engine.session.QueryEngine` would use, so repeated
    sweeps build sentinels and bitset tables once per dataset. Tiny
    datasets skip the cache entirely — fingerprinting them costs more
    than the broadcast kernel saves.
    """
    if dataset.n < _MIN_SHARED_N:
        return None
    from .session import shared_prepared  # deferred: session imports this module

    return shared_prepared(dataset)


def _resolve_tables(
    dataset: "IncompleteDataset", batch: int, prepared: PreparedDataset | None
) -> tuple[PreparedDataset | None, _BitsetTables | None]:
    """Shared route selection: which tables (if any) should serve *batch*."""
    if prepared is None:
        prepared = _shared_prepared(dataset)
    if prepared is None:
        return None, None
    build = _use_bitsets(prepared.storage_n, prepared.d, batch, cached=prepared.tables_ready)
    return prepared, prepared.tables(build=build)


def prepared_for_scan(
    dataset: "IncompleteDataset", batch: int | None = None
) -> PreparedDataset | None:
    """Pre-warm the dataset's shared :class:`PreparedDataset` for a scan.

    Callers that loop over small row blocks (MFD, UBB's candidate loop)
    would never individually cross the table-build threshold even though
    their *total* work does; this resolves eligibility against the full
    scan size (*batch*, default ``n``) once, builds the tables if
    justified, and returns the prepared inputs to thread through the
    per-block kernel calls. Returns ``None`` for tiny datasets.
    """
    prepared = _shared_prepared(dataset)
    if prepared is not None:
        prepared.warm(batch)
    return prepared


# ---------------------------------------------------------------------------
# Public counting kernels
# ---------------------------------------------------------------------------

def dominated_counts(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
) -> np.ndarray:
    """Exact ``score(o)`` for each requested object (all objects if None).

    Large batches — or any batch once the dataset's bitset tables are
    cached — go through the packed-bitset route; the rest through the
    blocked broadcast. Both are exact. Pass *prepared* to pin a specific
    :class:`PreparedDataset`; otherwise the session shim is consulted.
    """
    n = dataset.n
    idx = _as_rows(range(n) if rows is None else rows, n)
    block = _validate_block(block)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    prepared, tables = _resolve_tables(dataset, idx.size, prepared)
    if tables is not None:
        out = np.empty(idx.size, dtype=np.int64)
        for start in range(0, idx.size, _BITSET_ROW_STEP):
            chunk = idx[start : start + _BITSET_ROW_STEP]
            out[start : start + chunk.size] = prepared.dominated_count_rows(chunk)
        return out
    bounds = prepared.live_bounds() if prepared is not None else None
    return _blocked_counts(dataset, idx, block, _score_block, bounds=bounds)


def dominated_masks(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
) -> np.ndarray:
    """Exact dominated-masks ``(len(rows), n)`` through the fastest route.

    Bit-identical to stacking :func:`repro.core.dominance.dominated_mask`
    rows, but served from the packed-bitset tables (gather + unpack) when
    they exist or the batch justifies building them — the mask-emitting
    fast path MFD and the dominance matrix ride.
    """
    n = dataset.n
    idx = _as_rows(range(n) if rows is None else rows, n)
    block = _validate_block(block)
    if idx.size == 0:
        return np.zeros((0, n), dtype=bool)
    prepared, tables = _resolve_tables(dataset, idx.size, prepared)
    if tables is not None:
        out = np.empty((idx.size, n), dtype=bool)
        for start in range(0, idx.size, _BITSET_ROW_STEP):
            chunk = idx[start : start + _BITSET_ROW_STEP]
            out[start : start + chunk.size] = prepared.unpack_live(
                prepared.dominated_bits(chunk)
            )
        return out
    if block is None:
        block = auto_block(n, dataset.d)
    lo, hi = prepared.live_bounds() if prepared is not None else _bounds(dataset)
    out = np.empty((idx.size, n), dtype=bool)
    for start in range(0, idx.size, block):
        chunk = idx[start : start + block]
        out[start : start + chunk.size] = _score_block(lo, hi, chunk)
    return out


def dominator_counts(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
) -> np.ndarray:
    """``|{p : p ≻ o}|`` for each requested object.

    Rides the same packed tables as :func:`dominated_counts` (the two
    directions share their accumulators); falls back to the blocked
    broadcast when no tables exist and the batch is too small to build
    them.
    """
    idx = _as_rows(range(dataset.n) if rows is None else rows, dataset.n)
    block = _validate_block(block)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    prepared, tables = _resolve_tables(dataset, idx.size, prepared)
    if tables is not None:
        out = np.empty(idx.size, dtype=np.int64)
        for start in range(0, idx.size, _BITSET_ROW_STEP):
            chunk = idx[start : start + _BITSET_ROW_STEP]
            out[start : start + chunk.size] = prepared.dominator_count_rows(chunk)
        return out
    bounds = prepared.live_bounds() if prepared is not None else None
    return _blocked_counts(dataset, idx, block, _dominator_block, bounds=bounds)


def dominator_masks(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
) -> np.ndarray:
    """Exact dominator-masks ``(len(rows), n)``: row ``r`` is ``{p : p ≻ o_r}``.

    The mirror of :func:`dominated_masks`, served from the same packed
    accumulators when tables exist. This is the primitive the incremental
    score maintenance rides: the dominators of an inserted (deleted,
    updated) object are exactly the objects whose dominated counts change.
    """
    n = dataset.n
    idx = _as_rows(range(n) if rows is None else rows, n)
    block = _validate_block(block)
    if idx.size == 0:
        return np.zeros((0, n), dtype=bool)
    prepared, tables = _resolve_tables(dataset, idx.size, prepared)
    if tables is not None:
        out = np.empty((idx.size, n), dtype=bool)
        for start in range(0, idx.size, _BITSET_ROW_STEP):
            chunk = idx[start : start + _BITSET_ROW_STEP]
            out[start : start + chunk.size] = prepared.unpack_live(
                prepared.dominator_bits(chunk)
            )
        return out
    if block is None:
        block = auto_block(n, dataset.d)
    lo, hi = prepared.live_bounds() if prepared is not None else _bounds(dataset)
    out = np.empty((idx.size, n), dtype=bool)
    for start in range(0, idx.size, block):
        chunk = idx[start : start + block]
        out[start : start + chunk.size] = _dominator_block(lo, hi, chunk)
    return out


def incomparable_counts(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
) -> np.ndarray:
    """``|F(o)|`` — objects sharing no observed dimension with each row.

    With a :class:`PreparedDataset` (explicit or via the session shim) the
    answer is ``n − popcount(∪_{i ∈ Iset(o)} OBS_i)`` over ``d`` packed
    observed-object bitsets — ``d`` conditional ORs of ``⌈n/64⌉`` words
    per block instead of an ``O(n·d)`` integer matmul row per object.
    Without one, one integer matmul per block: ``observed[B] @
    observed.T`` counts the shared observed dimensions of every pair;
    zero means incomparable. An object always shares its own dimensions
    with itself, so the self pair never counts on either route.
    """
    n = dataset.n
    idx = _as_rows(range(n) if rows is None else rows, n)
    block = _validate_block(block)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    if prepared is None:
        prepared = _shared_prepared(dataset)
    if prepared is not None:
        bits, tail = prepared.observed_bits()
        observed = dataset.observed
        out = np.empty(idx.size, dtype=np.int64)
        slots = prepared.slots_of(idx)
        self_word = (slots >> 6).astype(np.intp)
        self_bit = np.uint64(1) << (slots & 63).astype(np.uint64)
        for start in range(0, idx.size, _BITSET_ROW_STEP):
            chunk = idx[start : start + _BITSET_ROW_STEP]
            b = chunk.size
            acc = np.zeros((b, bits.shape[1]), dtype=np.uint64)
            obs_rows = observed[chunk]
            for dim in range(dataset.d):
                sel = obs_rows[:, dim]
                if sel.any():
                    acc[sel] |= bits[dim]
            np.invert(acc, out=acc)
            acc &= tail
            # Clear the self bit explicitly (it is already cleared for any
            # object with >= 1 observed dimension, which the dataset model
            # guarantees — this mirrors incomparable_mask's out[i] = False).
            sl = slice(start, start + b)
            acc[np.arange(b), self_word[sl]] &= ~self_bit[sl]
            out[sl] = _popcount_rows(acc)
        return out
    if block is None:
        block = max(auto_block(n, dataset.d), 64)
    observed_int = dataset.observed.astype(np.int64)
    out = np.empty(idx.size, dtype=np.int64)
    for start in range(0, idx.size, block):
        chunk = idx[start : start + block]
        shared = observed_int[chunk] @ observed_int.T  # (b, n)
        out[start : start + chunk.size] = (shared == 0).sum(axis=1)
    return out


def max_bit_score_counts(
    dataset: "IncompleteDataset",
    rows: Sequence[int] | None = None,
    *,
    block: int | None = None,
) -> np.ndarray:
    """``MaxBitScore(o) = |Q|`` (Lemma 3) without building a bitmap index.

    ``Q ∪ {o}`` holds every object that, on each dimension *o* observes, is
    either missing there or not better than *o* — exactly the ``le_all``
    half of :func:`score_block`; *o* itself always qualifies, hence the −1.
    """

    def kernel(lo, hi, chunk):
        return np.all(lo[chunk][:, None, :] <= hi[None, :, :], axis=2)

    idx = _as_rows(range(dataset.n) if rows is None else rows, dataset.n)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    return _blocked_counts(dataset, idx, _validate_block(block), kernel) - 1


def upper_bound_scores(dataset: "IncompleteDataset") -> np.ndarray:
    """``MaxScore(o)`` for every object (Lemma 2), vectorised per dimension.

    ``MaxScore(o) = min_i |T_i(o)|`` with ``|T_i(o)|`` counted through one
    sort + ``searchsorted`` per dimension; dimensions missing in ``o``
    contribute ``|S| = n``. This is the shared upper-bound phase of UBB,
    BIG and IBIG (their priority queue ``F`` orders by it).
    """
    n, d = dataset.n, dataset.d
    values = dataset.minimized
    observed = dataset.observed

    out = np.full(n, n, dtype=np.int64)
    for dim in range(d):
        obs = observed[:, dim]
        col = values[obs, dim]
        n_obs = col.size
        if n_obs == 0:
            continue  # |T_i| = |S_i| = n for everyone; the init already covers it
        sorted_col = np.sort(col)
        missing = n - n_obs
        # #(p != o with p[dim] >= o[dim]) = n_obs - rank_lower(o[dim]) - 1
        ranks = np.searchsorted(sorted_col, col, side="left")
        t_sizes = (n_obs - ranks - 1) + missing
        rows = np.flatnonzero(obs)
        out[rows] = np.minimum(out[rows], t_sizes)
    return out


def dominance_matrix_blocked(
    dataset: "IncompleteDataset",
    *,
    block: int | None = None,
    prepared: PreparedDataset | None = None,
    route: str = "auto",
) -> np.ndarray:
    """Full ``(n, n)`` boolean dominance matrix via blocked kernel calls.

    ``route`` selects the kernel: ``"auto"`` (bitset tables when cached or
    worth building — the batch here is all of ``n`` — else broadcast),
    ``"bitset"`` (force the packed mask-emitting route, building private
    tables if necessary), or ``"broadcast"`` (force the ``(b, n, d)``
    kernel; what the benchmarks compare against).
    """
    if route not in ("auto", "bitset", "broadcast"):
        raise InvalidParameterError(
            f"route must be 'auto', 'bitset' or 'broadcast', got {route!r}"
        )
    n = dataset.n
    block = _validate_block(block)
    tables = None
    if route != "broadcast":
        prepared, tables = _resolve_tables(dataset, n, prepared)
        if route == "bitset" and tables is None:
            # Below the shared-cache threshold (or shim unavailable):
            # build private tables for this call.
            prepared = prepared if prepared is not None else PreparedDataset(dataset)
            tables = prepared.tables(build=True)
            if tables is None:
                raise InvalidParameterError(
                    f"bitset tables for n={n}, d={dataset.d} exceed the memory budget"
                )
    if tables is not None:
        out = np.empty((n, n), dtype=bool)
        for start in range(0, n, _BITSET_ROW_STEP):
            chunk = np.arange(start, min(start + _BITSET_ROW_STEP, n), dtype=np.intp)
            out[start : start + chunk.size] = prepared.unpack_live(
                prepared.dominated_bits(chunk)
            )
        return out
    if block is None:
        block = auto_block(n, dataset.d)
    lo, hi = _bounds(dataset) if prepared is None else prepared.live_bounds()
    out = np.empty((n, n), dtype=bool)
    for start in range(0, n, block):
        chunk = np.arange(start, min(start + block, n), dtype=np.intp)
        out[start : start + chunk.size] = _score_block(lo, hi, chunk)
    return out
