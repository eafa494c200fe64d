"""Shared-prework batch plans — prepare a minibatch once, ingest N times.

The paper's minibatch algorithms all start from the same prework: encode
the batch, build its histogram (Theorem 2.3), evaluate row hashes.  A
pipeline of N operators over one stream (benchmark E14) repeats that
prework N times even though every operator would compute the very same
arrays.  :class:`PreparedBatch` hoists the prework out of the operators:
it dictionary-encodes the batch once, caches the ``(codes, counts)``
histogram as contiguous int64 arrays, and memoizes per-:class:`KWiseHash`
column evaluations keyed by hash identity, so the driver can prepare a
batch once and hand the plan to every operator's ``ingest_prepared``.

Cost-model contract (the part that keeps the theorems honest)
-------------------------------------------------------------
The ledger charges are *semantic*: they account for the work/depth the
paper's algorithms perform, not for what the host happened to skip.  A
prepared batch therefore records, for every cached product, the exact
:class:`~repro.pram.cost.Cost` delta its first computation charged, and
**replays the identical charge** on every subsequent access.  An
operator ingesting through a shared plan charges the same total
work/depth as one that prepared the batch privately — the wall-clock
drops, the ledger does not.  (Only attribution can differ: a replayed
charge is billed as one aggregate under the *current* span label rather
than the primitive-by-primitive labels of the original computation.)

Two charge-parity details worth knowing:

* the plan builds its histogram with ``build_hist``'s fixed default
  seed, so the collectBin term of the charge — which depends on the
  bucketing hash draws — is identical no matter which operator touches
  the plan first;
* purely host-level conversions (dict materialization, key folding,
  dtype casts) charge nothing, exactly as the pre-plan code paths never
  charged for their ``np.fromiter`` round-trips.

Pickling drops the hash-column memo (``id()`` keys do not survive a
process boundary); everything else ships to worker processes intact,
which is what the per-batch step over a process backend
(:class:`repro.engine.graph.DataflowGraph`) relies on.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.pram.cost import charge, measured
from repro.pram.hashing import KWiseHash
from repro.pram.histogram import HistArrays, build_hist_arrays, distinct_codes
from repro.pram.primitives import log2ceil

__all__ = ["HASH_MEMO_CAP", "PreparedBatch", "fold_key", "query_keys", "sketch_key"]

_KEY_MASK = (1 << 61) - 1

#: Hash-column memo capacity (LRU).  Must exceed the number of
#: (hash row, key array) pairs one pipeline evaluates per batch, or
#: steady-state ingest thrashes.  Count-Min and Count-Sketch hash in
#: the fused kernel instead, so the remaining caller is
#: :class:`~repro.core.windowed_countmin.WindowedCountMin` (d rows).
#: A plan that outlives many operator generations (each ``state_dict``
#: round-trip mints fresh ``KWiseHash`` objects with fresh ids) stays
#: bounded instead of pinning every dead generation's columns.
HASH_MEMO_CAP = 128


def fold_key(item: Hashable) -> int:
    """Canonical sketch key: integers pass through, everything else is
    folded through Python's hash to a nonnegative 61-bit key (the same
    rule every sketch's ``_key_of`` uses)."""
    if isinstance(item, (int, np.integer)):
        return int(item)
    return hash(item) & _KEY_MASK


def _negative_key(key: int) -> ValueError:
    return ValueError(f"sketch keys must be nonnegative integers, got {key}")


def sketch_key(item: Hashable) -> int:
    """:func:`fold_key`, validated: an integer key must lie in
    ``[0, 2^64)``, since the row hashes work on ``uint64``, where a
    negative key would wrap silently."""
    key = fold_key(item)
    if not 0 <= key < 1 << 64:
        raise _negative_key(key)
    return key


def query_keys(item: Hashable | np.ndarray) -> tuple[np.ndarray, bool]:
    """Validate a point-query argument: ``(uint64 keys, is_scalar)``.

    A NumPy array is the array form and must be 1-D with an integer
    dtype; anything else is one item, checked by :func:`sketch_key`.
    Both forms reject with the same :class:`ValueError` as ingest
    (:meth:`PreparedBatch.sketch_hist`)."""
    if isinstance(item, np.ndarray):
        if item.ndim != 1 or item.dtype.kind not in "iu":
            raise ValueError(
                f"sketch keys must be nonnegative integers, got a "
                f"{item.ndim}-D {item.dtype} array"
            )
        if item.dtype.kind == "i" and item.size and item.min() < 0:
            raise _negative_key(int(item.min()))
        return item.astype(np.uint64, copy=False), False
    return np.array([sketch_key(item)], dtype=np.uint64), True


class PreparedBatch:
    """One minibatch, prepared once, ingestible by many operators.

    Every accessor is compute-once / charge-always: the first call does
    the real work under :func:`~repro.pram.cost.measured` and caches
    ``(value, cost)``; later calls return the cached value and replay
    the recorded cost on the ambient ledger.  Accessors are safe to call
    from inside fork-join strands — the replayed charge lands on the
    strand's child ledger just like the original computation would.
    """

    __slots__ = ("raw", "size", "_cache", "_hash_memo")

    def __init__(self, batch: Sequence[Hashable] | np.ndarray) -> None:
        self.raw = batch
        self.size = len(batch)
        #: product name -> (value, Cost) for the string-keyed products.
        self._cache: dict[Any, tuple[Any, Any]] = {}
        #: (id(hash), id(keys)) -> (hash, keys, cols, Cost).  The hash
        #: and keys objects are stored to pin their ids for the plan's
        #: lifetime; dropped on pickle.
        self._hash_memo: dict[tuple[int, int], tuple[Any, Any, Any, Any]] = {}

    def __len__(self) -> int:
        return self.size

    @property
    def is_integer(self) -> bool:
        """True when the batch is an integer ndarray (the fast path —
        codes are the items themselves, no universe indirection)."""
        return isinstance(self.raw, np.ndarray) and self.raw.dtype.kind in "iu"

    # ------------------------------------------------------------------
    # compute-once / charge-always core
    # ------------------------------------------------------------------
    def _shared(self, key: Any, compute: Callable[[], Any]) -> Any:
        hit = self._cache.get(key)
        if hit is not None:
            value, cost = hit
            if cost:
                charge(cost.work, cost.depth)
            return value
        with measured() as delta:
            value = compute()
        self._cache[key] = (value, delta())
        return value

    # ------------------------------------------------------------------
    # histogram products (Theorem 2.3, charged once per access)
    # ------------------------------------------------------------------
    def distinct(self) -> HistArrays:
        """The batch's distinct codes, ascending, with their counts: the
        one sort per batch every histogram product derives from.  Host
        bookkeeping (charges nothing, like key folding); the histogram
        products charge the proof's cost."""
        return self._shared("distinct", lambda: distinct_codes(self.raw))

    def hist_arrays(self) -> HistArrays:
        """``buildHist`` in array form: distinct (codes, counts) int64
        arrays plus the universe list for non-integer batches."""
        return self._shared("hist", self._build_hist)

    def _build_hist(self) -> HistArrays:
        return build_hist_arrays(self.raw, distinct=self.distinct())

    def hist_dict(self) -> dict[Hashable, int]:
        """``buildHist`` as the classic item -> frequency dict."""

        def compute() -> dict[Hashable, int]:
            codes, counts, universe = self.hist_arrays()
            if universe:
                return {
                    universe[int(code)]: int(count)
                    for code, count in zip(codes, counts)
                }
            return {int(code): int(count) for code, count in zip(codes, counts)}

        return self._shared("hist_dict", compute)

    def sorted_hist_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``hist_arrays`` re-ordered by ascending code — the histogram
        the MG-family augment consumes.

        ``build_hist_arrays`` emits codes in hash-bucket order; the MG
        augment (:func:`~repro.core.misra_gries.mg_augment_arrays`)
        needs them key-sorted to take its sorted-merge fast path.  That
        order is :meth:`distinct`'s, so no second sort runs; the
        histogram access replays the histogram charge.
        """
        self._shared("hist", self._build_hist)
        codes, counts, _ = self.distinct()
        return codes, counts

    def check_sketch_keys(self) -> None:
        """Raise :class:`ValueError` (the :func:`query_keys` wording) if
        the batch holds a negative integer sketch key, which would wrap
        in the uint64 row hashes.  An unsigned batch's int64 codes
        round-trip to its own values, so it is never rejected.  Reads
        :meth:`distinct` only: host bookkeeping, no charge."""
        codes, _, universe = self.distinct()
        if universe:
            low = min(fold_key(item) for item in universe)
        elif codes.size and self.raw.dtype.kind != "u":
            low = int(codes[0])
        else:
            return
        if low < 0:
            raise _negative_key(low)

    def sketch_hist(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct ``(keys, counts)`` with keys folded for sketching —
        what Count-Min / Count-Sketch feed their row hashes.  Rejects a
        batch :meth:`check_sketch_keys` rejects."""

        def compute() -> tuple[np.ndarray, np.ndarray]:
            codes, counts, universe = self.hist_arrays()
            if universe:
                keys = np.fromiter(
                    (fold_key(universe[int(code)]) for code in codes),
                    dtype=np.int64,
                    count=codes.size,
                )
            else:
                keys = codes
            unsigned = self.is_integer and self.raw.dtype.kind == "u"
            if keys.size and not unsigned and keys.min() < 0:
                raise _negative_key(int(keys.min()))
            return keys, counts

        return self._shared("sketch_hist", compute)

    # ------------------------------------------------------------------
    # per-item products (host bookkeeping: zero ledger charge, exactly
    # like the fromiter loops they replace)
    # ------------------------------------------------------------------
    def item_keys(self) -> np.ndarray:
        """Per-position folded sketch keys (windowed Count-Min's view)."""

        def compute() -> np.ndarray:
            if self.is_integer:
                return self.raw.astype(np.int64, copy=False)
            return np.fromiter(
                (fold_key(item) for item in self.raw),
                dtype=np.int64,
                count=self.size,
            )

        return self._shared("item_keys", compute)

    def encoded(self) -> tuple[np.ndarray, Any]:
        """Dense per-position codes plus the decode table.

        Returns ``(codes, universe)`` where ``universe`` is a sorted
        int64 array for integer batches (``codes`` index it) or a
        first-occurrence-ordered list of unwrapped items otherwise.
        """

        def compute() -> tuple[np.ndarray, Any]:
            if self.is_integer:
                universe, codes = np.unique(
                    np.asarray(self.raw, dtype=np.int64), return_inverse=True
                )
                return codes.astype(np.int64, copy=False), universe
            ids: dict[Hashable, int] = {}
            codes = np.empty(self.size, dtype=np.int64)
            for i, item in enumerate(self.raw):
                if isinstance(item, np.generic):
                    item = item.item()
                codes[i] = ids.setdefault(item, len(ids))
            return codes, list(ids)

        return self._shared("encoded", compute)

    def positions_by_item(self) -> dict[Hashable, np.ndarray]:
        """Step 1 of Theorem 5.5: each item's (1-based) occurrence
        positions, gathered by one stable sort over the encoded batch.

        Charged exactly like
        :func:`repro.core.freq_sliding.group_positions_by_sort` —
        O(µ log µ) work, O(log² µ) depth — and produces the same
        item -> int64-positions mapping without the per-item Python
        loop.
        """

        def compute() -> dict[Hashable, np.ndarray]:
            mu = self.size
            charge(
                work=max(1, mu * max(1, log2ceil(max(2, mu)))),
                depth=1 + log2ceil(max(2, mu)) ** 2,
            )
            if mu == 0:
                return {}
            codes, universe = self.encoded()
            order = np.argsort(codes, kind="stable").astype(np.int64, copy=False)
            sorted_codes = codes[order]
            boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [mu]))
            decode_array = isinstance(universe, np.ndarray)
            groups: dict[Hashable, np.ndarray] = {}
            for s, e in zip(starts, ends):
                code = int(sorted_codes[s])
                item = int(universe[code]) if decode_array else universe[code]
                # Stable sort keeps equal codes in stream order, so the
                # slice is already the ascending 0-based positions.
                groups[item] = order[s:e] + 1
            return groups

        return self._shared("positions", compute)

    def values(self, dtype: Any = None) -> np.ndarray:
        """The batch as an ndarray (optionally cast) — the windowed
        numeric operators' view of the minibatch."""
        key = ("values", None if dtype is None else np.dtype(dtype).str)

        def compute() -> np.ndarray:
            if dtype is None:
                return np.asarray(self.raw)
            return np.asarray(self.raw, dtype=dtype)

        return self._shared(key, compute)

    # ------------------------------------------------------------------
    # hash-column memo (keyed by hash identity, replayed per access)
    # ------------------------------------------------------------------
    def hash_columns(self, h: KWiseHash, keys: np.ndarray) -> np.ndarray:
        """``h(keys)`` memoized on ``(id(h), id(keys))``, LRU-capped.

        The first evaluation runs the real (charged) polynomial hash;
        repeats — the same sketch row hashing the same key array from a
        different operator instance sharing the hash, or re-ingesting
        the plan — return the cached columns and replay the recorded
        charge.  Both objects are pinned in the memo so the ids stay
        valid for the plan's lifetime.

        The memo holds at most :data:`HASH_MEMO_CAP` entries, evicting
        least-recently-used (dict insertion order, refreshed on hit):
        a long-lived plan fed through many operator generations —
        ``state_dict`` round-trips mint fresh ``KWiseHash`` objects —
        can no longer grow the memo without bound.  A round-tripped
        hash never hits a stale entry (new object, new id); its old
        entry simply ages out.
        """
        memo_key = (id(h), id(keys))
        hit = self._hash_memo.pop(memo_key, None)
        if hit is not None:
            self._hash_memo[memo_key] = hit  # refresh recency
            _, _, cols, cost = hit
            if cost:
                charge(cost.work, cost.depth)
            return cols
        with measured() as delta:
            cols = h(keys)
        self._hash_memo[memo_key] = (h, keys, cols, delta())
        while len(self._hash_memo) > HASH_MEMO_CAP:
            del self._hash_memo[next(iter(self._hash_memo))]
        return cols

    # ------------------------------------------------------------------
    # pickling (process-sharded ingest ships plans to workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"raw": self.raw, "size": self.size, "_cache": self._cache}

    def __setstate__(self, state: dict) -> None:
        self.raw = state["raw"]
        self.size = state["size"]
        self._cache = state["_cache"]
        self._hash_memo = {}
