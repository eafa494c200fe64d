"""Frozen copies of the histogram code that the one-sort-per-batch
``buildHist`` replaced.

Copies, code verbatim and docstrings dropped, of ``build_hist_arrays``
(the degree-k hash evaluated on every item, then a combined-key argsort
or ``lexsort`` over all of them), its ``_bucket_order`` helper, and the
plan's ``sorted_hist_arrays`` (a second argsort of the histogram) and
``sketch_hist``.  The pin tests in ``tests/test_histogram_pin.py`` hold
the live code to these: the same arrays, the same ``(work, depth)``, the
same recorded trace and the same ``by_operator`` attribution.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.observability.spans import instrument
from repro.pram.cost import charge
from repro.pram.hashing import KWiseHash
from repro.pram.histogram import (
    HistArrays,
    _charge_intsort_equiv,
    _default_hist_hash,
    _intern,
)
from repro.pram.plan import PreparedBatch, _negative_key, fold_key
from repro.pram.primitives import log2ceil

__all__ = ["FrozenPreparedBatch", "build_hist_arrays"]


@instrument("pram.build_hist")
def build_hist_arrays(
    items: Sequence[Hashable] | np.ndarray,
    rng: np.random.Generator | None = None,
) -> HistArrays:
    mu = len(items)
    if mu == 0:
        charge(work=1, depth=1)
        empty = np.empty(0, dtype=np.int64)
        return HistArrays(empty, empty.copy(), [])

    codes, universe = _intern(items)
    hash_range = max(1, mu)
    k = max(2, log2ceil(max(2, mu)))
    if rng is None:
        # The default draw is deterministic (fixed seed), so the hash is
        # a pure function of (k, range) — memoized across batches.
        h = _default_hist_hash(k, hash_range)
    else:
        h = KWiseHash(k, hash_range, rng)
    hashed = np.atleast_1d(h.eval_folded(codes))

    # Bucket equal hash values together (intSort on the hash keys), then
    # group equal codes within each bucket (the collectBin step) with a
    # stable secondary sort — "sequential radix sort, which is stable".
    _charge_intsort_equiv(mu, hash_range)
    order = _bucket_order(hashed, codes, hash_range)
    sorted_hash = hashed[order]
    sorted_codes = codes[order]

    charge(work=max(1, mu), depth=1 + log2ceil(max(2, mu)))
    change = np.empty(mu, dtype=bool)
    change[0] = True
    np.not_equal(sorted_hash[1:], sorted_hash[:-1], out=change[1:])
    code_change = sorted_codes[1:] != sorted_codes[:-1]
    np.logical_or(change[1:], code_change, out=change[1:])
    group_starts = np.flatnonzero(change)
    group_ends = np.concatenate([group_starts[1:], [mu]])
    group_counts = group_ends - group_starts
    group_codes = sorted_codes[group_starts]
    group_buckets = sorted_hash[group_starts]

    # Charge the proof's per-bucket collectBin bound: r_B passes over a
    # bucket of size |B| → Σ r_B·|B| work, max_B r_B·(1+log|B|) depth,
    # folded with fork-join semantics across buckets.
    bucket_sizes = np.bincount(sorted_hash, minlength=hash_range)
    distinct_per_bucket = np.bincount(group_buckets, minlength=hash_range)
    occupied = bucket_sizes > 0
    work = int((distinct_per_bucket[occupied] * bucket_sizes[occupied]).sum())
    log_sizes = 1 + np.ceil(np.log2(np.maximum(2, bucket_sizes[occupied])))
    depth = int((distinct_per_bucket[occupied] * log_sizes).max()) if work else 1
    charge(work=max(1, work), depth=max(1, depth))

    # Emit the (element, frequency) pairs: O(#distinct) work, log depth.
    charge(work=max(1, group_codes.size), depth=1 + log2ceil(max(2, mu)))
    return HistArrays(
        np.ascontiguousarray(group_codes, dtype=np.int64),
        np.ascontiguousarray(group_counts, dtype=np.int64),
        universe,
    )


def _bucket_order(
    hashed: np.ndarray, codes: np.ndarray, hash_range: int
) -> np.ndarray:
    if codes.size:
        cmin = int(codes.min())
        cmax = int(codes.max())
        if 0 <= cmin and (cmax + 1) < (1 << 62) // hash_range:
            return np.argsort(hashed * np.int64(cmax + 1) + codes)
    return np.lexsort((codes, hashed))


class FrozenPreparedBatch(PreparedBatch):
    """A plan whose histogram products run the frozen code."""

    def hist_arrays(self) -> HistArrays:
        return self._shared("hist", lambda: build_hist_arrays(self.raw))

    def sorted_hist_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        def compute() -> tuple[np.ndarray, np.ndarray]:
            codes, counts, _ = self.hist_arrays()
            order = np.argsort(codes)
            return codes[order], counts[order]

        return self._shared("sorted_hist", compute)

    def sketch_hist(self) -> tuple[np.ndarray, np.ndarray]:
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
