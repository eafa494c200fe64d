"""Linear-work histogram construction — ``buildHist`` (Theorem 2.3).

Given a minibatch ``a_1 … a_µ``, produce the (element, frequency) pairs
of its distinct elements in O(µ) expected work and O(polylog µ) depth.
The algorithm follows the paper's proof verbatim:

1. hash every element with an O(log µ)-wise independent function into a
   range R = O(µ);
2. bucket equal hash values together using ``intSort`` (Theorem 2.2);
3. run ``collectBin`` on every bucket **in parallel**: repeatedly pull
   an arbitrary element, count and strip all its occurrences, recurse.

Each bucket holds O(log µ) distinct elements whp (balls-and-bins with
the log µ-wise independent family), so the per-bucket sequential-in-
distinct-elements loop stays within O(log² µ) depth.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.observability.spans import instrument
from repro.pram.cost import CostLedger, charge, parallel, tracking
from repro.pram.hashing import KWiseHash
from repro.pram.primitives import log2ceil
from repro.pram.sort import int_sort_by_key

__all__ = [
    "HistArrays",
    "build_hist",
    "build_hist_arrays",
    "build_hist_collectbin",
    "build_hist_vectorized",
    "collect_bin",
    "distinct_codes",
]


class HistArrays(NamedTuple):
    """Array form of a minibatch histogram: distinct codes + frequencies.

    ``codes`` are the distinct elements themselves for integer batches
    (``universe`` empty) or dense ids indexing ``universe`` otherwise.
    Both arrays are contiguous ``int64`` so sketch kernels can consume
    them without dict round-trips.
    """

    codes: np.ndarray
    counts: np.ndarray
    universe: list


def collect_bin(bucket: np.ndarray) -> list[tuple[int, int]]:
    """The paper's ``collectBin``: (element, count) pairs of one bucket.

    Each pass costs O(|B|) work and O(log |B|) depth; there are as many
    passes as distinct elements in the bucket.
    """
    out: list[tuple[int, int]] = []
    current = np.asarray(bucket)
    while current.size:
        e = current[0]
        charge(work=max(1, current.size), depth=1 + log2ceil(current.size))
        mask = current == e
        out.append((int(e), int(mask.sum())))
        current = current[~mask]
    return out


def _encode(items: Sequence[Hashable]) -> tuple[np.ndarray, list[Hashable]]:
    """Map arbitrary hashable items to dense integer ids (stream order).

    Integer arrays pass through unchanged (identity mapping) so the hot
    path stays vectorized.  Charges nothing (see :func:`_intern`).
    """
    if isinstance(items, np.ndarray) and items.dtype.kind in "iu":
        return items.astype(np.int64, copy=False), []
    ids: dict[Hashable, int] = {}
    codes = np.empty(len(items), dtype=np.int64)
    for i, item in enumerate(items):
        codes[i] = ids.setdefault(item, len(ids))
    return codes, list(ids)


def _intern(items: Sequence[Hashable]) -> tuple[np.ndarray, list[Hashable]]:
    """:func:`_encode`, charged O(µ) work and O(1) depth."""
    codes, universe = _encode(items)
    charge(work=max(1, len(items)), depth=1)
    return codes, universe


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of every run of equal entries in ``values``."""
    head = np.empty(values.size, dtype=bool)
    head[:1] = True
    np.not_equal(values[1:], values[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1:] = values.size - starts[-1:]
    return starts, lengths


def distinct_codes(items: Sequence[Hashable] | np.ndarray) -> HistArrays:
    """The batch's distinct codes, ascending, with their frequencies:
    one sort of the encoded batch.  Host bookkeeping that charges
    nothing; :func:`build_hist_arrays` charges the proof's cost for
    everything it derives from these arrays."""
    codes, universe = _encode(items)
    ordered = np.sort(codes)
    starts, counts = _runs(ordered)
    return HistArrays(ordered[starts], counts, universe)


def _resolve(key: int, universe: list[Hashable]) -> Hashable:
    return universe[key] if universe else key


@lru_cache(maxsize=64)
def _default_hist_hash(k: int, hash_range: int) -> KWiseHash:
    """The fixed-seed ``buildHist`` hash for one (degree, range) pair.

    ``build_hist_arrays`` draws its hash from a fresh fixed-seed
    generator, so equal ``(k, hash_range)`` always yields identical
    coefficients; memoizing skips the per-batch generator spin-up.
    """
    return KWiseHash(k, hash_range, np.random.default_rng(0x5BBC))


@instrument("pram.build_hist")
def build_hist_arrays(
    items: Sequence[Hashable] | np.ndarray,
    rng: np.random.Generator | None = None,
    *,
    distinct: HistArrays | None = None,
) -> HistArrays:
    """Theorem 2.3's ``buildHist``, returning contiguous arrays.

    :func:`build_hist` (a dict-building wrapper, same charges) without
    the dict: distinct ``(codes, counts)`` int64 arrays in hash-bucket
    order, which array-native sketch kernels consume directly.

    Parameters
    ----------
    items:
        The minibatch — an integer array (fast path) or any sequence of
        hashable item ids.
    rng:
        Source of the hash function's random coefficients.  Defaults to
        a fixed-seed generator so library use is reproducible.
    distinct:
        ``distinct_codes(items)``, if the caller already computed it.

    Implementation note (docs/theory.md, docs/performance.md): the
    pipeline is the proof's — hash, bucket via intSort, separate
    distinct elements within each bucket — run over the batch's
    distinct keys from one sort.  Equal items hash equally, so
    hashing the distinct keys and bucketing them with their counts
    yields the same buckets as the per-item pipeline.  The charges are
    the per-item pipeline's: µ hash evaluations, intSort over µ keys,
    and the proof's collectBin bound Σ_buckets r_B·|B| work and
    max_B r_B·O(log µ) depth, whose expectations the balls-and-bins
    argument makes O(µ) / O(log² µ) (the literal per-bucket loop lives
    on as :func:`build_hist_collectbin` and the two are tested equal).
    """
    mu = len(items)
    if mu == 0:
        charge(work=1, depth=1)
        empty = np.empty(0, dtype=np.int64)
        return HistArrays(empty, empty.copy(), [])

    keys, freqs, universe = distinct if distinct is not None else distinct_codes(items)
    charge(work=mu, depth=1)  # interning, as _intern charges it
    hash_range = mu
    k = max(2, log2ceil(max(2, mu)))
    if rng is None:
        # The default draw is deterministic (fixed seed), so the hash is
        # a pure function of (k, range) — memoized across batches.
        h = _default_hist_hash(k, hash_range)
    else:
        h = KWiseHash(k, hash_range, rng)
    h.charge_eval(mu)  # the per-item pipeline's µ evaluations
    with tracking(CostLedger()):
        hashed = h.eval_folded(keys)

    # Bucket equal hash values together (intSort on the hash keys).  The
    # keys ascend, so a stable sort by hash alone leaves equal hashes in
    # key order — the (bucket, element) grouping collectBin produces.
    _charge_intsort_equiv(mu, hash_range)
    small = hash_range <= 1 << 16  # a uint16 radix sort
    order = np.argsort(hashed.astype(np.uint16) if small else hashed, kind="stable")
    sorted_hash = hashed[order]
    group_codes = keys[order]
    group_counts = freqs[order]

    # Charge the proof's per-bucket collectBin bound: r_B passes over a
    # bucket of size |B| → Σ r_B·|B| work, max_B r_B·(1+log|B|) depth,
    # folded with fork-join semantics across buckets.  Each bucket is a
    # run of equal hashes: |B| sums its counts, r_B is its length.
    charge(work=mu, depth=1 + log2ceil(max(2, mu)))
    starts, distinct_per_bucket = _runs(sorted_hash)
    bucket_sizes = np.add.reduceat(group_counts, starts)
    work = int((distinct_per_bucket * bucket_sizes).sum())
    log_sizes = 1 + np.ceil(np.log2(np.maximum(2, bucket_sizes)))
    depth = int((distinct_per_bucket * log_sizes).max())
    charge(work=work, depth=depth)

    # Emit the (element, frequency) pairs: O(#distinct) work, log depth.
    charge(work=keys.size, depth=1 + log2ceil(max(2, mu)))
    return HistArrays(group_codes, group_counts, universe)


def build_hist(
    items: Sequence[Hashable] | np.ndarray,
    rng: np.random.Generator | None = None,
) -> Mapping[Hashable, int]:
    """Theorem 2.3's ``buildHist``: frequencies of a minibatch as a dict.

    Thin wrapper over :func:`build_hist_arrays` — all work/depth charges
    live there; the dict materialization itself is host bookkeeping and
    charges nothing extra.
    """
    codes, counts, universe = build_hist_arrays(items, rng)
    if universe:
        return {
            universe[int(code)]: int(count)
            for code, count in zip(codes, counts)
        }
    return {int(code): int(count) for code, count in zip(codes, counts)}


def _charge_intsort_equiv(n: int, key_range: int) -> None:
    """Charge Theorem 2.2's intSort bound for the host's bucketing sort."""
    size = max(2, n + key_range)
    charge(work=max(1, n + key_range), depth=max(1, log2ceil(size) ** 2))


def build_hist_collectbin(
    items: Sequence[Hashable] | np.ndarray,
    rng: np.random.Generator | None = None,
) -> Mapping[Hashable, int]:
    """The literal proof-text implementation of Theorem 2.3: per-bucket
    ``collectBin`` loops run in a fork-join region.

    Semantically identical to :func:`build_hist` (tested); kept as the
    executable form of the proof and for the E3 charge cross-check.
    """
    rng = rng if rng is not None else np.random.default_rng(0x5BBC)
    mu = len(items)
    if mu == 0:
        charge(work=1, depth=1)
        return {}

    codes, universe = _intern(items)
    hash_range = max(1, mu)
    k = max(2, log2ceil(max(2, mu)))
    h = KWiseHash(k, hash_range, rng)
    hashed = h(codes)

    # Bucket equal hash values together (intSort on the hash keys).
    sorted_hash, sorted_codes = int_sort_by_key(np.asarray(hashed), codes)

    # Bucket boundaries: positions where the hash value changes.
    charge(work=max(1, mu), depth=1 + log2ceil(mu))
    boundaries = np.flatnonzero(np.diff(sorted_hash)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [mu]])

    results: dict[Hashable, int] = {}
    with parallel() as par:
        per_bucket = [
            par.run(collect_bin, sorted_codes[s:e]) for s, e in zip(starts, ends)
        ]
    # Concatenating the per-bucket outputs: O(#distinct) work, O(log) depth.
    total_pairs = sum(len(b) for b in per_bucket)
    charge(work=max(1, total_pairs), depth=1 + log2ceil(max(2, len(per_bucket))))
    for bucket_pairs in per_bucket:
        for code, freq in bucket_pairs:
            key = _resolve(code, universe)
            # Distinct elements may share a bucket but collectBin
            # separates them; equal elements always share a bucket, so
            # each key appears exactly once overall.
            results[key] = results.get(key, 0) + freq
    return results


def build_hist_vectorized(
    items: Sequence[Hashable] | np.ndarray,
) -> Mapping[Hashable, int]:
    """Reference histogram via :func:`numpy.unique` (oracle for tests).

    Charged with the same O(µ)-work bound so cost comparisons between
    pipeline variants stay apples-to-apples.
    """
    mu = len(items)
    if mu == 0:
        charge(work=1, depth=1)
        return {}
    codes, universe = _intern(items)
    charge(work=max(1, mu), depth=max(1, log2ceil(max(2, mu)) ** 2))
    values, counts = np.unique(codes, return_counts=True)
    return {_resolve(int(v), universe): int(c) for v, c in zip(values, counts)}
