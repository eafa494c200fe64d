"""Linear-work stable parallel integer sort (Theorem 2.2 stand-in).

Theorem 2.2 [RR89] promises ``intSort``: stable sorting of n integer
keys in [0, c·n] with O(n) work and polylog(n) depth.  We reproduce its
*contract* — stability, linear charged work, polylog charged depth —
using NumPy's stable sort as the execution vehicle (the asymptotically
optimal PRAM radix sort is a randomized algorithm whose host-level
emulation would add nothing to the reproduction; the cost charge is the
[RR89] bound and benchmarks E2 verify the contract end to end).

Keys are validated against the ``c·n`` range precondition so misuse is
caught rather than silently costed as linear.
"""

from __future__ import annotations

import numpy as np

from repro.observability.spans import instrument
from repro.pram.cost import charge
from repro.pram.primitives import log2ceil

__all__ = ["int_sort", "int_sort_perm", "int_sort_by_key", "DEFAULT_RANGE_FACTOR"]

#: The constant ``c`` in Theorem 2.2's precondition ``keys <= c·n``.
DEFAULT_RANGE_FACTOR: int = 16


def _charge_intsort(n: int, key_range: int) -> None:
    # Work O(n + range); depth polylog — we charge log² of the problem
    # size, the textbook bound for randomized parallel radix sort.
    size = max(2, n + key_range)
    charge(work=max(1, n + key_range), depth=max(1, log2ceil(size) ** 2))


def _validate(keys: np.ndarray, range_factor: int) -> int:
    if keys.size == 0:
        return 0
    if keys.ndim != 1:
        raise ValueError("int_sort expects a 1-d key array")
    kmin = int(keys.min())
    kmax = int(keys.max())
    if kmin < 0:
        raise ValueError(f"int_sort keys must be nonnegative, saw {kmin}")
    limit = range_factor * max(1, keys.size)
    if kmax > limit:
        raise ValueError(
            f"int_sort precondition violated: max key {kmax} exceeds "
            f"c·n = {limit} (c={range_factor}, n={keys.size}); "
            "hash keys into a linear range first (cf. Theorem 2.3)"
        )
    return kmax


@instrument("pram.int_sort")
def int_sort(
    keys: np.ndarray, *, range_factor: int = DEFAULT_RANGE_FACTOR
) -> np.ndarray:
    """Return the keys in nondecreasing order.

    O(n) charged work, polylog charged depth (Theorem 2.2).
    """
    keys = np.asarray(keys, dtype=np.int64)
    kmax = _validate(keys, range_factor)
    _charge_intsort(keys.size, kmax + 1)
    return np.sort(keys, kind="stable")


def int_sort_perm(
    keys: np.ndarray, *, range_factor: int = DEFAULT_RANGE_FACTOR
) -> np.ndarray:
    """Return the *stable* sorting permutation of ``keys``.

    ``keys[perm]`` is sorted and equal keys keep their original relative
    order — the property ``sift`` (Lemma 5.9) and the CMS row-gather
    (Section 6) rely on.
    """
    keys = np.asarray(keys, dtype=np.int64)
    kmax = _validate(keys, range_factor)
    _charge_intsort(keys.size, kmax + 1)
    if kmax < 1 << 16:
        # Same permutation; NumPy's stable sort is a radix sort on
        # 16-bit keys (several times faster than int64's timsort).
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


@instrument("pram.int_sort_by_key")
def int_sort_by_key(
    keys: np.ndarray,
    values: np.ndarray,
    *,
    range_factor: int = DEFAULT_RANGE_FACTOR,
) -> tuple[np.ndarray, np.ndarray]:
    """Stably sort ``(keys, values)`` pairs by key; returns both arrays."""
    values = np.asarray(values)
    keys = np.asarray(keys, dtype=np.int64)
    if keys.shape[0] != values.shape[0]:
        raise ValueError("int_sort_by_key: keys and values length mismatch")
    perm = int_sort_perm(keys, range_factor=range_factor)
    # The permutation application is an O(n)-work, O(1)-depth scatter.
    charge(work=max(1, keys.size), depth=1)
    return keys[perm], values[perm]
