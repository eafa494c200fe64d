"""Data-parallel primitive kernels with analytic work/depth charges.

Each primitive does its real data movement with vectorized NumPy (per
the HPC guides: no Python-level loops over elements) and charges the
ambient :mod:`repro.pram.cost` ledger the standard work/depth of the
corresponding PRAM kernel [JáJ92]:

==============  ============  ==================
primitive       work          depth
==============  ============  ==================
``par_map``     O(n)          O(1)  (+ inner fn)
``reduce_*``    O(n)          O(log n)
``prefix_sum``  O(n)          O(log n)
``pack``        O(n)          O(log n)
``par_concat``  O(n)          O(log k)
==============  ============  ==================

Positions/indices in this module are 0-based NumPy conventions.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.observability.spans import instrument
from repro.pram.cost import charge

__all__ = [
    "log2ceil",
    "log2ceil_array",
    "par_map",
    "reduce_add",
    "reduce_max",
    "reduce_min",
    "prefix_sum",
    "pack",
    "par_filter",
    "par_concat",
]


def log2ceil(n: int) -> int:
    """``ceil(log2(n))`` for n >= 1; 0 for n <= 1.  Used as the depth of
    a balanced reduction/scan tree over ``n`` leaves."""
    if n <= 1:
        return 0
    return (int(n) - 1).bit_length()


def log2ceil_array(ns: np.ndarray) -> np.ndarray:
    """:func:`log2ceil` of every entry of an integer array (exact below
    2^53: ``frexp``'s exponent of n − 1 is its bit length)."""
    below = np.maximum(np.asarray(ns, dtype=np.int64) - 1, 0)
    return np.frexp(below.astype(np.float64))[1].astype(np.int64)


@instrument("pram.par_map")
def par_map(fn: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """Apply a vectorized elementwise function to ``xs``.

    Charges O(n) work, O(1) depth — the function is assumed elementwise
    (constant work per element); pass pre-vectorized callables.
    """
    xs = np.asarray(xs)
    charge(work=max(1, xs.size), depth=1)
    return fn(xs)


@instrument("pram.reduce_add")
def reduce_add(xs: np.ndarray) -> int | float:
    """Sum via a balanced binary reduction tree: O(n) work, O(log n) depth."""
    xs = np.asarray(xs)
    n = xs.size
    charge(work=max(1, n), depth=1 + log2ceil(n))
    if n == 0:
        return 0
    return xs.sum()


@instrument("pram.reduce_max")
def reduce_max(xs: np.ndarray) -> Any:
    """Max-reduce: O(n) work, O(log n) depth.  ``xs`` must be nonempty."""
    xs = np.asarray(xs)
    n = xs.size
    if n == 0:
        raise ValueError("reduce_max of empty sequence")
    charge(work=n, depth=1 + log2ceil(n))
    return xs.max()


@instrument("pram.reduce_min")
def reduce_min(xs: np.ndarray) -> Any:
    """Min-reduce: O(n) work, O(log n) depth.  ``xs`` must be nonempty.

    This is the parallel ``min`` the paper uses for Count-Min queries
    (Section 6: "compute min in parallel using a reduce operation").
    """
    xs = np.asarray(xs)
    n = xs.size
    if n == 0:
        raise ValueError("reduce_min of empty sequence")
    charge(work=n, depth=1 + log2ceil(n))
    return xs.min()


@instrument("pram.prefix_sum")
def prefix_sum(xs: np.ndarray, *, exclusive: bool = True) -> np.ndarray:
    """Parallel scan (prefix sums): O(n) work, O(log n) depth.

    With ``exclusive=True`` (default) returns ``[0, x0, x0+x1, ...]`` of
    the same length as ``xs`` — the form used to compute write offsets
    for :func:`pack` and :func:`par_concat`.
    """
    xs = np.asarray(xs)
    n = xs.size
    charge(work=max(1, 2 * n), depth=1 + 2 * log2ceil(n))
    inclusive = np.cumsum(xs)
    if not exclusive:
        return inclusive
    out = np.empty_like(inclusive)
    if n:
        out[0] = 0
        out[1:] = inclusive[:-1]
    return out


@instrument("pram.pack")
def pack(xs: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Keep ``xs[i]`` where ``flags[i]`` is true, preserving order.

    The standard scan-based "pack"/compaction: O(n) work, O(log n)
    depth.  This is the "standard techniques [JáJ92]" step Lemma 2.1 and
    Lemma 5.9 rely on.
    """
    xs = np.asarray(xs)
    flags = np.asarray(flags, dtype=bool)
    if xs.shape[0] != flags.shape[0]:
        raise ValueError("pack: xs and flags length mismatch")
    n = xs.shape[0]
    charge(work=max(1, 2 * n), depth=1 + 2 * log2ceil(n))
    return xs[flags]


def par_filter(pred: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """``pack`` with the flags produced by a vectorized predicate."""
    xs = np.asarray(xs)
    flags = par_map(pred, xs).astype(bool)
    return pack(xs, flags)


@instrument("pram.par_concat")
def par_concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate ``k`` sequences of total length ``n``.

    Offsets come from a scan over the k lengths and every element is
    copied independently: O(n + k) work, O(log k + 1) depth.  This is
    the order-preserving concatenation used by ``sift`` (Lemma 5.9).
    """
    k = len(parts)
    if k == 0:
        charge(work=1, depth=1)
        return np.empty(0, dtype=np.int64)
    total = sum(int(np.asarray(p).size) for p in parts)
    charge(work=max(1, total + k), depth=1 + log2ceil(k))
    arrays = [np.asarray(p) for p in parts]
    return np.concatenate(arrays) if total or k else np.empty(0, dtype=np.int64)
