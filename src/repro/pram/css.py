"""Compacted stream segments (Lemma 2.1) and ``sift`` (Lemma 5.9).

A *compacted stream segment* (CSS) encodes a segment of a binary stream
as the pair ``(length, positions-of-ones)``.  Positions are **1-based
within the segment**, matching the paper's ``s_i = position of the i-th
1 in T``; array storage is of course 0-indexed NumPy.

``sift(T, K)`` is the work-efficiency workhorse of Theorem 5.4: given a
minibatch ``T`` and the predicted survivor set ``K``, it builds the CSS
of the indicator stream ``⟨1{T_j = κ}⟩_j`` for every ``κ ∈ K``
simultaneously in O(|T| + |K|) work — the step that lets the sliding-
window algorithm avoid building a CSS for items that the prune would
discard anyway.  Its depth is O(|K| + log(|K| + |T|)), the one
non-polylog depth in the paper (reflected in Theorem 5.4's
O(ε⁻¹ + polylog µ) depth bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.observability.spans import instrument
from repro.pram.cost import charge
from repro.pram.primitives import log2ceil, pack

__all__ = [
    "CSS",
    "css_of_bits",
    "css_of_positions",
    "css_concat",
    "sift",
    "sift_arrays",
    "sift_keys",
]


@dataclass(frozen=True)
class CSS:
    """A compacted stream segment ``(ℓ, s)``.

    Attributes
    ----------
    length:
        ``ℓ`` — the length of the underlying binary segment.
    ones:
        Sorted ``int64`` array; ``ones[i]`` is the **1-based** position
        of the (i+1)-th 1 within the segment.
    """

    length: int
    ones: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        ones = np.asarray(self.ones, dtype=np.int64)
        object.__setattr__(self, "ones", ones)
        if self.length < 0:
            raise ValueError("CSS length must be nonnegative")
        if ones.size:
            if ones[0] < 1 or ones[-1] > self.length:
                raise ValueError(
                    f"CSS positions must lie in [1, {self.length}], "
                    f"got range [{ones[0]}, {ones[-1]}]"
                )
            if np.any(np.diff(ones) <= 0):
                raise ValueError("CSS positions must be strictly increasing")

    @property
    def count_ones(self) -> int:
        """``‖T‖₀`` — number of 1s in the segment."""
        return int(self.ones.size)

    def to_bits(self) -> np.ndarray:
        """Materialize the binary segment (testing/oracle helper)."""
        bits = np.zeros(self.length, dtype=np.int64)
        if self.ones.size:
            bits[self.ones - 1] = 1
        return bits

    def __len__(self) -> int:
        return self.length


def css_of_bits(bits: np.ndarray) -> CSS:
    """Build the CSS of a binary segment (Lemma 2.1).

    O(n) work and O(log n) depth via flag/pack over positions.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError("css_of_bits expects a 1-d bit array")
    if bits.size and not np.isin(np.unique(bits), (0, 1)).all():
        raise ValueError("css_of_bits expects entries in {0, 1}")
    n = bits.size
    positions = np.arange(1, n + 1, dtype=np.int64)
    ones = pack(positions, bits.astype(bool))
    return CSS(length=n, ones=ones)


def css_of_positions(length: int, ones: Iterable[int]) -> CSS:
    """Construct a CSS directly from 1-based positions of ones."""
    arr = np.asarray(sorted(int(p) for p in ones), dtype=np.int64)
    return CSS(length=int(length), ones=arr)


def css_concat(first: CSS, second: CSS) -> CSS:
    """Concatenate two segments: positions of ``second`` shift by
    ``first.length``.  O(n) work, O(1) depth (a shifted copy)."""
    charge(work=max(1, first.count_ones + second.count_ones), depth=1)
    ones = np.concatenate([first.ones, second.ones + first.length])
    return CSS(length=first.length + second.length, ones=ones)


@instrument("pram.sift")
def sift_arrays(
    segment: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lemma 5.9 as one array kernel over integer keys.

    ``keep`` holds the ``|K|`` distinct integer keys of the survivor
    set.  Returns ``(keys, positions, offsets)``: ``keys`` is ``keep``
    sorted ascending and ``positions[offsets[i]:offsets[i+1]]`` are the
    ascending 1-based positions ``j`` with ``segment[j] == keys[i]`` —
    the CSS of key i's indicator stream, in CSR form.

    Cost: O(|T| + |K|) work and O(|K| + log(|K| + |T|)) depth, charged
    per the lemma (the |K|-deep stage is the sequential radix pass over
    each |K|-sized piece).
    """
    segment = np.asarray(segment)
    keys = np.sort(np.asarray(keep, dtype=np.int64))
    k, t = keys.size, segment.size
    charge(work=max(1, t + k), depth=max(1, k + log2ceil(max(2, t + k))))
    if k and t:
        loc = np.minimum(np.searchsorted(keys, segment), k - 1)
        hit = keys[loc] == segment
        slot = loc[hit]
        order = np.argsort(slot, kind="stable")  # ascending within key
        positions = (np.flatnonzero(hit) + 1)[order]
        counts = np.bincount(slot, minlength=k)
    else:
        positions = np.empty(0, dtype=np.int64)
        counts = np.zeros(k, dtype=np.int64)
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return keys, positions, offsets


def sift_keys(
    segment: Sequence[Hashable] | np.ndarray, keep: Sequence[Hashable]
) -> tuple[np.ndarray, np.ndarray]:
    """Integer ``(segment, keep)`` keys for :func:`sift_arrays` over the
    distinct items ``keep``: an integer array segment with integer items
    is its own key, anything else is numbered by its index in ``keep``
    (segment items outside ``keep`` get the never-kept key −1)."""
    if (
        isinstance(segment, np.ndarray)
        and segment.dtype.kind in "iu"
        and all(isinstance(item, (int, np.integer)) for item in keep)
    ):
        return segment, np.array([int(item) for item in keep], dtype=np.int64)
    index_of = {item: i for i, item in enumerate(keep)}
    codes = np.fromiter(
        (
            index_of.get(item.item() if isinstance(item, np.generic) else item, -1)
            for item in segment
        ),
        dtype=np.int64,
        count=len(segment),
    )
    return codes, np.arange(len(keep), dtype=np.int64)


def sift(
    segment: Sequence[Hashable] | np.ndarray,
    keep: Iterable[Hashable],
) -> Mapping[Hashable, CSS]:
    """Lemma 5.9: per-item CSSs for every item in ``keep``, at once.

    Parameters
    ----------
    segment:
        The minibatch ``T = ⟨a_1, ..., a_|T|⟩`` (any hashable item ids,
        or an integer NumPy array).
    keep:
        The survivor set ``K``.

    Returns
    -------
    dict mapping each ``κ ∈ K`` to ``CSS(len(T), positions j where
    T_j = κ)``.  Items of ``K`` absent from ``T`` map to an all-zero
    CSS, so callers can advance their counters uniformly.

    A dictionary view of :func:`sift_arrays` (which charges the lemma's
    cost) over the :func:`sift_keys` of the segment and ``K``.
    """
    keep_list = list(dict.fromkeys(keep))  # preserve order, dedupe
    codes, wanted = sift_keys(segment, keep_list)
    keys, positions, offsets = sift_arrays(codes, wanted)
    rank = np.searchsorted(keys, wanted)
    return {
        item: CSS(length=len(segment), ones=positions[offsets[i] : offsets[i + 1]])
        for item, i in zip(keep_list, rank.tolist())
    }
