"""k-wise independent polynomial hash families.

The proof of Theorem 2.3 (buildHist) needs an O(log µ)-wise independent
family, and the Count-Min sketch (Section 6) needs pairwise-independent
hashes.  Both are served by the classic construction: a random degree-
(k−1) polynomial over a prime field, evaluated at the key and reduced to
the target range.

We work over the Mersenne prime ``p = 2^31 − 1`` so that Horner's rule
stays inside ``uint64`` NumPy arithmetic (acc·x < 2^62), giving fully
vectorized evaluation of a whole minibatch of keys at once.  Keys are
reduced mod p first; the family is exactly k-wise independent over
Z_p and remains a standard universal family for larger universes (two
keys colliding mod p collide deterministically — irrelevant for the
synthetic universes used here, and documented as a simulator constraint
in DESIGN.md).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.pram.cost import charge

__all__ = [
    "MERSENNE_P",
    "KWiseHash",
    "fold_schedule",
    "mersenne_fold",
    "pairwise_hashes",
    "restore_hashes",
    "row_columns",
]

#: Field prime for the polynomial family (Mersenne: 2^31 − 1).
MERSENNE_P: int = (1 << 31) - 1

_P64 = np.uint64(MERSENNE_P)
_SHIFT31 = np.uint64(31)


def mersenne_fold(acc: np.ndarray, scratch: np.ndarray) -> None:
    """One lazy Mersenne reduction: ``y → (y >> 31) + (y & p)``.

    ``2^31 ≡ 1 (mod p)`` for ``p = 2^31 − 1``, so the fold preserves the
    residue mod p while replacing a hardware division with shift/mask/
    add — all SIMD-friendly on uint64.  Any ``y`` is bounded afterwards
    by ``(y >> 31) + p``."""
    np.right_shift(acc, _SHIFT31, out=scratch)
    np.bitwise_and(acc, _P64, out=acc)
    np.add(acc, scratch, out=acc)


@lru_cache(maxsize=None)
def fold_schedule(k: int) -> tuple[int, ...]:
    """Fold counts per Horner step for a degree-(k−1) polynomial over
    Z_p, from exact worst-case bounds.

    Starting from ``acc ≤ p − 1`` and ``x ≤ p − 1`` (keys reduced mod
    p), each step computes ``acc·x + (p − 1)`` and then folds just
    enough times that the *next* multiply cannot wrap uint64 — usually
    once, instead of the unconditional twice a naive schedule needs.
    The last step folds down below ``2p`` so a single conditional
    subtract makes the residue exact."""
    p = MERSENNE_P
    x_bound = p - 1
    plan: list[int] = []
    acc = p - 1
    for step in range(1, k):
        acc = acc * x_bound + (p - 1)
        folds = 0
        if step < k - 1:
            while acc * x_bound + (p - 1) >= 1 << 64:
                acc = (acc >> 31) + p
                folds += 1
        else:
            while acc >= 2 * p:
                acc = (acc >> 31) + p
                folds += 1
        plan.append(folds)
    return tuple(plan)


class KWiseHash:
    """A hash function drawn from a k-wise independent family.

    Parameters
    ----------
    k:
        Independence degree (>= 1).  ``k=2`` is the pairwise family used
        by the Count-Min sketch; ``buildHist`` draws ``k = O(log µ)``.
    range_size:
        The hash maps into ``{0, ..., range_size − 1}``.
    rng:
        NumPy :class:`~numpy.random.Generator` supplying the random
        coefficients (explicit for reproducibility).
    """

    __slots__ = ("k", "range_size", "coeffs")

    def __init__(self, k: int, range_size: int, rng: np.random.Generator) -> None:
        if k < 1:
            raise ValueError(f"independence degree must be >= 1, got {k}")
        if not (1 <= range_size <= MERSENNE_P):
            raise ValueError(f"range_size must be in [1, p], got {range_size}")
        self.k = int(k)
        self.range_size = int(range_size)
        # Leading coefficient nonzero keeps the polynomial degree exactly
        # k-1 (conventional; k-wise independence holds either way).
        coeffs = rng.integers(0, MERSENNE_P, size=k, dtype=np.uint64)
        if k > 1 and coeffs[0] == 0:
            coeffs[0] = 1
        self.coeffs = coeffs

    def __call__(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Hash ``keys`` (scalar or array of nonnegative ints) into
        ``{0..range_size−1}``.

        Charges O(n) work and O(log k) depth.  The per-key evaluation is
        billed as unit cost, matching the paper's accounting: Theorem
        2.3 claims O(µ) total work *while* using an O(log µ)-wise
        family, i.e. the word-RAM model treats evaluating the Θ(k)-word
        hash description as O(1) operations per key.  (The host actually
        runs Horner's rule, whose k-step chain parallelizes to O(log k)
        depth by fan-in-2 polynomial evaluation.)
        """
        scalar = np.isscalar(keys)
        x = np.atleast_1d(np.asarray(keys, dtype=np.uint64)) % np.uint64(MERSENNE_P)
        self.charge_eval(x.size)
        p = np.uint64(MERSENNE_P)
        acc = np.full_like(x, self.coeffs[0])
        for a in self.coeffs[1:]:
            acc = (acc * x + a) % p
        out = (acc % np.uint64(self.range_size)).astype(np.int64)
        return int(out[0]) if scalar else out

    def eval_folded(self, keys: np.ndarray) -> np.ndarray:
        """Division-free twin of :meth:`__call__` for integer arrays:
        identical outputs and identical charges, with every mid-chain
        ``% p`` replaced by scheduled Mersenne folds
        (:func:`fold_schedule`).  Residues stay congruent mod p
        throughout, the final conditional subtract is exact, so the
        range map sees the very value the serial chain computes.  Used
        where the O(log µ)-degree buildHist hash makes Horner's per-step
        division the dominant cost."""
        x = np.asarray(keys, dtype=np.uint64) % _P64
        self.charge_eval(x.size)
        acc = np.full_like(x, self.coeffs[0])
        scratch = np.empty_like(x)
        plan = fold_schedule(self.k)
        for j in range(1, self.k):
            np.multiply(acc, x, out=acc)
            np.add(acc, self.coeffs[j], out=acc)
            for _ in range(plan[j - 1]):
                mersenne_fold(acc, scratch)
        np.greater_equal(acc, _P64, out=(ge := np.empty(x.shape, dtype=bool)))
        np.subtract(acc, _P64, out=acc, where=ge)
        return (acc % np.uint64(self.range_size)).astype(np.int64)

    def eval_cost(self, n: int) -> tuple[int, int]:
        """The exact ``(work, depth)`` evaluating ``n`` keys charges.
        Exposed so fused replays can compose strand totals arithmetically
        (:meth:`ParallelRegion.charge_strand`) instead of running a
        closure per row."""
        return max(1, int(n)), 1 + max(0, (self.k - 1).bit_length())

    def charge_eval(self, n: int) -> None:
        """Charge exactly what evaluating ``n`` keys charges, without
        computing anything.  The fused multi-operator kernel
        (:mod:`repro.engine.fusion`) evaluates every row's polynomial in
        one stacked matrix pass under a scratch ledger, then has each
        operator strand replay its per-row cost through this hook so
        ledger totals stay bit-identical to the serial path."""
        work, depth = self.eval_cost(n)
        charge(work=work, depth=depth)

    def state_dict(self) -> dict:
        """Serializable description (kind/version handled by the caller's
        envelope — a hash is always embedded in a sketch's state)."""
        return {"k": self.k, "range_size": self.range_size, "coeffs": self.coeffs}

    @classmethod
    def from_state(cls, state: dict) -> "KWiseHash":
        """Rebuild the exact same hash function from ``state_dict()``."""
        h = cls.__new__(cls)
        h.k = int(state["k"])
        h.range_size = int(state["range_size"])
        h.coeffs = np.asarray(state["coeffs"], dtype=np.uint64)
        return h

    def matches(self, state: dict) -> bool:
        """Whether ``state`` describes this very hash function.  The
        coefficients are compared by identity first: ``state_dict()``
        hands out the live array, so a state taken from this hash
        matches without touching its values."""
        coeffs = state["coeffs"]
        return (
            self.k == state["k"]
            and self.range_size == state["range_size"]
            and (coeffs is self.coeffs or np.array_equal(coeffs, self.coeffs))
        )


def restore_hashes(current: list[KWiseHash], states: list[dict]) -> list[KWiseHash]:
    """The hashes ``states`` describe, keeping each object of ``current``
    that already matches its state.  A sketch's ``load_state`` goes
    through here, so restoring a state with the same hash functions
    keeps the hash objects — and with them any
    :class:`~repro.engine.fusion.FusedIngestPlan` stacked over them."""
    return [
        current[i]
        if i < len(current) and current[i].matches(s)
        else KWiseHash.from_state(s)
        for i, s in enumerate(states)
    ]


def pairwise_hashes(
    d: int, range_size: int, rng: np.random.Generator
) -> list[KWiseHash]:
    """``d`` independent pairwise-independent hash functions — the rows
    of a Count-Min sketch (Section 6)."""
    return [KWiseHash(2, range_size, rng) for _ in range(d)]


def row_columns(hashes: list[KWiseHash], keys: np.ndarray) -> np.ndarray:
    """Every row hash evaluated once over ``keys``: the int64 array
    ``[h(keys) for h in hashes]`` of shape ``(len(hashes), keys.size)``.

    All rows run as one stacked Horner chain (a lower-degree row is
    padded with leading zero coefficients, which leaves its polynomial
    unchanged), so the cost is a handful of array operations whatever
    the row count.  Charges nothing: callers replay the charges their
    own cost contract owes, the compute-once / charge-replay rule of
    :mod:`repro.engine.fusion`."""
    k = max(h.k for h in hashes)
    coeffs = np.zeros((len(hashes), k), dtype=np.uint64)
    for row, h in zip(coeffs, hashes):
        row[k - h.k :] = h.coeffs
    ranges = np.array([[h.range_size] for h in hashes], dtype=np.uint64)
    x = np.asarray(keys, dtype=np.uint64) % _P64
    acc = np.repeat(coeffs[:, :1], x.size, axis=1)
    for j in range(1, k):
        acc = (acc * x + coeffs[:, j : j + 1]) % _P64
    return (acc % ranges).astype(np.int64)
