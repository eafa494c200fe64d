"""A bank of (σ, λ)-SBBCs advanced together with array operations.

This is the one implementation of Theorem 3.4's space-bounded block
counter.  The sliding-window frequency estimators (§5.3) keep one
(∞, λ)-SBBC per tracked item, the windowed Count-Min one per live cell,
Theorem 4.1's basic-counting ladder its k+1 (σ, λᵢ) rungs, and the
standalone :class:`~repro.core.sbbc.SBBC` is a one-slot view.  All
counters of a bank share the window n and the capacity σ (default ∞);
λ and the block size γ = max(1, ⌊λ/2⌋) are per counter.
:class:`SBBCBank` stores K counters as a struct of arrays: per counter
λ, γ, clock ``t``, coverage ``r``, residual ``ℓ`` and truncation record,
and every counter's block ids in one flat int64 array cut by
``offsets`` (CSR).  A minibatch then advances, decrements or peeks at
every counter it touches in a handful of NumPy passes instead of one
Python object call per counter.

A finite σ caps every counter at 2σ blocks: an advance that would keep
more drops the oldest and shrinks the coverage r below the window, so
the counter reports OVERFLOWED, which certifies the window held at
least γ(2σ+1) − 2γ ≈ σλ ones.  Each counter records how often that
happened and the smallest value γ|Q|+ℓ it had just before a truncation
(the weakest certificate), in O(1) words however long the stream.

Each operation *returns* the ``(work, depth)`` arrays the per-counter
calls charge instead of charging them: the caller knows whether they
are sequential steps (:func:`~repro.pram.cost.charge_many`) or
fork-join strands (:meth:`~repro.pram.cost.ParallelRegion.charge_strands`)
and replays them in its own program order.

Slots are positions ``0..K-1``; :meth:`take` compacts and reorders
them, :meth:`grow` appends fresh counters.  The flat block arrays are
replaced, never written in place, so a :meth:`state_dict` view stays a
valid snapshot.  Because a sketch row's values sum to at most n, a bank
holds about n/γ blocks in total, and rebuilding the CSR per step costs
O(n/γ + touched) array work.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from repro.pram.cost import charge_many
from repro.pram.primitives import log2ceil_array
from repro.resilience.invariants import require
from repro.resilience.state import StateError, expect, header

__all__ = ["SBBCBank", "charge_unit_steps"]

_EMPTY = np.empty(0, dtype=np.int64)

#: ``min_value_before`` of a counter that never truncated.
_NEVER = np.iinfo(np.int64).max

#: The per-counter arrays, in the order :meth:`SBBCBank.take` gathers them.
_PER_SLOT = ("lam", "gamma", "t", "r", "ell", "truncations", "min_value_before")


def charge_unit_steps(n: int) -> None:
    """Charge ``n`` O(1) counter steps in a row — what constructing
    ``n`` SBBCs, or reading ``n`` raw values, charges."""
    ones = np.ones(n, dtype=np.int64)
    charge_many(ones, ones)


def _cost(size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SBBC's O(|Q|) charge: work max(1, q), depth 1 + ⌈log₂ max(2, q)⌉."""
    return np.maximum(1, size), 1 + log2ceil_array(np.maximum(2, size))


def _ceil_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """⌈a/b⌉; with b = γ, the id of the block holding position a (block
    b covers positions (b−1)γ+1 .. bγ)."""
    return -(-a // b)


class SBBCBank:
    """K (σ, λ)-SBBCs over one size-``window`` window and capacity σ.

    ``lam`` is one λ for all ``size`` initial counters or one per
    counter; ``sigma`` (>= 1/2, default ∞) caps every counter at 2σ
    blocks.
    """

    __slots__ = ("window", "sigma", "blocks", "offsets", *_PER_SLOT)

    def __init__(
        self, window: int, lam: float | np.ndarray, size: int = 0, sigma: float = math.inf
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not sigma >= 0.5:
            raise ValueError(f"sigma must be >= 1/2 (room for one block), got {sigma}")
        lam = np.asarray(lam, dtype=np.float64)
        if not (lam > 0).all():
            raise ValueError(f"lambda must be > 0, got {lam}")
        self.window = int(window)
        # Canonical float so live and checkpoint-restored counters
        # serialize to identical bytes.
        self.sigma = float(sigma)
        self.lam = np.broadcast_to(lam, (size,)).copy()
        self.gamma = np.maximum(1, (self.lam // 2).astype(np.int64))
        self.t = np.zeros(size, dtype=np.int64)
        self.r = np.zeros(size, dtype=np.int64)
        self.ell = np.zeros(size, dtype=np.int64)
        self.truncations = np.zeros(size, dtype=np.int64)
        self.min_value_before = np.full(size, _NEVER, dtype=np.int64)
        self.blocks = _EMPTY
        self.offsets = np.zeros(size + 1, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.t.size)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def sizes(self) -> np.ndarray:
        """|Q| of every counter."""
        return self.offsets[1:] - self.offsets[:-1]

    def raw_values(self, slots: np.ndarray | None = None) -> np.ndarray:
        """γ|Q| + ℓ of each slot (all slots by default) — SBBC's
        ``raw_value``, uncharged."""
        if slots is None:
            return self.gamma * self.sizes() + self.ell
        slots = np.asarray(slots)
        sizes = self.offsets[slots + 1] - self.offsets[slots]
        return self.gamma[slots] * sizes + self.ell[slots]

    def overflowed(self) -> np.ndarray:
        """Per counter: coverage short of the full (available) window,
        i.e. a truncation still holds the value back (OVERFLOWED)."""
        return self.r < np.minimum(self.t, self.window)

    def space(self, slots: np.ndarray | None = None) -> int:
        """Words of state of the given slots: |Q| + 4 registers each."""
        sizes = self.sizes() if slots is None else self.sizes()[slots]
        return int(sizes.sum()) + 4 * int(sizes.size)

    def _block_slots(self) -> np.ndarray:
        return np.repeat(np.arange(len(self), dtype=np.int64), self.sizes())

    def _set_blocks(self, slot_of: np.ndarray, blocks: np.ndarray) -> None:
        """Install blocks already grouped by ascending slot."""
        counts = np.bincount(slot_of, minlength=len(self))
        offsets = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self.blocks = blocks
        self.offsets = offsets

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------
    def grow(self, n: int, lam: float) -> np.ndarray:
        """Append ``n`` fresh counters (``SBBC(window, lam, sigma)``:
        t = r = ℓ = 0, no blocks); returns their slots."""
        k = len(self)
        fresh = SBBCBank(self.window, lam, n, self.sigma)
        for name in _PER_SLOT:
            setattr(self, name, np.concatenate([getattr(self, name), getattr(fresh, name)]))
        self.offsets = np.concatenate([self.offsets, np.full(n, self.offsets[-1])])
        return np.arange(k, k + n, dtype=np.int64)

    def take(self, slots: np.ndarray) -> None:
        """Keep only ``slots``, in that order: new slot i is old
        ``slots[i]``."""
        slots = np.asarray(slots, dtype=np.int64)
        sizes = self.sizes()[slots]
        offsets = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        gather = np.repeat(self.offsets[slots] - offsets[:-1], sizes)
        self.blocks = self.blocks[gather + np.arange(offsets[-1], dtype=np.int64)]
        self.offsets = offsets
        for name in _PER_SLOT:
            setattr(self, name, getattr(self, name)[slots])

    def reset(self, slots: np.ndarray, t: int) -> None:
        """Make ``slots`` fresh counters that have seen ``t`` zeros —
        ``SBBC(window, lam, sigma)`` advanced by an all-zero segment of
        length ``t``."""
        slots = np.asarray(slots, dtype=np.int64)
        if self.sizes()[slots].any():
            drop = np.zeros(len(self), dtype=bool)
            drop[slots] = True
            slot_of = self._block_slots()
            keep = ~drop[slot_of]
            self._set_blocks(slot_of[keep], self.blocks[keep])
        self.t[slots] = t
        self.r[slots] = min(t, self.window)
        self.ell[slots] = 0
        self.truncations[slots] = 0
        self.min_value_before[slots] = _NEVER

    # ------------------------------------------------------------------
    # Theorem 3.4 operations, one array pass each
    # ------------------------------------------------------------------
    def advance(
        self,
        slots: np.ndarray,
        positions: np.ndarray,
        offsets: np.ndarray,
        lengths: int | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``SBBC.advance`` on every slot at once.

        Slot ``slots[i]`` (distinct) ingests a segment of length
        ``lengths[i]`` (or the scalar ``lengths``) whose 1s sit at the
        1-based ``positions[offsets[i]:offsets[i+1]]``, ascending.
        Every γ-th 1 is sampled, continuing the slot's ℓ phase; the new
        block ids are appended, blocks that left the window evicted,
        and a slot left with more than 2σ blocks truncated to its newest
        ⌊2σ⌋.  Returns the per-slot ``(work, depth)`` SBBC charges.
        """
        slots = np.asarray(slots, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        gamma, ell, base = self.gamma[slots], self.ell[slots], self.t[slots]
        samples = (ell + offsets[1:] - offsets[:-1]) // gamma
        self.ell[slots] = ell + offsets[1:] - offsets[:-1] - samples * gamma
        self.t[slots] = base + lengths
        self.r[slots] = np.minimum(self.r[slots] + lengths, self.window)

        # The j-th sample of slot i is its (γ − ℓ + jγ)-th new 1; its
        # block goes after the slot's old ones.
        slot_of, blocks = self._block_slots(), self.blocks
        if samples.any():
            owner = np.repeat(np.arange(slots.size, dtype=np.int64), samples)
            step = gamma[owner]
            before = np.cumsum(samples) - samples  # samples of slots[:i]
            lead = offsets[:-1] + gamma - 1 - ell - gamma * before
            at = lead[owner] + step * np.arange(owner.size, dtype=np.int64)
            slot_of = np.concatenate([slot_of, slots[owner]])
            blocks = np.concatenate([blocks, _ceil_div(base[owner] + positions[at], step)])
            order = np.argsort(slot_of, kind="stable")
            slot_of, blocks = slot_of[order], blocks[order]

        # Evict blocks before each window start t − r + 1.  Both that
        # and the 2σ capacity keep a suffix of each slot's blocks.
        keep = blocks >= _ceil_div(self.t - self.r + 1, self.gamma)[slot_of]
        kept = np.bincount(slot_of[keep], minlength=len(self))
        over = np.flatnonzero(kept > 2 * self.sigma)
        if over.size:
            self._truncate(over, kept)
            sizes = self.sizes()
            sizes[slots] += samples
            ends = np.cumsum(sizes)
            keep = np.arange(blocks.size, dtype=np.int64) >= (ends - kept)[slot_of]
            oldest = blocks[ends[over] - kept[over]]
            self.r[over] = np.minimum(
                self.r[over], self.t[over] - (oldest - 1) * self.gamma[over]
            )
        self.blocks = blocks[keep]
        self.offsets = np.concatenate(([0], np.cumsum(kept)))

        q = kept[slots]
        return samples + q + 1, 1 + log2ceil_array(np.maximum(2, samples + q))

    def _truncate(self, over: np.ndarray, kept: np.ndarray) -> None:
        """Capacity truncation of slots ``over``: record the value each
        held before (γ·``kept`` + ℓ) and cut ``kept`` to ⌊2σ⌋."""
        before = self.gamma[over] * kept[over] + self.ell[over]
        self.truncations[over] += 1
        self.min_value_before[over] = np.minimum(self.min_value_before[over], before)
        kept[over] = int(2 * self.sigma)

    def decrement(
        self, slots: np.ndarray, amount: int | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``SBBC.decrement`` on every (distinct) slot: drop the newest
        blocks and adjust ℓ so each value falls by exactly ``amount``
        (clamped at zero).  Returns the per-slot charges."""
        slots = np.asarray(slots, dtype=np.int64)
        amount = np.asarray(amount, dtype=np.int64)
        if (amount < 0).any():
            raise ValueError(f"decrement amount must be >= 0, got {amount.min()}")
        gamma = self.gamma[slots]
        sizes = self.sizes()
        q, ell = sizes[slots], self.ell[slots]
        work, depth = _cost(q)
        full = amount >= gamma * q + ell
        small = amount < ell
        drop = _ceil_div(amount - ell, gamma)
        self.ell[slots] = np.where(
            full, 0, np.where(small, ell - amount, gamma * drop - (amount - ell))
        )
        kept = np.where(full, 0, np.where(small, q, q - drop))
        if (kept < q).any():
            limit = sizes.copy()
            limit[slots] = kept
            slot_of = self._block_slots()
            rank = np.arange(slot_of.size, dtype=np.int64) - self.offsets[slot_of]
            keep = rank < limit[slot_of]
            self._set_blocks(slot_of[keep], self.blocks[keep])
        return work, depth

    def peek_shrunk_values(
        self, slots: np.ndarray, slide: int | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``SBBC.peek_shrunk_value``: each slot's value once its window
        slides ``slide`` more positions with no new 1s.  Mutates
        nothing; returns ``(values, work, depth)``."""
        slots = np.asarray(slots, dtype=np.int64)
        slide = np.asarray(slide, dtype=np.int64)
        if (slide < 0).any():
            raise ValueError("slide must be >= 0")
        sizes = self.sizes()
        work, depth = _cost(sizes[slots])
        start = self.t - self.r + 1
        t, r = self.t[slots] + slide, np.minimum(self.r[slots] + slide, self.window)
        start[slots] = t - r + 1
        first_block = _ceil_div(start, self.gamma)
        slot_of = self._block_slots()
        kept = np.bincount(slot_of[self.blocks >= first_block[slot_of]], minlength=len(self))
        return self.gamma[slots] * kept[slots] + self.ell[slots], work, depth

    # ------------------------------------------------------------------
    # Row-wise conversion to and from SBBC.state_dict()
    # ------------------------------------------------------------------
    def state_dict(self, slot: int) -> dict:
        """Slot ``slot`` in the ``SBBC.state_dict()`` format.

        ``truncations`` is ``[]`` for a counter that never truncated
        (every (∞, λ)-counter), else ``{"count", "min_value_before"}``.
        """
        count = int(self.truncations[slot])
        record = (
            {"count": count, "min_value_before": int(self.min_value_before[slot])}
            if count
            else []
        )
        return {
            **header("sbbc"),
            "window": self.window,
            "lam": float(self.lam[slot]),
            "sigma": self.sigma,
            "gamma": int(self.gamma[slot]),
            "t": int(self.t[slot]),
            "r": int(self.r[slot]),
            "blocks": self.blocks[self.offsets[slot] : self.offsets[slot + 1]],
            "ell": int(self.ell[slot]),
            "truncations": record,
        }

    def load_states(self, slots: np.ndarray, states: Iterable[Mapping]) -> None:
        """Load one ``SBBC.state_dict()`` into each of ``slots``.

        Every state must be a counter of this bank's window and σ and of
        its slot's λ and γ (anything else cannot live in the bank:
        :class:`StateError`).  A per-truncation event list, as the
        object-form counter wrote it, folds into the count and minimum.
        """
        slots = np.asarray(slots, dtype=np.int64)
        states = list(states)
        if len(states) != slots.size:
            raise ValueError("one SBBC state per slot")
        loaded = []
        for slot, state in zip(slots.tolist(), states):
            expect(state, "sbbc")
            record = state["truncations"]
            if isinstance(record, Mapping):
                count, low = int(record["count"]), int(record["min_value_before"])
            else:
                count = len(record)
                low = min((int(e["value_before"]) for e in record), default=_NEVER)
            if (
                int(state["window"]) != self.window
                or float(state["lam"]) != self.lam[slot]
                or int(state["gamma"]) != self.gamma[slot]
                or float(state["sigma"]) != self.sigma
                or (count and self.sigma == math.inf)  # an (∞, λ)-SBBC never truncates
            ):
                raise StateError(
                    f"SBBC state for slot {slot} does not match the bank's "
                    f"(σ={self.sigma}, λ={self.lam[slot]})-counter over window "
                    f"{self.window}"
                )
            self.truncations[slot], self.min_value_before[slot] = count, low
            self.t[slot] = int(state["t"])
            self.r[slot] = int(state["r"])
            self.ell[slot] = int(state["ell"])
            loaded.append(np.asarray(state["blocks"], dtype=np.int64))
        replaced = np.zeros(len(self), dtype=bool)
        replaced[slots] = True
        slot_of = self._block_slots()
        keep = ~replaced[slot_of]
        slot_of = np.concatenate(
            [slot_of[keep], np.repeat(slots, [b.size for b in loaded])]
        )
        blocks = np.concatenate([self.blocks[keep], *loaded])
        order = np.argsort(slot_of, kind="stable")
        self._set_blocks(slot_of[order], blocks[order])

    @classmethod
    def from_states(
        cls,
        window: int,
        lam: float | np.ndarray,
        states: Iterable[Mapping],
        sigma: float = math.inf,
    ) -> "SBBCBank":
        """A bank of (σ, ``lam``)-counters whose slot i holds ``states[i]``."""
        states = list(states)
        bank = cls(window, lam, len(states), sigma)
        bank.load_states(np.arange(len(states), dtype=np.int64), states)
        return bank

    def check_invariants(self, name: str, slots: np.ndarray | None = None) -> None:
        """Theorem 3.4 structural audit of ``slots`` (all by default):
        γ against λ, residual range, coverage, strictly increasing
        1-based blocks that do not run past the counter's clock, and the
        2σ capacity."""
        slots = np.arange(len(self)) if slots is None else np.asarray(slots)
        gamma, ell, t, r = self.gamma[slots], self.ell[slots], self.t[slots], self.r[slots]
        _require_none(gamma != np.maximum(1, (self.lam[slots] // 2).astype(np.int64)),
                      slots, name, "gamma drifted from λ")
        _require_none((ell < 0) | (ell >= gamma), slots, name,
                      "residual ℓ outside [0, γ)")
        _require_none((r < 0) | (r > np.minimum(t, self.window)), slots, name,
                      f"coverage r outside [0, min(t, n={self.window})]")
        _require_none(self.sizes()[slots] > 2 * self.sigma, slots, name,
                      f"|Q| exceeds capacity 2σ={2 * self.sigma}")
        checked = np.zeros(len(self), dtype=bool)
        checked[slots] = True
        slot_of = self._block_slots()
        mine = checked[slot_of]
        blocks, owner = self.blocks[mine], slot_of[mine]
        _require_none((owner[1:] == owner[:-1]) & (np.diff(blocks) <= 0), owner[1:],
                      name, "block ids must be strictly increasing")
        _require_none(blocks < 1, owner, name, "block ids are 1-based")
        last_block = _ceil_div(self.t, self.gamma)
        _require_none(blocks > last_block[owner], owner, name,
                      "block lies beyond the counter's clock")


def _require_none(bad: np.ndarray, slots: np.ndarray, name: str, detail: str) -> None:
    """Raise for the first slot flagged in ``bad``, if any."""
    if bad.any():
        require(False, name, f"slot {int(slots[bad][0])}: {detail}")
