"""A bank of (∞, λ)-SBBCs advanced together with array operations.

The sliding-window frequency estimators (§5.3) keep one (∞, λ)-SBBC
per tracked item, and the windowed Count-Min keeps one per live cell.
All counters of one operator share the window n, λ and the block size
γ, so :class:`SBBCBank` stores K of them as a struct of arrays: per
counter clock ``t``, coverage ``r`` and residual ``ℓ``, and every
counter's block ids in one flat int64 array cut by ``offsets`` (CSR).
A minibatch then advances, decrements or peeks at every counter it
touches in a handful of NumPy passes instead of one Python object call
per counter.

Each operation mutates exactly as the same calls on K independent
:class:`~repro.core.sbbc.SBBC` objects would, and *returns* the
``(work, depth)`` arrays those calls would have charged instead of
charging them: the caller knows whether they are sequential steps
(:func:`~repro.pram.cost.charge_many`) or fork-join strands
(:meth:`~repro.pram.cost.ParallelRegion.charge_strands`) and replays
them in its own program order.

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


def charge_unit_steps(n: int) -> None:
    """Charge ``n`` O(1) counter steps in a row — what constructing
    ``n`` SBBCs, or reading ``n`` raw values, charges."""
    ones = np.ones(n, dtype=np.int64)
    charge_many(ones, ones)


def _cost(size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SBBC's O(|Q|) charge: work max(1, q), depth 1 + ⌈log₂ max(2, q)⌉."""
    return np.maximum(1, size), 1 + log2ceil_array(np.maximum(2, size))


class SBBCBank:
    """K (∞, λ)-SBBCs over a size-``window`` window sharing λ and γ."""

    __slots__ = ("window", "lam", "gamma", "t", "r", "ell", "blocks", "offsets")

    def __init__(self, window: int, lam: float, size: int = 0) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if lam <= 0:
            raise ValueError(f"lambda must be > 0, got {lam}")
        self.window = int(window)
        self.lam = float(lam)
        self.gamma = max(1, int(lam // 2))
        self.t = np.zeros(size, dtype=np.int64)
        self.r = np.zeros(size, dtype=np.int64)
        self.ell = np.zeros(size, dtype=np.int64)
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
        return self.gamma * sizes + self.ell[slots]

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
    def grow(self, n: int) -> np.ndarray:
        """Append ``n`` fresh counters (``SBBC(window, lam)``: t = r =
        ℓ = 0, no blocks); returns their slots."""
        k = len(self)
        zeros = np.zeros(n, dtype=np.int64)
        self.t = np.concatenate([self.t, zeros])
        self.r = np.concatenate([self.r, zeros])
        self.ell = np.concatenate([self.ell, zeros])
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
        self.t, self.r, self.ell = self.t[slots], self.r[slots], self.ell[slots]

    def reset(self, slots: np.ndarray, t: int) -> None:
        """Make ``slots`` fresh counters that have seen ``t`` zeros —
        ``SBBC(window, lam)`` advanced by an all-zero segment of length
        ``t``."""
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
        block ids are appended and blocks that left the window evicted.
        Returns the per-slot ``(work, depth)`` SBBC charges.
        """
        slots = np.asarray(slots, dtype=np.int64)
        gamma = self.gamma
        ones = offsets[1:] - offsets[:-1]
        ell = self.ell[slots]
        samples = (ell + ones) // gamma
        base = self.t[slots]
        if positions.size:
            owner = np.repeat(np.arange(slots.size, dtype=np.int64), ones)
            rank = np.arange(positions.size, dtype=np.int64) - offsets[owner]
            first = (gamma - 1 - ell)[owner]
            sampled = (rank >= first) & ((rank - first) % gamma == 0)
            owner = owner[sampled]
            new_blocks = (base[owner] + positions[sampled] + gamma - 1) // gamma
            new_slots = slots[owner]
        else:
            new_blocks = new_slots = _EMPTY
        self.ell[slots] = ell + ones - samples * gamma
        self.t[slots] = base + lengths
        self.r[slots] = np.minimum(self.r[slots] + lengths, self.window)

        # Each slot's old blocks, then its new ones; evict before the
        # window start t − r + 1.
        slot_of, blocks = self._block_slots(), self.blocks
        if new_slots.size:
            slot_of = np.concatenate([slot_of, new_slots])
            blocks = np.concatenate([blocks, new_blocks])
            order = np.argsort(slot_of, kind="stable")
            slot_of, blocks = slot_of[order], blocks[order]
        start = self.t - self.r + 1
        keep = blocks * gamma >= start[slot_of]
        self._set_blocks(slot_of[keep], blocks[keep])

        q = self.offsets[slots + 1] - self.offsets[slots]
        return samples + q + 1, 1 + log2ceil_array(np.maximum(2, samples + q))

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
        gamma = self.gamma
        sizes = self.sizes()
        q, ell = sizes[slots], self.ell[slots]
        work, depth = _cost(q)
        full = amount >= gamma * q + ell
        small = amount < ell
        drop = -(-(amount - ell) // gamma)
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
        slot_of = self._block_slots()
        kept = np.bincount(
            slot_of[self.blocks * self.gamma >= start[slot_of]], minlength=len(self)
        )
        return self.gamma * kept[slots] + self.ell[slots], work, depth

    # ------------------------------------------------------------------
    # Row-wise conversion to and from SBBC.state_dict()
    # ------------------------------------------------------------------
    def state_dict(self, slot: int) -> dict:
        """Slot ``slot`` exactly as ``SBBC.state_dict()`` writes it."""
        return {
            **header("sbbc"),
            "window": self.window,
            "lam": self.lam,
            "sigma": math.inf,
            "gamma": self.gamma,
            "t": int(self.t[slot]),
            "r": int(self.r[slot]),
            "blocks": self.blocks[self.offsets[slot] : self.offsets[slot + 1]],
            "ell": int(self.ell[slot]),
            "truncations": [],
        }

    def load_states(self, slots: np.ndarray, states: Iterable[Mapping]) -> None:
        """Load one ``SBBC.state_dict()`` into each of ``slots``.

        Every state must be an (∞, λ)-SBBC of this bank's window, λ and
        γ (anything else cannot live in the bank: :class:`StateError`).
        """
        slots = np.asarray(slots, dtype=np.int64)
        states = list(states)
        if len(states) != slots.size:
            raise ValueError("one SBBC state per slot")
        loaded = []
        for slot, state in zip(slots.tolist(), states):
            expect(state, "sbbc")
            if (
                int(state["window"]) != self.window
                or float(state["lam"]) != self.lam
                or int(state["gamma"]) != self.gamma
                or float(state["sigma"]) != math.inf
                or state["truncations"]
            ):
                raise StateError(
                    f"SBBC state for slot {slot} does not match the bank's "
                    f"(∞, λ={self.lam})-counters over window {self.window}"
                )
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
        cls, window: int, lam: float, states: Iterable[Mapping]
    ) -> "SBBCBank":
        """A bank whose slot i holds ``states[i]``."""
        states = list(states)
        bank = cls(window, lam, size=len(states))
        bank.load_states(np.arange(len(states), dtype=np.int64), states)
        return bank

    def check_invariants(self, name: str, slots: np.ndarray | None = None) -> None:
        """Theorem 3.4 structural audit of ``slots`` (all by default):
        residual range, coverage, strictly increasing 1-based blocks
        that do not run past the counter's clock."""
        slots = np.arange(len(self)) if slots is None else np.asarray(slots)
        gamma = self.gamma
        require(gamma == max(1, int(self.lam // 2)), name, "gamma drifted from λ")
        ell, t, r = self.ell[slots], self.t[slots], self.r[slots]
        _require_none((ell < 0) | (ell >= gamma), slots, name,
                      f"residual ℓ outside [0, γ={gamma})")
        _require_none((r < 0) | (r > np.minimum(t, self.window)), slots, name,
                      f"coverage r outside [0, min(t, n={self.window})]")
        checked = np.zeros(len(self), dtype=bool)
        checked[slots] = True
        slot_of = self._block_slots()
        mine = checked[slot_of]
        blocks, owner = self.blocks[mine], slot_of[mine]
        _require_none((owner[1:] == owner[:-1]) & (np.diff(blocks) <= 0), owner[1:],
                      name, "block ids must be strictly increasing")
        _require_none(blocks < 1, owner, name, "block ids are 1-based")
        _require_none(blocks > -(-self.t[owner] // gamma), owner, name,
                      "block lies beyond the counter's clock")


def _require_none(bad: np.ndarray, slots: np.ndarray, name: str, detail: str) -> None:
    """Raise for the first slot flagged in ``bad``, if any."""
    if bad.any():
        require(False, name, f"slot {int(slots[bad][0])}: {detail}")
