"""Sliding-window frequency estimation (§5.3, Theorems 5.4/5.5/5.8).

All three variants from the paper, sharing the same estimate contract
``f̂_e ∈ [f_e − εn, f_e]`` over the last n items:

* :class:`BasicSlidingFrequency` (§5.3.1, Thm 5.5) — one (∞, n/S)-SBBC
  per item present in the window.  Simple, but its space is Θ(#distinct
  items in window), which can reach Ω(n); benchmark E10 shows exactly
  this blow-up.
* :class:`SpaceEfficientSlidingFrequency` (§5.3.2, Alg. 2, Thm 5.8) —
  adds the Misra-Gries-style prune: after advancing, find the cutoff ϕ
  with at most S surviving counters, decrement survivors by ϕ (using
  the SBBC ``decrement``), delete the rest.  Space drops to O(ε⁻¹) but
  step 1 still builds a CSS for *every* item in the batch: O(µ log µ)
  work.
* :class:`WorkEfficientSlidingFrequency` (§5.3.3, Thm 5.4) — first
  *predicts* the post-prune survivor set K from shrunk counter values
  plus the batch histogram (both linear work), then runs ``sift`` to
  build CSSs for K only: O(ε⁻¹ + µ) work, O(ε⁻¹ + polylog µ) depth.

Constants follow §5.3.2: S = ⌈8/ε⌉ and λ = εn/4 (error budget:
decrements ≤ 5n/S = (5/8)εn, counter granularity ≤ λ = (1/4)εn).

Every variant assumes WLOG µ < n; a batch of µ >= n resets state and
replays only its last n items (the paper's "throw away the state and
start over" move, which also discards accumulated error).

Cost.  The tracked items' SBBCs live in one
:class:`~repro.core.sbbc_bank.SBBCBank`, so predict, sift, advance,
decrement and prune are each one array pass over every counter a batch
touches.  The ledger is charged what the per-counter calls would
charge, in the same order: the peeks, raw-value reads and new-counter
constructions as sequential unit steps
(:func:`~repro.pram.cost.charge_many`), every advance and decrement as
its own fork-join strand
(:meth:`~repro.pram.cost.ParallelRegion.charge_strands`).
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

from repro.core.sbbc_bank import SBBCBank, charge_unit_steps
from repro.pram.cost import charge, charge_many, parallel
from repro.pram.css import sift_arrays, sift_keys
from repro.pram.plan import PreparedBatch
from repro.pram.primitives import log2ceil
from repro.pram.select import prune_cutoff
from repro.resilience.invariants import require
from repro.resilience.state import expect, header, restore_rng, rng_state

__all__ = [
    "BasicSlidingFrequency",
    "SpaceEfficientSlidingFrequency",
    "WorkEfficientSlidingFrequency",
    "group_positions_by_sort",
]


def group_positions_by_sort(
    batch: Sequence[Hashable] | np.ndarray,
) -> dict[Hashable, np.ndarray]:
    """Step 1 of the basic algorithm (Thm 5.5): gather, for every item
    in the minibatch, the (1-based) positions where it occurs.

    "Marking each element with its position and using a parallel sort
    routine to gather identical items together": O(µ log µ) work,
    O(log µ) depth — charged as such (this super-linear step is exactly
    what Theorem 5.4's ``sift`` replaces).
    """
    mu = len(batch)
    charge(
        work=max(1, mu * max(1, log2ceil(max(2, mu)))),
        depth=1 + log2ceil(max(2, mu)) ** 2,
    )
    groups: dict[Hashable, list[int]] = {}
    for pos, item in enumerate(batch, start=1):
        item = item.item() if isinstance(item, np.generic) else item
        groups.setdefault(item, []).append(pos)
    return {
        item: np.asarray(positions, dtype=np.int64)
        for item, positions in groups.items()
    }


def _validate_params(window: int, eps: float) -> None:
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")


class _SlidingFrequencyBase:
    """State and query logic shared by all three variants.

    Every tracked item owns one (∞, λ)-SBBC of :attr:`bank`;
    :attr:`slots` maps the item to its slot, and slot i is always the
    i-th item of that dict, so the dict order is the counters' order.
    """

    #: Serialization tag; each variant overrides with its own kind.
    _STATE_KIND = "freq_sliding"

    def __init__(self, window: int, eps: float, lam: float) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0 < eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        self.window = int(window)
        self.eps = float(eps)
        self.lam = float(lam)
        self.slots: dict[Hashable, int] = {}
        self.bank = SBBCBank(self.window, self.lam)
        self.t = 0

    def _keep(self, slots: np.ndarray) -> None:
        """Keep only the counters at ``slots``, in that order."""
        items = list(self.slots)
        self.bank.take(slots)
        self.slots = {items[i]: n for n, i in enumerate(slots.tolist())}

    def _maybe_reset(self, batch: np.ndarray) -> np.ndarray:
        """Enforce the WLOG µ < n assumption by restarting on huge
        batches (keeps only the most recent n items)."""
        if len(batch) >= self.window:
            self.slots = {}
            self.bank = SBBCBank(self.window, self.lam)
            self.t += len(batch) - self.window
            return batch[-self.window :]
        return batch

    def estimate(self, item: Hashable) -> float:
        """f̂_e ∈ [f_e − εn, f_e] (f_e = frequency in the last n items)."""
        slot = self.slots.get(item)
        if slot is None:
            return 0.0
        charge(work=1, depth=1)  # the counter's raw_value read
        return max(0.0, int(self.bank.raw_values(slot)) - self.lam)

    def estimates(self) -> dict[Hashable, float]:
        charge_unit_steps(len(self.slots))
        values = np.maximum(0.0, self.bank.raw_values() - self.lam)
        return dict(zip(self.slots, values.tolist()))

    def top_k(self, k: int) -> list[tuple[Hashable, float]]:
        """The k tracked items with the largest estimates, descending.

        Meaningful for k ≲ 1/ε: items beyond the summary's resolution
        are indistinguishable from frequency ≤ εn.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        ranked = sorted(self.estimates().items(), key=lambda kv: -kv[1])
        return ranked[:k]

    def tracked_items(self) -> list[Hashable]:
        return list(self.slots)

    @property
    def space(self) -> int:
        """Total words across all SBBCs plus the directory."""
        return self.bank.space() + len(self.slots)

    @property
    def window_length(self) -> int:
        """Number of items actually in the window (min(t, n))."""
        return min(self.t, self.window)

    # ------------------------------------------------------------------
    # Checkpoint/restore + invariant audit (shared by all variants)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = {
            **header(self._STATE_KIND),
            "window": self.window,
            "eps": self.eps,
            "lam": self.lam,
            "t": self.t,
            "counters": {
                item: self.bank.state_dict(slot) for item, slot in self.slots.items()
            },
        }
        capacity = getattr(self, "capacity", None)
        if capacity is not None:
            state["capacity"] = capacity
        rng = getattr(self, "_rng", None)
        if rng is not None:
            state["rng"] = rng_state(rng)
        return state

    def load_state(self, state: dict) -> None:
        expect(state, self._STATE_KIND)
        self.window = int(state["window"])
        self.eps = float(state["eps"])
        self.lam = float(state["lam"])
        self.t = int(state["t"])
        if "capacity" in state:
            self.capacity = int(state["capacity"])
        if "rng" in state:
            self._rng = restore_rng(state["rng"], into=getattr(self, "_rng", None))
        counters = state["counters"]
        charge_unit_steps(len(counters))  # one new counter per item
        self.bank = SBBCBank.from_states(self.window, self.lam, counters.values())
        self.slots = {item: slot for slot, item in enumerate(counters)}

    def check_invariants(self) -> None:
        """Per-item SBBC audits plus the variant's capacity bound."""
        name = type(self).__name__
        capacity = getattr(self, "capacity", None)
        if capacity is not None and self._prunes_to_capacity:
            require(
                len(self.slots) <= capacity,
                name,
                f"{len(self.slots)} tracked items exceed capacity {capacity}",
            )
        require(
            self.bank.window == self.window and len(self.bank) == len(self.slots),
            name,
            f"counter bank (window {self.bank.window}, {len(self.bank)} counters) "
            f"does not match window {self.window} with {len(self.slots)} items",
        )
        charge_unit_steps(len(self.slots))
        zero = np.flatnonzero(self.bank.raw_values() == 0)
        if zero.size:
            item = list(self.slots)[zero[0]]
            require(False, name, f"retained counter for {item!r} has zero value")
        self.bank.check_invariants(name)

    #: Whether the ingest path prunes the directory down to ``capacity``
    #: (the basic variant tracks every distinct item by design).
    _prunes_to_capacity = True

    # ------------------------------------------------------------------
    # Shared ingest plumbing: every variant ingests through a prepared
    # plan; a batch of µ >= n voids the shared plan (the reset keeps
    # only the last n items, a different array) and re-prepares locally.
    # ------------------------------------------------------------------
    def ingest(self, batch: Sequence[Hashable] | np.ndarray) -> None:
        self.ingest_prepared(PreparedBatch(np.asarray(batch)))

    extend = ingest

    def ingest_prepared(self, plan: PreparedBatch) -> None:
        batch = np.asarray(plan.raw)
        if len(batch) >= self.window:
            batch = self._maybe_reset(batch)
            plan = PreparedBatch(batch)
        if plan.size == 0:
            return
        self._ingest_plan(plan)

    def _ingest_plan(self, plan: PreparedBatch) -> None:
        raise NotImplementedError

    def _advance_every_item(self, plan: PreparedBatch) -> None:
        """Steps 1-2 of Thm 5.5 / Alg. 2: a CSS for every item of
        T ∪ B (one stable sort), then every counter advances as one
        parallel strand — unseen items get a fresh counter first."""
        mu = plan.size
        groups = plan.positions_by_item()
        keys = list(groups.keys() | self.slots.keys())
        slots = np.fromiter(
            (self.slots.get(item, -1) for item in keys), dtype=np.int64, count=len(keys)
        )
        new = np.flatnonzero(slots < 0)
        slots[new] = self.bank.grow(new.size, self.lam)
        self.slots.update(zip([keys[i] for i in new.tolist()], slots[new].tolist()))
        none = np.empty(0, dtype=np.int64)
        parts = [groups.get(item, none) for item in keys]
        offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum([part.size for part in parts], out=offsets[1:])
        with parallel() as par:
            charge_unit_steps(new.size)
            work, depth = self.bank.advance(slots, np.concatenate(parts), offsets, mu)
            par.charge_strands(work, depth)
        self.t += mu


class BasicSlidingFrequency(_SlidingFrequencyBase):
    """§5.3.1 / Theorem 5.5 — an SBBC per distinct item in the window.

    λ = n/S with S = ⌈1/ε⌉, so the per-item additive error is ≤ εn.
    Space is O(|B| + ε⁻¹) where B can hold every distinct item in the
    window — the blow-up the improved variants remove.
    """

    _STATE_KIND = "freq_sliding_basic"
    _prunes_to_capacity = False

    def __init__(self, window: int, eps: float) -> None:
        _validate_params(window, eps)
        capacity = math.ceil(1.0 / eps)
        super().__init__(window, eps, lam=window / capacity)
        self.capacity = capacity

    def _ingest_plan(self, plan: PreparedBatch) -> None:
        self._advance_every_item(plan)
        # An SBBC value of 0 certifies zero occurrences in the window
        # (val >= m), so dropping it loses nothing.
        charge_unit_steps(len(self.slots))
        self._keep(np.flatnonzero(self.bank.raw_values() > 0))


class SpaceEfficientSlidingFrequency(_SlidingFrequencyBase):
    """§5.3.2 / Algorithm 2 / Theorem 5.8 — basic + Misra-Gries prune.

    Space O(ε⁻¹); work still O(ε⁻¹ + µ log µ) because step 1 builds a
    CSS for every batch item.
    """

    _STATE_KIND = "freq_sliding_space_efficient"

    def __init__(self, window: int, eps: float) -> None:
        _validate_params(window, eps)
        capacity = math.ceil(8.0 / eps)
        super().__init__(window, eps, lam=eps * window / 4.0)
        self.capacity = capacity

    def _ingest_plan(self, plan: PreparedBatch) -> None:
        self._advance_every_item(plan)
        self._prune()

    def _prune(self) -> None:
        """Step 3: decrement so at most S counters stay positive."""
        if not self.slots:
            return
        charge_unit_steps(len(self.slots))
        values = self.bank.raw_values()
        phi = prune_cutoff(values, self.capacity)
        chosen = np.flatnonzero(values > phi)
        with parallel() as par:
            if phi:
                par.charge_strands(*self.bank.decrement(chosen, phi))
        charge_unit_steps(chosen.size)
        self._keep(chosen[self.bank.raw_values(chosen) > 0])


class WorkEfficientSlidingFrequency(_SlidingFrequencyBase):
    """§5.3.3 / Theorem 5.4 — predict survivors, then sift.

    O(ε⁻¹ + µ) work and O(ε⁻¹ + polylog µ) depth per minibatch with
    O(ε⁻¹) space; estimates within εn as before.
    """

    _STATE_KIND = "freq_sliding_work_efficient"

    def __init__(
        self,
        window: int,
        eps: float,
        rng: np.random.Generator | None = None,
    ) -> None:
        _validate_params(window, eps)
        capacity = math.ceil(8.0 / eps)
        super().__init__(window, eps, lam=eps * window / 4.0)
        self.capacity = capacity
        self._rng = rng if rng is not None else np.random.default_rng(0x51F7)

    def _predict(self, plan: PreparedBatch) -> tuple[list, np.ndarray, int]:
        """The ``predict`` routine: post-advance counter values (shrunk
        existing value + batch histogram) and the prune cutoff ϕ.

        Returns ``(items, values, phi)``: every tracked item (in slot
        order) followed by the batch's untracked items (in histogram
        order), and their predicted values."""
        codes, counts, universe = plan.hist_arrays()
        batch_items = codes.tolist()
        if universe:
            batch_items = [universe[c] for c in batch_items]
        tracked = np.arange(len(self.slots))
        values, work, depth = self.bank.peek_shrunk_values(tracked, plan.size)
        charge_many(work, depth)
        charge(work=max(1, len(batch_items)), depth=1)
        slot = np.fromiter(
            (self.slots.get(item, -1) for item in batch_items),
            dtype=np.int64,
            count=len(batch_items),
        )
        seen = slot >= 0
        values[slot[seen]] += counts[seen]
        unseen = np.flatnonzero(~seen)
        values = np.concatenate([values, counts[unseen]])
        items = list(self.slots)
        items.extend(batch_items[i] for i in unseen.tolist())
        phi = prune_cutoff(values, self.capacity) if values.size else 0
        return items, values, phi

    def _ingest_plan(self, plan: PreparedBatch) -> None:
        mu = plan.size
        items, values, phi = self._predict(plan)
        kept = np.flatnonzero(values > phi)
        keep = [items[i] for i in kept.tolist()]
        codes, wanted = sift_keys(np.asarray(plan.raw), keep)
        keys, positions, offsets = sift_arrays(codes, wanted)
        # Kept tracked items keep their slots; the rest get fresh
        # counters, appended in keep order.
        old = int(np.searchsorted(kept, len(self.slots)))
        grown = self.bank.grow(kept.size - old, self.lam)
        self.slots.update(zip(keep[old:], grown.tolist()))
        slots = np.concatenate([kept[:old], grown])
        rank = np.searchsorted(keys, wanted)  # keep order -> key order
        by_key = np.empty_like(slots)
        by_key[rank] = slots
        with parallel() as par:
            charge_unit_steps(grown.size)
            work, depth = self.bank.advance(by_key, positions, offsets, mu)
            par.charge_strands(work[rank], depth[rank])
        self.t += mu
        with parallel() as par:
            if phi:
                par.charge_strands(*self.bank.decrement(slots, phi))
            charge_unit_steps(slots.size)
        self._keep(slots[self.bank.raw_values(slots) > 0])


# ----------------------------------------------------------------------
from repro.engine.registry import Capabilities, register  # noqa: E402

_SLIDING_CAPS = Capabilities(preparable=True, windowed=True, invariant_checked=True)


def _sliding_probe(op):
    return sorted((repr(k), v) for k, v in op.estimates().items())


register(
    BasicSlidingFrequency,
    summary="sliding-window MG, one summary per block (S5.3 basic)",
    input="items",
    caps=_SLIDING_CAPS,
    build=lambda: BasicSlidingFrequency(window=128, eps=0.2),
    probe=_sliding_probe,
)
register(
    SpaceEfficientSlidingFrequency,
    summary="sliding-window MG, space-efficient variant (Theorem 5.6)",
    input="items",
    caps=_SLIDING_CAPS,
    build=lambda: SpaceEfficientSlidingFrequency(window=128, eps=0.2),
    probe=_sliding_probe,
)
register(
    WorkEfficientSlidingFrequency,
    summary="sliding-window MG, work-efficient variant (Theorem 5.9)",
    input="items",
    caps=_SLIDING_CAPS,
    build=lambda: WorkEfficientSlidingFrequency(
        window=128, eps=0.2, rng=np.random.default_rng(4)
    ),
    probe=_sliding_probe,
)
