"""Sliding-window Count-Min sketch — SBBC cells inside the §6 sketch.

A synthesis of the paper's two halves that the paper itself stops short
of: replace every Count-Min cell with a (∞, λ)-space-bounded block
counter so that point queries answer over the *last n items* instead of
the whole stream.

Guarantee.  Fix ε, δ and the window n.  With width w = ⌈e/ε⌉,
pairwise-independent row hashes, and per-cell additive error λ = εn:

* every cell's value ≥ the count of the queried item's occurrences in
  the window (SBBC never undercounts, and all occurrences of an item
  hash to the same cell), so the min never undercounts;
* for each row, E[other items in e's cell] ≤ m_window/w ≤ εn/e, so by
  Markov + the λ overcount,  min ≤ f_e + 2εn  with probability ≥ 1−δ
  over the d = ⌈ln(1/δ)⌉ rows.

Cost.  A minibatch touches, per row, only the cells its items hash to;
untouched cells are *lazily* slid (an SBBC advanced by an all-zero
segment only evicts, which commutes with later advances), so ingest is
O(d·(µ + p)) work amortized and queries are O(d) cell catch-ups plus a
min-reduce.  Space is Σ_cells O(m_cell/λ) + wd registers = O(d(w + 1/ε))
words.

Every cell is a slot of one :class:`~repro.core.sbbc_bank.SBBCBank`, so
a minibatch catches up, creates and advances every cell it touches in
a row with one array step, and a key-array query catches each distinct
cell up once.  The ledger is charged, cell by cell and in column order,
what the per-cell SBBC calls would charge
(:func:`~repro.pram.cost.charge_many` inside the row's strand).
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

from repro.core.sbbc_bank import SBBCBank, charge_unit_steps
from repro.pram.cost import charge, charge_many, current_ledger, parallel
from repro.pram.hashing import KWiseHash, pairwise_hashes, restore_hashes, row_columns
from repro.pram.plan import PreparedBatch, fold_key, query_keys
from repro.pram.primitives import log2ceil, reduce_min
from repro.pram.sort import int_sort_by_key
from repro.resilience.invariants import require
from repro.resilience.state import StateError, expect, header

__all__ = ["WindowedCountMin"]

_NO_ONES = np.empty(0, dtype=np.int64)


class WindowedCountMin:
    """Point queries over the last ``window`` items, (ε, δ)-style.

    Estimates satisfy ``f_e <= est`` always and ``est <= f_e + 2εn``
    with probability ≥ 1 − δ (f_e = occurrences of e in the window).
    """

    def __init__(
        self,
        window: int,
        eps: float,
        delta: float,
        rng: np.random.Generator | None = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        rng = rng if rng is not None else np.random.default_rng(0x5CC5)
        self.window = int(window)
        self.eps = float(eps)
        self.delta = float(delta)
        self.lam = max(1.0, eps * window)
        self.width = math.ceil(math.e / eps)
        self.depth = max(1, math.ceil(math.log(1.0 / delta)))
        self.hashes: list[KWiseHash] = pairwise_hashes(self.depth, self.width, rng)
        self.t = 0
        self._rng = rng
        self._clear_cells()

    def _clear_cells(self) -> None:
        """No live cells: an absent cell is an all-zero SBBC.

        Cell ``(row, col)`` is slot ``row·width + col`` of ``_bank``; a
        slot's clock ``t`` is the cell's lazy-slide time, which trails
        the sketch's ``t`` until a catch-up.  ``_born`` numbers the live
        cells in creation order (−1: absent), the order the checkpoint
        lists each row's cells in.
        """
        self._bank = SBBCBank(self.window, self.lam, size=self.depth * self.width)
        self._born = np.full(self.depth * self.width, -1, dtype=np.int64)
        self._births = 0

    # ------------------------------------------------------------------
    def _catch_up(
        self, cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Lazy slide of the distinct ``cells`` (slots): advance each
        live cell by the zeros it missed, then reclaim those whose value
        fell to 0 (the window slid past everything).

        Returns ``(live, behind, work, depth, kept)`` over ``cells``:
        which cells were live, which of them were behind, the SBBC
        charges of those catch-up advances (aligned with
        ``cells[behind]``), and which cells are still live."""
        bank, born = self._bank, self._born
        live = born[cells] >= 0
        lag = np.where(live, self.t - bank.t[cells], 0)
        behind = lag > 0
        slots = cells[behind]
        work, depth = bank.advance(
            slots, _NO_ONES, np.zeros(slots.size + 1, dtype=np.int64), lag[behind]
        )
        kept = live & (bank.raw_values(cells) > 0)
        born[cells[live & ~kept]] = -1
        return live, behind, work, depth, kept

    def ingest(self, batch: Sequence[Hashable] | np.ndarray) -> None:
        """Incorporate a minibatch: per row, group item positions by
        column (stable intSort) and advance only the touched cells."""
        self.ingest_prepared(PreparedBatch(batch))

    extend = ingest

    def ingest_prepared(self, plan: PreparedBatch) -> None:
        """Per-row column grouping over a (possibly shared) batch plan."""
        mu = plan.size
        if mu == 0:
            return
        keys = plan.item_keys()
        positions = np.arange(1, mu + 1, dtype=np.int64)
        with parallel() as par:
            for row in range(self.depth):

                def strand(row: int = row) -> None:
                    cols = plan.hash_columns(self.hashes[row], keys)
                    sorted_cols, sorted_pos = int_sort_by_key(
                        np.asarray(cols), positions, range_factor=self.width
                    )
                    charge(work=max(1, mu), depth=1 + log2ceil(max(2, mu)))
                    self._advance_row(row, sorted_cols, sorted_pos, mu)

                par.run(strand)
        self.t += mu

    def _advance_row(
        self, row: int, sorted_cols: np.ndarray, sorted_pos: np.ndarray, mu: int
    ) -> None:
        """One bank step over the row's touched cells: catch each live
        cell up, give every absent (or just reclaimed) cell a fresh
        SBBC that has seen ``t`` zeros, then advance all of them by
        their 1s in the batch.  Charges, cell by cell in column order,
        what that sequence of SBBC calls charges."""
        offsets = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_cols)) + 1, [mu])
        )
        cells = row * self.width + sorted_cols[offsets[:-1]]
        live, behind, cu_work, cu_depth, kept = self._catch_up(cells)
        fresh = cells[~kept]
        self._bank.reset(fresh, self.t)
        self._born[fresh] = self._births + np.arange(fresh.size)
        self._births += fresh.size
        work, depth = self._bank.advance(cells, sorted_pos, offsets, mu)

        # Per cell, in call order: catch-up advance, raw_value, new
        # cell, its advance over t zeros, the batch advance.
        n = cells.size
        steps_w = np.ones((n, 5), dtype=np.int64)
        steps_d = np.ones((n, 5), dtype=np.int64)
        steps_w[behind, 0], steps_d[behind, 0] = cu_work, cu_depth
        steps_d[:, 3] = 2
        steps_w[:, 4], steps_d[:, 4] = work, depth
        taken = np.stack(
            [behind, live, ~kept, ~kept, np.ones(n, dtype=bool)], axis=1
        )
        charge_many(steps_w[taken], steps_d[taken])

    # ------------------------------------------------------------------
    def point_query(self, item: Hashable | np.ndarray) -> int | np.ndarray:
        """min over rows of the item's (caught-up) cell values.

        ``f_e <= est``; ``est <= f_e + 2εn`` w.p. ≥ 1 − δ.  ``item`` is
        one item (answer: an ``int``) or a 1-D integer array of keys
        (answer: an int64 array).  Every row hash runs once over all
        keys and each distinct cell is caught up once; the ledger is
        charged exactly what querying the keys one at a time charges.
        """
        keys, scalar = query_keys(item)
        rows = self.width * np.arange(self.depth)[:, None]
        # The per-key loop's visits: key by key, row by row.
        visits = (row_columns(self.hashes, keys) + rows).T.ravel()
        cells, first, where = np.unique(visits, return_index=True, return_inverse=True)
        live, behind, work, depth, kept = self._catch_up(cells)
        values = np.where(kept, self._bank.raw_values(cells), 0)[where]
        values = values.reshape(keys.size, self.depth)
        if current_ledger() is not None:
            self._charge_queries(values, first, where, live, behind, work, depth, kept)
        answers = values.min(axis=1)
        return int(answers[0]) if scalar else answers

    estimate = point_query

    def _charge_queries(
        self,
        values: np.ndarray,
        first: np.ndarray,
        where: np.ndarray,
        live: np.ndarray,
        behind: np.ndarray,
        work: np.ndarray,
        depth: np.ndarray,
        kept: np.ndarray,
    ) -> None:
        """Replay the per-key query charges: per row the key's hash, its
        cell's catch-up (advance if behind, raw_value if live — only the
        first visit can advance or reclaim) and the value read of a
        cell still live, then the min-reduce."""
        cu_work = np.zeros(live.size, dtype=np.int64)
        cu_depth = np.zeros(live.size, dtype=np.int64)
        cu_work[behind], cu_depth[behind] = work, depth
        first, where, live, behind, kept, cu_work, cu_depth = (
            a.tolist() for a in (first, where, live, behind, kept, cu_work, cu_depth)
        )
        visit = 0
        for answer in values:
            for h in self.hashes:
                h.charge_eval(1)
                cell = where[visit]
                if first[cell] == visit:
                    if behind[cell]:
                        charge(work=cu_work[cell], depth=cu_depth[cell])
                    if live[cell]:
                        charge(work=1, depth=1)
                elif kept[cell]:
                    charge(work=1, depth=1)
                if kept[cell]:  # the live cell's value read
                    charge(work=1, depth=1)
                visit += 1
            reduce_min(answer)

    def heavy_hitters_from(
        self, candidates: Sequence[Hashable], phi: float
    ) -> dict[Hashable, int]:
        """Report candidates whose windowed estimate clears φ·min(t, n)
        (a candidate set is needed — CMS cannot enumerate; pair with a
        sliding MG tracker or the batch's own items)."""
        if not 0 < phi < 1:
            raise ValueError(f"phi must be in (0, 1), got {phi}")
        candidates = list(candidates)
        if not candidates:
            return {}
        threshold = phi * min(self.t, self.window)
        estimates = self.point_query(np.array([fold_key(item) for item in candidates]))
        return {
            item: estimate
            for item, estimate in zip(candidates, estimates.tolist())
            if estimate >= threshold
        }

    def _live_cols(self, row: int) -> list[int]:
        """Row ``row``'s live columns in creation order."""
        born = self._born[row * self.width : (row + 1) * self.width]
        cols = np.flatnonzero(born >= 0)
        return cols[np.argsort(born[cols])].tolist()

    @property
    def space(self) -> int:
        """Live SBBC words across all cells plus the directories."""
        return self._bank.space(np.flatnonzero(self._born >= 0)) + 2 * self.live_cells

    @property
    def live_cells(self) -> int:
        return int((self._born >= 0).sum())

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        bank = self._bank
        rows = [
            (row * self.width, self._live_cols(row)) for row in range(self.depth)
        ]
        return {
            **header("windowed_countmin"),
            "window": self.window,
            "eps": self.eps,
            "delta": self.delta,
            "lam": self.lam,
            "width": self.width,
            "depth": self.depth,
            "t": self.t,
            "hashes": [h.state_dict() for h in self.hashes],
            "cells": [
                {col: bank.state_dict(base + col) for col in cols}
                for base, cols in rows
            ],
            "cell_time": [
                {col: int(bank.t[base + col]) for col in cols} for base, cols in rows
            ],
        }

    def load_state(self, state: dict) -> None:
        expect(state, "windowed_countmin")
        self.window = int(state["window"])
        self.eps = float(state["eps"])
        self.delta = float(state["delta"])
        self.lam = float(state["lam"])
        self.width = int(state["width"])
        self.depth = int(state["depth"])
        self.t = int(state["t"])
        self.hashes = restore_hashes(self.hashes, state["hashes"])
        if not len(state["cells"]) == len(state["cell_time"]) == self.depth:
            raise StateError("windowed_countmin state needs one cell map per row")
        self._clear_cells()
        for row, (cells, clocks) in enumerate(zip(state["cells"], state["cell_time"])):
            cols = np.array([int(col) for col in cells], dtype=np.int64)
            if cols.size and not (0 <= cols.min() and cols.max() < self.width):
                raise StateError(f"row {row}: cell column outside [0, {self.width})")
            slots = row * self.width + cols
            self._bank.load_states(slots, cells.values())
            if {int(c): int(ts) for c, ts in clocks.items()} != dict(
                zip(cols.tolist(), self._bank.t[slots].tolist())
            ):
                raise StateError(f"row {row}: cell clocks disagree with the cells")
            self._born[slots] = self._births + np.arange(cols.size)
            self._births += cols.size
        charge_unit_steps(self._births)  # one new SBBC per live cell

    def check_invariants(self) -> None:
        """Audit every live cell: SBBC invariants and the lazy-slide
        clock never ahead of global time; absent cells hold nothing."""
        name = "WindowedCountMin"
        cells = self.depth * self.width
        require(
            self.depth == len(self.hashes)
            and len(self._bank) == self._born.size == cells,
            name,
            "row count drifted",
        )
        live = np.flatnonzero(self._born >= 0)
        ahead = live[(self._bank.t[live] < 0) | (self._bank.t[live] > self.t)]
        if ahead.size:
            row, col = divmod(int(ahead[0]), self.width)
            require(False, name, f"cell ({row}, {col}) clock ahead of t={self.t}")
        require(not self._bank.raw_values(np.flatnonzero(self._born < 0)).any(), name,
                "an absent cell holds a nonzero value")
        self._bank.check_invariants(name, live)


# ----------------------------------------------------------------------
from repro.engine.registry import Capabilities, register  # noqa: E402

register(
    WindowedCountMin,
    summary="Count-Min over a sliding window via block sketches",
    input="items",
    caps=Capabilities(preparable=True, windowed=True, invariant_checked=True),
    build=lambda: WindowedCountMin(
        window=128, eps=0.1, delta=0.2, rng=np.random.default_rng(5)
    ),
    probe=lambda op: op.point_query(np.arange(64)).tolist(),
)
