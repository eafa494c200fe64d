"""Parity pins for the SBBC bank and the operators built on it.

:class:`~repro.core.sbbc_bank.SBBCBank` keeps K (σ, λ)-SBBCs as arrays.
It must behave exactly like K independent counters of the frozen object
form (``tests/frozen_sbbc.py``) with the same σ and per-slot λ: the same
values, the same ``state_dict`` and the same per-call ``(work, depth)``.
The one intended difference is the truncation record, a bounded
(count, weakest certificate) pair instead of the object form's event
list, so states are compared with that record normalized.

The one-slot :class:`~repro.core.sbbc.SBBC` view and the bank-backed
:class:`~repro.core.basic_counting.ParallelBasicCounter` are held to the
frozen ``SBBC`` and ``ParallelBasicCounter`` the same way.

``WindowedCountMin`` and the three sliding-window frequency estimators
are each held to a frozen copy of their per-counter object form (one
``SBBC`` per cell or tracked item, one charge and one fork-join strand
per call).  Over drawn streams with empty batches, µ >= n resets, idle
gaps long enough to reclaim cells, interleaved queries (which mutate
through catch-up) and a checkpoint round trip in the middle, both must
leave byte-identical ``state_dict`` output, the same answers and the
same ledger: work, depth, recorded trace and ``by_operator``.  The
checkpoint is always written by the frozen copy, so a checkpoint of
the object form loads into the bank form and continues identically.
"""

from __future__ import annotations

import math
import pickle
from typing import Hashable

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.freq_sliding import (
    BasicSlidingFrequency,
    SpaceEfficientSlidingFrequency,
    WorkEfficientSlidingFrequency,
)
from repro.core.basic_counting import ParallelBasicCounter
from repro.core.sbbc import OVERFLOWED
from repro.core.sbbc import SBBC as BankSBBC
from repro.core.sbbc_bank import SBBCBank
from repro.core.windowed_countmin import WindowedCountMin
from repro.pram.cost import CostLedger, charge, labeled, parallel, tracking
from repro.pram.css import CSS
from repro.pram.hashing import KWiseHash, pairwise_hashes
from repro.pram.plan import PreparedBatch
from repro.pram.primitives import log2ceil, reduce_min
from repro.pram.select import prune_cutoff
from repro.pram.sort import int_sort_by_key
from repro.resilience.state import dumps, expect, header, loads, restore_rng, rng_state
from tests.frozen_sbbc import SBBC
from tests.frozen_sbbc import ParallelBasicCounter as FrozenLadder

# ----------------------------------------------------------------------
# Frozen copies of the per-counter object forms
# ----------------------------------------------------------------------


def _frozen_sift(segment, keep):
    """Lemma 5.9's dict-of-CSS sift with its original charge."""
    keep_list = list(dict.fromkeys(keep))
    k, t = len(keep_list), len(segment)
    charge(work=max(1, t + k), depth=max(1, k + log2ceil(max(2, t + k))))
    buckets: dict[Hashable, list[int]] = {item: [] for item in keep_list}
    for pos, item in enumerate(segment, start=1):
        item = item.item() if isinstance(item, np.generic) else item
        if item in buckets:
            buckets[item].append(pos)
    return {
        item: CSS(length=t, ones=np.asarray(bucket, dtype=np.int64))
        for item, bucket in buckets.items()
    }


class FrozenWindowedCountMin:
    def __init__(self, window, eps, delta, rng):
        self.window, self.eps, self.delta = int(window), float(eps), float(delta)
        self.lam = max(1.0, eps * window)
        self.width = math.ceil(math.e / eps)
        self.depth = max(1, math.ceil(math.log(1.0 / delta)))
        self.hashes = pairwise_hashes(self.depth, self.width, rng)
        self._cells: list[dict[int, SBBC]] = [{} for _ in range(self.depth)]
        self.t = 0
        self._cell_time: list[dict[int, int]] = [{} for _ in range(self.depth)]

    def _catch_up(self, row, col):
        cell = self._cells[row].get(col)
        if cell is None:
            return None
        behind = self.t - self._cell_time[row][col]
        if behind:
            cell.advance(CSS(length=behind))
            self._cell_time[row][col] = self.t
        if cell.raw_value() == 0:
            del self._cells[row][col]
            del self._cell_time[row][col]
            return None
        return cell

    def ingest(self, batch):
        self.ingest_prepared(PreparedBatch(batch))

    def ingest_prepared(self, plan):
        mu = plan.size
        if mu == 0:
            return
        keys = plan.item_keys()
        positions = np.arange(1, mu + 1, dtype=np.int64)
        with parallel() as par:
            for row in range(self.depth):

                def strand(row=row):
                    cols = plan.hash_columns(self.hashes[row], keys)
                    sorted_cols, sorted_pos = int_sort_by_key(
                        np.asarray(cols), positions, range_factor=self.width
                    )
                    boundaries = np.flatnonzero(np.diff(sorted_cols)) + 1
                    starts = np.concatenate([[0], boundaries])
                    ends = np.concatenate([boundaries, [mu]])
                    charge(work=max(1, mu), depth=1 + log2ceil(max(2, mu)))
                    for s, e in zip(starts, ends):
                        col = int(sorted_cols[s])
                        cell = self._catch_up(row, col)
                        if cell is None:
                            cell = SBBC(self.window, self.lam, sigma=math.inf)
                            cell.advance(CSS(length=self.t))
                            self._cells[row][col] = cell
                            self._cell_time[row][col] = self.t
                        cell.advance(CSS(length=mu, ones=np.sort(sorted_pos[s:e])))
                        self._cell_time[row][col] = self.t + mu

                par.run(strand)
        self.t += mu

    def point_query(self, item):
        key = int(item)
        values = np.empty(self.depth, dtype=np.int64)
        for row in range(self.depth):
            col = int(self.hashes[row](key))
            cell = self._catch_up(row, col)
            values[row] = 0 if cell is None else cell.raw_value()
        return int(reduce_min(values))

    def heavy_hitters_from(self, candidates, phi):
        threshold = phi * min(self.t, self.window)
        out = {}
        for item in candidates:
            estimate = self.point_query(item)
            if estimate >= threshold:
                out[item] = estimate
        return out

    @property
    def space(self):
        return sum(cell.space for row in self._cells for cell in row.values()) + 2 * sum(
            len(row) for row in self._cells
        )

    def state_dict(self):
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
            "cells": [{c: cell.state_dict() for c, cell in row.items()} for row in self._cells],
            "cell_time": [dict(row) for row in self._cell_time],
        }

    def load_state(self, state):
        expect(state, "windowed_countmin")
        self.t = int(state["t"])
        self.hashes = [KWiseHash.from_state(s) for s in state["hashes"]]
        self._cells = []
        for row in state["cells"]:
            rebuilt = {}
            for col, sub in row.items():
                cell = SBBC(self.window, self.lam, sigma=math.inf)
                cell.load_state(sub)
                rebuilt[int(col)] = cell
            self._cells.append(rebuilt)
        self._cell_time = [
            {int(col): int(ts) for col, ts in row.items()} for row in state["cell_time"]
        ]


class _FrozenSliding:
    _STATE_KIND = "freq_sliding"

    def __init__(self, window, eps, lam):
        self.window, self.eps, self.lam = int(window), float(eps), float(lam)
        self.counters: dict[Hashable, SBBC] = {}
        self.t = 0

    def _new_counter(self):
        return SBBC(self.window, lam=self.lam, sigma=math.inf)

    def estimate(self, item):
        counter = self.counters.get(item)
        if counter is None:
            return 0.0
        return max(0.0, counter.raw_value() - self.lam)

    def estimates(self):
        return {item: self.estimate(item) for item in self.counters}

    @property
    def space(self):
        return sum(c.space for c in self.counters.values()) + len(self.counters)

    def state_dict(self):
        state = {
            **header(self._STATE_KIND),
            "window": self.window,
            "eps": self.eps,
            "lam": self.lam,
            "t": self.t,
            "counters": {item: c.state_dict() for item, c in self.counters.items()},
            "capacity": self.capacity,
        }
        if hasattr(self, "_rng"):
            state["rng"] = rng_state(self._rng)
        return state

    def load_state(self, state):
        expect(state, self._STATE_KIND)
        self.t = int(state["t"])
        if "rng" in state:
            self._rng = restore_rng(state["rng"])
        self.counters = {}
        for item, sub in state["counters"].items():
            counter = self._new_counter()
            counter.load_state(sub)
            self.counters[item] = counter

    def ingest(self, batch):
        self.ingest_prepared(PreparedBatch(np.asarray(batch)))

    def ingest_prepared(self, plan):
        batch = np.asarray(plan.raw)
        if len(batch) >= self.window:
            self.counters = {}
            self.t += len(batch) - self.window
            plan = PreparedBatch(batch[-self.window :])
        if plan.size == 0:
            return
        self._ingest_plan(plan)

    def _advance_every_item(self, plan):
        mu = plan.size
        groups = plan.positions_by_item()
        keys = list(groups.keys() | self.counters.keys())
        with parallel() as par:
            for item in keys:
                counter = self.counters.get(item)
                if counter is None:
                    counter = self._new_counter()
                    self.counters[item] = counter
                positions = groups.get(item)
                css = CSS(
                    length=mu,
                    ones=positions if positions is not None else np.empty(0, dtype=np.int64),
                )
                par.run(counter.advance, css)
        self.t += mu


class FrozenBasic(_FrozenSliding):
    _STATE_KIND = "freq_sliding_basic"

    def __init__(self, window, eps):
        self.capacity = math.ceil(1.0 / eps)
        super().__init__(window, eps, lam=window / self.capacity)

    def _ingest_plan(self, plan):
        self._advance_every_item(plan)
        dead = [item for item, c in self.counters.items() if c.raw_value() == 0]
        for item in dead:
            del self.counters[item]


class FrozenSpaceEfficient(_FrozenSliding):
    _STATE_KIND = "freq_sliding_space_efficient"

    def __init__(self, window, eps):
        self.capacity = math.ceil(8.0 / eps)
        super().__init__(window, eps, lam=eps * window / 4.0)

    def _ingest_plan(self, plan):
        self._advance_every_item(plan)
        if not self.counters:
            return
        values = np.fromiter(
            (c.raw_value() for c in self.counters.values()),
            dtype=np.int64,
            count=len(self.counters),
        )
        phi = prune_cutoff(values, self.capacity)
        survivors = {}
        with parallel() as par:
            for (item, counter), value in zip(list(self.counters.items()), values):
                if value > phi:
                    if phi:
                        par.run(counter.decrement, phi)
                    survivors[item] = counter
        self.counters = {item: c for item, c in survivors.items() if c.raw_value() > 0}


class FrozenWorkEfficient(_FrozenSliding):
    _STATE_KIND = "freq_sliding_work_efficient"

    def __init__(self, window, eps, rng):
        self.capacity = math.ceil(8.0 / eps)
        super().__init__(window, eps, lam=eps * window / 4.0)
        self._rng = rng

    def _ingest_plan(self, plan):
        batch = np.asarray(plan.raw)
        mu = plan.size
        histogram = plan.hist_dict()
        predicted = {
            item: counter.peek_shrunk_value(mu) for item, counter in self.counters.items()
        }
        charge(work=max(1, len(histogram)), depth=1)
        for item, freq in histogram.items():
            predicted[item] = predicted.get(item, 0) + freq
        values = np.fromiter(predicted.values(), dtype=np.int64, count=len(predicted))
        phi = prune_cutoff(values, self.capacity) if predicted.keys() else 0
        keep = [item for item, value in predicted.items() if value > phi]
        segments = _frozen_sift(batch, keep)
        with parallel() as par:
            for item in keep:
                counter = self.counters.get(item)
                if counter is None:
                    counter = self._new_counter()
                    self.counters[item] = counter
                par.run(counter.advance, segments[item])
        self.t += mu
        survivors = {}
        with parallel() as par:
            for item in keep:
                counter = self.counters[item]
                if phi:
                    par.run(counter.decrement, phi)
                if counter.raw_value() > 0:
                    survivors[item] = counter
        self.counters = survivors


# ----------------------------------------------------------------------
# The bank against K independent SBBCs
# ----------------------------------------------------------------------

_segment = st.lists(st.booleans(), max_size=40)
_lam = st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5, 20.0])


def _record(record):
    """A truncation record as (count, weakest certificate): the object
    form's event list and the bank's bounded record alike."""
    if isinstance(record, dict):
        return record["count"], record["min_value_before"]
    return len(record), min((e["value_before"] for e in record), default=None)


def _normalized(state):
    """``state`` with every SBBC truncation record as (count, minimum)."""
    if isinstance(state, dict):
        return {
            key: _record(value) if key == "truncations" else _normalized(value)
            for key, value in state.items()
        }
    if isinstance(state, list):
        return [_normalized(value) for value in state]
    return state


def _state_bytes(state) -> bytes:
    return pickle.dumps(_normalized(state))


@given(
    window=st.integers(1, 120),
    lams=st.lists(_lam, min_size=1, max_size=5),
    sigma=st.sampled_from([math.inf, 0.5, 1, 2.5, 4]),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["advance", "decrement", "peek", "take", "grow"]),
            st.lists(st.integers(0, 4), max_size=5, unique=True),
            st.lists(_segment, min_size=5, max_size=5),
            st.integers(0, 60),
        ),
        max_size=14,
    ),
)
def test_bank_matches_independent_sbbcs(window, lams, sigma, steps):
    """Finite σ and mixed per-slot λ, λ < 2 (exact counting) included."""
    counters = [SBBC(window, lam, sigma) for lam in lams]
    bank = SBBCBank(window, lams, len(lams), sigma)
    for kind, picks, segments, amount in steps:
        slots = np.array([p for p in picks if p < len(counters)], dtype=np.int64)
        if kind == "advance":
            ones = [np.flatnonzero(segments[i]) + 1 for i in range(slots.size)]
            offsets = np.concatenate(([0], np.cumsum([o.size for o in ones])))
            lengths = np.array([len(segments[i]) for i in range(slots.size)], dtype=np.int64)
            positions = np.concatenate([np.empty(0, dtype=np.int64), *ones])
            work, depth = bank.advance(slots, positions, offsets, lengths)
            for i, slot in enumerate(slots):
                with tracking() as led:
                    counters[slot].advance(CSS(length=int(lengths[i]), ones=ones[i]))
                assert (led.work, led.depth) == (work[i], depth[i])
        elif kind == "decrement":
            work, depth = bank.decrement(slots, amount)
            for i, slot in enumerate(slots):
                with tracking() as led:
                    counters[slot].decrement(amount)
                assert (led.work, led.depth) == (work[i], depth[i])
        elif kind == "peek":
            values, work, depth = bank.peek_shrunk_values(slots, amount)
            for i, slot in enumerate(slots):
                with tracking() as led:
                    value = counters[slot].peek_shrunk_value(amount)
                assert (value, led.work, led.depth) == (values[i], work[i], depth[i])
        elif kind == "take":
            bank.take(slots)
            counters = [counters[i] for i in slots]
        else:
            lam = lams[amount % len(lams)]
            bank.grow(len(picks), lam)
            counters += [SBBC(window, lam, sigma) for _ in picks]
        assert len(bank) == len(counters)
        assert bank.raw_values().tolist() == [c.raw_value() for c in counters]
        assert bank.overflowed().tolist() == [c.overflowed for c in counters]
        for slot, counter in enumerate(counters):
            assert _state_bytes(bank.state_dict(slot)) == _state_bytes(counter.state_dict())
        bank.check_invariants("SBBCBank")
    states = [c.state_dict() for c in counters]
    rebuilt = SBBCBank.from_states(window, [c.lam for c in counters], states, sigma)
    for slot, counter in enumerate(counters):
        assert _state_bytes(rebuilt.state_dict(slot)) == _state_bytes(counter.state_dict())
        assert dumps(loads(dumps(rebuilt.state_dict(slot)))) == dumps(rebuilt.state_dict(slot))


# ----------------------------------------------------------------------
# The one-slot SBBC view and the ladder against their frozen forms
# ----------------------------------------------------------------------

#: Bit minibatches: empty, one bit, mixed, and long all-ones runs that
#: truncate finite-σ counters and exceed the window (µ >= n).
_bits = st.one_of(
    st.lists(st.booleans(), max_size=1),
    st.lists(st.booleans(), max_size=60),
    st.integers(1, 150).map(lambda n: [True] * n),
)


def _css(bits) -> CSS:
    return CSS(length=len(bits), ones=np.flatnonzero(bits).astype(np.int64) + 1)


def _run_pinned(sides, steps, act):
    """Drive ``sides`` (new form, frozen form) through ``steps`` under
    recording ledgers; ``act(side, step)`` returns what the step shows.
    A "checkpoint" step loads the frozen form's state into both."""
    ledgers = [CostLedger(record=True), CostLedger(record=True)]
    seen: list[list] = [[], []]
    for step in steps:
        blob = loads(dumps(sides[1].state_dict()))
        for i, (side, ledger) in enumerate(zip(sides, ledgers)):
            with tracking(ledger), labeled("op"):
                if step[0] == "checkpoint":
                    side.load_state(blob)
                else:
                    seen[i].append(act(side, step))
            seen[i] += [_state_bytes(side.state_dict()), side.space]
        sides[0].check_invariants()
    assert seen[0] == seen[1]
    new, old = ledgers
    assert (new.work, new.depth, new.by_operator) == (old.work, old.depth, old.by_operator)
    assert new.trace == old.trace


def _sbbc_step(side, step):
    kind, arg = step
    if kind == "advance":
        side.advance(_css(arg))
        return side.truncations if isinstance(side, BankSBBC) else len(side.truncations)
    if kind == "ingest":
        side.ingest(np.asarray(arg, dtype=np.int64))
        return side.overflowed
    if kind == "query":
        snap = side.query()
        return "OVERFLOWED" if snap is OVERFLOWED else (snap.gamma, snap.blocks.tolist(), snap.ell)
    if kind == "value":
        return side.value(), side.raw_value(), side.overflowed
    if kind == "decrement":
        side.decrement(arg)
        return side.raw_value()
    return side.peek_shrunk_value(arg)


@given(
    window=st.integers(1, 64),
    lam=_lam,
    sigma=st.sampled_from([math.inf, 0.5, 1, 3, 8]),
    steps=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["advance", "ingest"]), _bits),
            st.tuples(st.sampled_from(["query", "value", "checkpoint"]), st.just(0)),
            st.tuples(st.sampled_from(["decrement", "peek"]), st.integers(0, 80)),
        ),
        max_size=16,
    ),
)
def test_sbbc_view_matches_frozen_sbbc(window, lam, sigma, steps):
    ledgers = [CostLedger(record=True), CostLedger(record=True)]
    sides = []
    for cls, ledger in zip((BankSBBC, SBBC), ledgers):
        with tracking(ledger):
            sides.append(cls(window, lam, sigma))
    assert (ledgers[0].work, ledgers[0].depth) == (ledgers[1].work, ledgers[1].depth)
    _run_pinned(sides, steps, _sbbc_step)
    new, old = sides
    events = old.truncations
    assert new.truncations == len(events)
    assert new.min_value_before == min((e.value_before for e in events), default=None)


def _ladder_step(side, step):
    kind, arg = step
    if kind == "advance":
        side.advance(_css(arg))
    elif kind == "ingest":
        side.ingest(np.asarray(arg, dtype=np.int64))
    return side.query()


@given(
    window=st.integers(1, 64),
    eps=st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
    slack=st.integers(0, 2),
    steps=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["advance", "ingest"]), _bits),
            st.tuples(st.sampled_from(["query", "checkpoint"]), st.just(0)),
        ),
        max_size=16,
    ),
)
def test_ladder_matches_frozen_ladder(window, eps, slack, steps):
    ledgers = [CostLedger(record=True), CostLedger(record=True)]
    sides = []
    for cls, ledger in zip((ParallelBasicCounter, FrozenLadder), ledgers):
        with tracking(ledger), labeled("op"):
            sides.append(cls(window, eps, sigma_slack=slack))
    assert ledgers[0].trace == ledgers[1].trace
    assert ledgers[0].by_operator == ledgers[1].by_operator
    _run_pinned(sides, steps, _ladder_step)


# ----------------------------------------------------------------------
# Operators against their frozen object forms
# ----------------------------------------------------------------------


def _pair(kind: str, window: int, eps: float):
    if kind == "wcms":
        return (
            WindowedCountMin(window, eps, 0.2, rng=np.random.default_rng(7)),
            FrozenWindowedCountMin(window, eps, 0.2, np.random.default_rng(7)),
        )
    if kind == "basic":
        return BasicSlidingFrequency(window, eps), FrozenBasic(window, eps)
    if kind == "space":
        return SpaceEfficientSlidingFrequency(window, eps), FrozenSpaceEfficient(window, eps)
    return (
        WorkEfficientSlidingFrequency(window, eps, rng=np.random.default_rng(9)),
        FrozenWorkEfficient(window, eps, np.random.default_rng(9)),
    )


def _query(kind: str, op, keys: list[int], frozen: bool):
    """Interleaved reads; the bank form answers a key array at once."""
    if kind != "wcms":
        return [op.estimate(k) for k in keys], op.estimates()
    if frozen:
        return [op.point_query(k) for k in keys], op.heavy_hitters_from(keys, 0.1)
    return op.point_query(np.array(keys)).tolist(), op.heavy_hitters_from(keys, 0.1)


_step = st.one_of(
    st.tuples(st.just("batch"), st.lists(st.integers(0, 30), max_size=40)),
    st.tuples(st.just("reset"), st.integers(0, 2)),
    st.tuples(st.just("gap"), st.integers(1, 3)),
    st.tuples(st.just("query"), st.lists(st.integers(0, 30), min_size=1, max_size=6)),
    st.tuples(st.just("checkpoint"), st.just(0)),
)


@given(
    kind=st.sampled_from(["wcms", "basic", "space", "work"]),
    window=st.integers(4, 64),
    eps=st.sampled_from([0.05, 0.1, 0.25, 0.5]),
    steps=st.lists(_step, max_size=16),
)
def test_operator_matches_frozen_object_form(kind, window, eps, steps):
    sides = _pair(kind, window, eps)
    ledgers = [CostLedger(record=True), CostLedger(record=True)]
    seen: list[list] = [[], []]
    for action, arg in steps:
        blob = loads(dumps(sides[1].state_dict()))
        for i, (side, ledger) in enumerate(zip(sides, ledgers)):
            with tracking(ledger), labeled("op"):
                if action == "batch":
                    side.ingest_prepared(PreparedBatch(np.array(arg, dtype=np.int64)))
                elif action == "reset":  # µ >= n: restart on the last n items
                    side.ingest(np.arange(window + arg, dtype=np.int64) % 7)
                elif action == "gap":  # one cold item: old cells leave the window
                    side.ingest(np.full(arg * window // 2 + 1, 99, dtype=np.int64))
                elif action == "query":
                    seen[i].append(_query(kind, side, arg, frozen=i == 1))
                else:  # the object form's checkpoint, loaded mid-stream
                    side.load_state(blob)
            seen[i] += [pickle.dumps(side.state_dict()), side.space]
        sides[0].check_invariants()
    assert seen[0] == seen[1]
    new, old = ledgers
    assert (new.work, new.depth, new.by_operator) == (old.work, old.depth, old.by_operator)
    assert new.trace == old.trace


def test_checkpoint_order_and_bytes_survive_reclaim():
    """A reclaimed-then-recreated cell moves to the end of its row's
    directory, as deleting and re-inserting a dict key does."""
    new, old = _pair("wcms", 16, 0.25)
    for side in (new, old):
        side.ingest(np.array([1, 2, 3, 1, 2, 3], dtype=np.int64))
        side.ingest(np.full(40, 5, dtype=np.int64))
        side.ingest(np.array([1, 4], dtype=np.int64))
    assert pickle.dumps(new.state_dict()) == pickle.dumps(old.state_dict())
    assert dumps(new.state_dict()) == dumps(old.state_dict())
