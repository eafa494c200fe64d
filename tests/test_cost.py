"""Unit tests for the work-depth cost ledger (repro.pram.cost)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pram.cost import (
    Cost,
    CostLedger,
    charge,
    charge_many,
    current_ledger,
    labeled,
    measured,
    parallel,
    tracking,
)


class TestCost:
    def test_sequential_composition_adds_both(self):
        assert Cost(3, 2) + Cost(5, 7) == Cost(8, 9)

    def test_parallel_composition_maxes_depth(self):
        assert Cost(3, 2) | Cost(5, 7) == Cost(8, 7)

    def test_zero_cost_is_falsy(self):
        assert not Cost()
        assert Cost(1, 0)

    @given(
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    def test_parallel_commutes(self, w1, d1, w2, d2):
        assert Cost(w1, d1) | Cost(w2, d2) == Cost(w2, d2) | Cost(w1, d1)

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000)), min_size=1))
    def test_sequential_is_associative(self, pairs):
        costs = [Cost(w, d) for w, d in pairs]
        left = costs[0]
        for c in costs[1:]:
            left = left + c
        assert left.work == sum(c.work for c in costs)
        assert left.depth == sum(c.depth for c in costs)


class TestLedger:
    def test_charge_accumulates_sequentially(self):
        ledger = CostLedger()
        ledger.charge(10, 2)
        ledger.charge(5, 3)
        assert (ledger.work, ledger.depth) == (15, 5)

    def test_negative_charge_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.charge(-1, 1)
        with pytest.raises(ValueError):
            ledger.charge(1, -1)

    def test_merge_parallel_sum_work_max_depth(self):
        ledger = CostLedger()
        ledger.merge_parallel([Cost(10, 4), Cost(20, 2), Cost(5, 9)])
        assert (ledger.work, ledger.depth) == (35, 9)

    def test_merge_parallel_empty_is_noop(self):
        ledger = CostLedger()
        ledger.merge_parallel([])
        assert (ledger.work, ledger.depth) == (0, 0)


class TestAmbient:
    def test_no_ledger_by_default(self):
        assert current_ledger() is None

    def test_charge_without_ledger_is_dropped(self):
        charge(100, 100)  # must not raise

    def test_tracking_installs_and_removes(self):
        with tracking() as led:
            assert current_ledger() is led
            charge(7, 1)
        assert current_ledger() is None
        assert led.work == 7

    def test_tracking_nests(self):
        with tracking() as outer:
            with tracking() as inner:
                charge(5, 1)
            charge(3, 1)
        assert inner.work == 5
        assert outer.work == 3

    def test_measured_reports_block_delta(self):
        with tracking():
            charge(100, 10)
            with measured() as get:
                charge(5, 2)
                charge(5, 2)
            assert get() == Cost(10, 4)

    def test_measured_without_ambient_ledger(self):
        with measured() as get:
            charge(9, 3)
        assert get() == Cost(9, 3)


class TestParallelRegion:
    def test_fork_join_semantics(self):
        with tracking() as led:
            with parallel() as par:
                par.run(charge, 100, 4)
                par.run(charge, 50, 9)
                par.run(charge, 10, 1)
        assert (led.work, led.depth) == (160, 9)

    def test_results_returned(self):
        with tracking():
            with parallel() as par:
                a = par.run(lambda: 1 + 1)
                b = par.run(lambda: "x" * 3)
        assert (a, b) == (2, "xxx")

    def test_empty_region_charges_nothing(self):
        with tracking() as led:
            with parallel():
                pass
        assert (led.work, led.depth) == (0, 0)

    def test_nested_regions(self):
        # outer strand A: depth 5; strand B contains an inner parallel
        # region of depths (3, 8) + sequential charge of 1 -> depth 9.
        with tracking() as led:
            with parallel() as par:
                par.run(charge, 1, 5)

                def strand_b():
                    with parallel() as inner:
                        inner.run(charge, 10, 3)
                        inner.run(charge, 10, 8)
                    charge(1, 1)

                par.run(strand_b)
        assert led.depth == 9
        assert led.work == 22

    def test_run_after_close_rejected(self):
        with tracking():
            with parallel() as par:
                par.run(charge, 1, 1)
        with pytest.raises(RuntimeError):
            par.run(charge, 1, 1)

    def test_charge_strand_without_closure(self):
        with tracking() as led:
            with parallel() as par:
                par.charge_strand(40, 2)
                par.charge_strand(2, 6)
        assert (led.work, led.depth) == (42, 6)

    def test_strand_does_not_leak_to_parent_sequentially(self):
        with tracking() as led:
            with parallel() as par:
                par.run(charge, 10, 10)
            # the charge must arrive via merge, not doubled
        assert (led.work, led.depth) == (10, 10)

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)), min_size=1, max_size=10))
    def test_region_matches_fold(self, strands):
        with tracking() as led:
            with parallel() as par:
                for w, d in strands:
                    par.run(charge, w, d)
        assert led.work == sum(w for w, _ in strands)
        assert led.depth == max(d for _, d in strands)


_charges = st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)), max_size=12)


def _ledger_after(record: bool, label: str | None, body) -> tuple:
    with tracking(record=record) as led, labeled(label):
        charge(3, 1)
        body()
        charge(5, 2)
    return led.work, led.depth, led.trace, led.by_operator


class TestVectorCharges:
    """``charge_many`` and ``ParallelRegion.charge_strands`` must leave
    the ledger exactly as the loop of single charges does."""

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("label", [None, "op"])
    @given(charges=_charges)
    def test_charge_many_is_the_loop(self, record, label, charges):
        works = np.array([w for w, _ in charges], dtype=np.int64)
        depths = np.array([d for _, d in charges], dtype=np.int64)

        def loop():
            for w, d in charges:
                charge(w, d)

        assert _ledger_after(record, label, lambda: charge_many(works, depths)) == (
            _ledger_after(record, label, loop)
        )

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("label", [None, "op"])
    @given(before=_charges, charges=_charges)
    def test_charge_strands_is_the_loop(self, record, label, before, charges):
        works = np.array([w for w, _ in charges], dtype=np.int64)
        depths = np.array([d for _, d in charges], dtype=np.int64)

        def region(vector: bool):
            def body():
                with parallel() as par:
                    for w, d in before:
                        par.charge_strand(w, d)
                    if vector:
                        par.charge_strands(works, depths)
                    else:
                        for w, d in charges:
                            par.charge_strand(w, d)
            return body

        assert _ledger_after(record, label, region(True)) == (
            _ledger_after(record, label, region(False))
        )

    def test_no_ledger_no_effect(self):
        ones = np.ones(3, dtype=np.int64)
        charge_many(ones, ones)
        with parallel() as par:
            par.charge_strands(ones, ones)
        assert current_ledger() is None

    def test_negative_vector_charge_rejected(self):
        with tracking():
            with pytest.raises(ValueError):
                charge_many(np.array([1, -1]), np.array([1, 1]))
            with parallel() as par, pytest.raises(ValueError):
                par.charge_strands(np.array([1, 1]), np.array([1, -1]))
