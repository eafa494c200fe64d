"""Tests for sliding-window basic counting (Theorem 4.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import basic_counting_space_bound
from repro.core.basic_counting import ParallelBasicCounter
from repro.pram.cost import tracking
from repro.pram.css import css_of_bits
from repro.resilience.invariants import InvariantViolation
from repro.resilience.state import StateError, dumps
from repro.stream.generators import bursty_bit_stream, bit_stream, minibatches
from repro.stream.oracle import ExactWindowCounter


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelBasicCounter(0, 0.1)
        with pytest.raises(ValueError):
            ParallelBasicCounter(10, 0.0)
        with pytest.raises(ValueError):
            ParallelBasicCounter(10, 1.5)

    def test_ladder_size_is_log(self):
        counter = ParallelBasicCounter(window=1 << 16, eps=0.1)
        # k = min{i : εn/2^i < 1} → ~log2(εn) + 1 levels.
        expected = math.floor(math.log2(0.1 * (1 << 16))) + 2
        assert abs(counter.num_levels - expected) <= 1

    def test_lambdas_are_geometric(self):
        counter = ParallelBasicCounter(window=1000, eps=0.2)
        lams = counter.bank.lam.tolist()
        for a, b in zip(lams, lams[1:]):
            assert a == pytest.approx(2 * b)
        assert lams[-1] < 1  # finest rung is exact

    def test_tiny_eps_n_degenerates_gracefully(self):
        counter = ParallelBasicCounter(window=5, eps=0.1)  # εn = 0.5 < 1
        assert counter.num_levels == 1
        counter.ingest(np.array([1, 1, 0, 1, 1]))
        assert counter.query() == 4  # exact


class TestAccuracy:
    @given(
        st.integers(20, 400),
        st.sampled_from([0.5, 0.25, 0.1, 0.05]),
        st.floats(0.0, 1.0),
        st.integers(1, 60),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40)
    def test_relative_error_le_eps(self, window, eps, density, batch, seed):
        rng = np.random.default_rng(seed)
        counter = ParallelBasicCounter(window, eps)
        oracle = ExactWindowCounter(window)
        bits = (rng.random(3 * window) < density).astype(np.int64)
        for chunk in minibatches(bits, batch):
            counter.ingest(chunk)
            oracle.extend(chunk)
            m = oracle.query()
            estimate = counter.query()
            assert estimate >= m, "one-sided overestimate"
            assert estimate <= m + eps * max(m, 1), (
                f"relative error blown: m={m}, est={estimate}, eps={eps}"
            )

    def test_bursty_phase_transitions(self):
        window, eps = 500, 0.1
        counter = ParallelBasicCounter(window, eps)
        oracle = ExactWindowCounter(window)
        bits = bursty_bit_stream(8_000, period=1_000, duty=0.3, rng=17)
        for chunk in minibatches(bits, 173):
            counter.ingest(chunk)
            oracle.extend(chunk)
            m = oracle.query()
            assert m <= counter.query() <= m + eps * max(m, 1)

    def test_all_zeros_is_exact_zero(self):
        counter = ParallelBasicCounter(100, 0.1)
        counter.ingest(np.zeros(300, dtype=np.int64))
        assert counter.query() == 0

    def test_all_ones_full_window(self):
        window, eps = 128, 0.1
        counter = ParallelBasicCounter(window, eps)
        counter.ingest(np.ones(3 * window, dtype=np.int64))
        assert window <= counter.query() <= (1 + eps) * window


class TestSpace:
    @pytest.mark.parametrize("eps", [0.5, 0.2, 0.1, 0.05])
    @pytest.mark.parametrize("window", [1 << 8, 1 << 12])
    def test_space_within_bound(self, eps, window):
        counter = ParallelBasicCounter(window, eps)
        counter.ingest(bit_stream(2 * window, 0.5, rng=1))
        bound = basic_counting_space_bound(eps, window)
        assert counter.space <= 25 * bound

    def test_space_grows_with_inverse_eps(self):
        window = 1 << 12
        spaces = []
        for eps in (0.4, 0.2, 0.1):
            c = ParallelBasicCounter(window, eps)
            c.ingest(bit_stream(2 * window, 0.5, rng=2))
            spaces.append(c.space)
        assert spaces[0] < spaces[1] < spaces[2]


class TestWork:
    def test_minibatch_work_linear(self):
        """Theorem 4.1: work O(S + µ) ⇒ per-item work O(1) for µ >= S."""
        window, eps = 1 << 14, 0.1
        counter = ParallelBasicCounter(window, eps)
        per_item = []
        for mu in (1 << 10, 1 << 12, 1 << 14):
            bits = bit_stream(mu, 0.5, rng=3)
            segment = css_of_bits(bits)
            with tracking() as led:
                counter.advance(segment)
            per_item.append(led.work / mu)
        # Per-item work must not grow with µ.
        assert per_item[-1] <= per_item[0] * 2 + 1

    def test_depth_polylog(self):
        window, eps = 1 << 14, 0.1
        counter = ParallelBasicCounter(window, eps)
        mu = 1 << 14
        segment = css_of_bits(bit_stream(mu, 0.5, rng=4))
        with tracking() as led:
            counter.advance(segment)
        assert led.depth <= 4 * math.log2(mu) ** 2


class TestOverflowLadder:
    def test_dense_window_overflows_fine_rungs(self):
        window, eps = 1 << 10, 0.1
        counter = ParallelBasicCounter(window, eps)
        counter.ingest(np.ones(window, dtype=np.int64))
        overflow_flags = counter.bank.overflowed()
        assert overflow_flags[-1], "finest rung must overflow on all-ones"
        assert not overflow_flags[0], "coarsest rung can never overflow"

    def test_finest_unoverflowed_is_used(self):
        window, eps = 1 << 10, 0.1
        counter = ParallelBasicCounter(window, eps)
        counter.ingest(np.ones(window, dtype=np.int64))
        values = np.where(counter.bank.overflowed(), -1, counter.bank.raw_values())
        finest = next(v for v in reversed(values.tolist()) if v >= 0)
        assert counter.query() == finest


def _dense_counter(window: int = 1024, eps: float = 0.1, **kwargs) -> ParallelBasicCounter:
    counter = ParallelBasicCounter(window, eps, **kwargs)
    counter.ingest(bit_stream(4 * window, 0.5, rng=5))
    return counter


class TestCheckpoint:
    def test_checkpoint_size_stays_bounded(self):
        """Theorem 4.1's O(ε⁻¹ log n) space holds for the checkpoint
        too: truncations are a bounded record, not a growing log."""
        counter = ParallelBasicCounter(1024, 0.1)
        bits = bit_stream(4000 * 256, 0.5, rng=6)
        sizes = {}
        for batch, chunk in enumerate(minibatches(bits, 256), start=1):
            counter.ingest(chunk)
            if batch in (100, 4000):
                sizes[batch] = len(dumps(counter.state_dict()))
        assert sizes[4000] <= 1.25 * sizes[100]
        assert counter.bank.truncations.sum() > 4000, "the fine rungs must truncate"

    def test_swapped_rungs_rejected(self):
        state = _dense_counter().state_dict()
        rungs = state["counters"]
        rungs[0], rungs[3] = rungs[3], rungs[0]
        with pytest.raises(StateError):
            ParallelBasicCounter(1024, 0.1).load_state(state)

    def test_rung_count_for_other_eps_rejected(self):
        state = _dense_counter().state_dict()  # ε = 0.1's 8 rungs
        state["eps"] = 0.5
        with pytest.raises(StateError):
            ParallelBasicCounter(1024, 0.5).load_state(state)

    def test_foreign_sigma_rejected(self):
        state = _dense_counter(sigma_slack=3).state_dict()
        with pytest.raises(StateError):
            ParallelBasicCounter(1024, 0.1).load_state(state)

    @pytest.mark.parametrize("corrupt", ["swap", "drop", "sigma"])
    def test_audit_catches_a_corrupt_ladder(self, corrupt):
        counter = _dense_counter()
        bank = counter.bank
        if corrupt == "swap":
            bank.lam[[0, 3]] = bank.lam[[3, 0]]
            bank.gamma[[0, 3]] = bank.gamma[[3, 0]]
        elif corrupt == "drop":
            bank.take(np.arange(len(bank) - 1))
        else:
            bank.sigma += 1
        with pytest.raises(InvariantViolation):
            counter.check_invariants()
