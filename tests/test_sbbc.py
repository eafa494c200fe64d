"""Tests for the space-bounded block counter (Theorem 3.4, Cor. 3.5)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sbbc import OVERFLOWED, SBBC, Overflowed
from repro.core.snapshot import snapshot_of_stream
from repro.pram.cost import tracking
from repro.pram.css import CSS, css_of_bits
from repro.stream.oracle import ExactWindowCounter


def feed(sbbc: SBBC, bits: np.ndarray, batch: int) -> None:
    for start in range(0, bits.size, batch):
        sbbc.advance(css_of_bits(bits[start : start + batch]))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SBBC(0, 1.0)
        with pytest.raises(ValueError):
            SBBC(10, 0.0)
        with pytest.raises(ValueError):
            SBBC(10, 1.0, sigma=0)

    def test_gamma_floor(self):
        assert SBBC(10, 7.0).gamma == 3
        assert SBBC(10, 2.0).gamma == 1
        assert SBBC(10, 0.5).gamma == 1  # degenerate exact counter

    def test_fresh_counter_not_overflowed(self):
        c = SBBC(10, 4.0)
        assert not c.overflowed
        assert c.value() == 0


class TestCorollary35:
    """m <= value <= m + λ whenever not overflowed."""

    @given(
        st.integers(5, 150),         # window
        st.floats(1.0, 30.0),        # lambda
        st.floats(0.0, 1.0),         # density
        st.integers(1, 40),          # batch size
        st.integers(1, 400),         # stream length
        st.integers(0, 2**31 - 1),   # seed
    )
    @settings(max_examples=60)
    def test_value_bracket(self, window, lam, density, batch, length, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random(length) < density).astype(np.int64)
        sbbc = SBBC(window, lam)
        oracle = ExactWindowCounter(window)
        for start in range(0, length, batch):
            chunk = bits[start : start + batch]
            sbbc.advance(css_of_bits(chunk))
            oracle.extend(chunk)
            m = oracle.query()
            value = sbbc.value()
            assert value is not None
            assert m <= value <= m + lam

    @given(
        st.integers(5, 100),
        st.floats(2.0, 20.0),
        st.integers(1, 30),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40)
    def test_matches_reference_snapshot(self, window, lam, batch, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random(200) < 0.5).astype(np.int64)
        sbbc = SBBC(window, lam)
        feed(sbbc, bits, batch)
        ref = snapshot_of_stream(bits, sbbc.gamma, window, clamp_ell=False)
        got = sbbc.query()
        assert not isinstance(got, Overflowed)
        np.testing.assert_array_equal(got.blocks, ref.blocks)
        assert got.ell == ref.ell

    def test_batch_split_invariance(self):
        """Advancing in any batch sizes yields identical state."""
        rng = np.random.default_rng(42)
        bits = (rng.random(300) < 0.6).astype(np.int64)
        states = []
        for batch in (1, 7, 50, 300):
            sbbc = SBBC(64, 9.0)
            feed(sbbc, bits, batch)
            snap = sbbc.query()
            states.append((tuple(snap.blocks.tolist()), snap.ell))
        assert len(set(states)) == 1


class TestOverflow:
    def test_truncation_triggers_overflow(self):
        # All-ones stream with a tiny σ must overflow.
        sbbc = SBBC(window=100, lam=4.0, sigma=3)
        sbbc.advance(css_of_bits(np.ones(100, dtype=np.int64)))
        assert sbbc.overflowed
        assert sbbc.query() is OVERFLOWED
        assert sbbc.value() is None

    def test_overflow_certificate(self):
        """At truncation, the window count is >= γ(2σ−1) (the provable
        version of Theorem 3.4's m >= σλ certificate): even the weakest
        recorded certificate clears it."""
        rng = np.random.default_rng(7)
        window, lam, sigma = 200, 6.0, 5
        sbbc = SBBC(window, lam, sigma)
        oracle = ExactWindowCounter(window)
        assert sbbc.min_value_before is None
        for _ in range(40):
            bits = (rng.random(25) < 0.9).astype(np.int64)
            sbbc.advance(css_of_bits(bits))
            oracle.extend(bits)
            if sbbc.truncations:
                assert sbbc.min_value_before >= sbbc.gamma * (2 * sigma + 1)
        assert sbbc.truncations, "dense stream must truncate a σ=5 counter"

    def test_event_list_checkpoint_folds_into_record(self):
        """A checkpoint that logs every truncation (the object form's
        format) loads as the bounded record: a count and the weakest
        certificate."""
        sbbc = SBBC(window=100, lam=4.0, sigma=3)
        sbbc.advance(css_of_bits(np.ones(100, dtype=np.int64)))
        state = sbbc.state_dict()
        state["truncations"] = [
            {"t": 50, "blocks_before": 9, "value_before": 18},
            {"t": 100, "blocks_before": 7, "value_before": 14},
        ]
        sbbc.load_state(state)
        assert (sbbc.truncations, sbbc.min_value_before) == (2, 14)
        assert sbbc.state_dict()["truncations"] == {"count": 2, "min_value_before": 14}

    def test_overflow_recovers_when_stream_sparsifies(self):
        sbbc = SBBC(window=50, lam=4.0, sigma=2)
        sbbc.advance(css_of_bits(np.ones(50, dtype=np.int64)))
        assert sbbc.overflowed
        # 50 zeros slide every 1 out of the window.
        sbbc.advance(css_of_bits(np.zeros(50, dtype=np.int64)))
        assert not sbbc.overflowed
        assert sbbc.value() == 0

    def test_space_never_exceeds_2_sigma(self):
        sigma = 4
        sbbc = SBBC(window=1000, lam=3.0, sigma=sigma)
        rng = np.random.default_rng(3)
        for _ in range(30):
            sbbc.advance(css_of_bits((rng.random(100) < 0.8).astype(np.int64)))
            assert sbbc.bank.blocks.size <= 2 * sigma


class TestSpaceBound:
    @given(st.floats(2.0, 40.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_space_is_min_sigma_m_over_lambda(self, lam, seed):
        rng = np.random.default_rng(seed)
        window = 400
        sbbc = SBBC(window, lam)
        oracle = ExactWindowCounter(window)
        bits = (rng.random(800) < 0.5).astype(np.int64)
        for start in range(0, 800, 100):
            chunk = bits[start : start + 100]
            sbbc.advance(css_of_bits(chunk))
            oracle.extend(chunk)
        m = oracle.query()
        # |Q| <= m/γ + 2: consecutive samples are γ ones apart, and the
        # oldest block can straddle the window boundary.
        assert sbbc.bank.blocks.size <= m / sbbc.gamma + 2


class TestDecrement:
    def _counter_with_value(self, value_target: int = 0) -> SBBC:
        sbbc = SBBC(window=1000, lam=8.0)  # gamma = 4
        sbbc.advance(css_of_bits(np.ones(100, dtype=np.int64)))
        return sbbc

    def test_decrement_exact(self):
        for amount in range(0, 30):
            sbbc = self._counter_with_value()
            before = sbbc.raw_value()
            sbbc.decrement(amount)
            assert sbbc.raw_value() == max(0, before - amount)

    def test_decrement_beyond_value_clamps_to_zero(self):
        sbbc = self._counter_with_value()
        sbbc.decrement(10**9)
        assert sbbc.raw_value() == 0
        assert sbbc.bank.blocks.size == 0

    def test_negative_decrement_rejected(self):
        with pytest.raises(ValueError):
            self._counter_with_value().decrement(-1)

    @given(st.lists(st.integers(0, 40), max_size=10), st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_sequence_of_decrements(self, amounts, seed):
        rng = np.random.default_rng(seed)
        sbbc = SBBC(window=500, lam=6.0)
        sbbc.advance(css_of_bits((rng.random(300) < 0.7).astype(np.int64)))
        expected = sbbc.raw_value()
        for amount in amounts:
            sbbc.decrement(amount)
            expected = max(0, expected - amount)
            assert sbbc.raw_value() == expected

    def test_advance_after_decrement_still_upper_bounds(self):
        """Decrement, then more stream: value stays >= remaining ones
        count minus decremented mass (MG-style usage soundness)."""
        rng = np.random.default_rng(5)
        sbbc = SBBC(window=200, lam=10.0)
        oracle = ExactWindowCounter(200)
        total_decremented = 0
        for _ in range(20):
            bits = (rng.random(30) < 0.5).astype(np.int64)
            sbbc.advance(css_of_bits(bits))
            oracle.extend(bits)
            sbbc.decrement(2)
            total_decremented += 2
            # value >= m − total decremented; value <= m + λ
            assert sbbc.raw_value() >= oracle.query() - total_decremented
            assert sbbc.raw_value() <= oracle.query() + sbbc.lam


class TestPeekShrunkValue:
    def test_matches_future_advance_of_zeros(self):
        rng = np.random.default_rng(11)
        sbbc = SBBC(window=100, lam=8.0)
        sbbc.advance(css_of_bits((rng.random(150) < 0.5).astype(np.int64)))
        slide = 30
        predicted = sbbc.peek_shrunk_value(slide)
        sbbc.advance(CSS(length=slide))
        assert sbbc.raw_value() == predicted

    def test_zero_slide_is_current_value(self):
        sbbc = SBBC(window=50, lam=4.0)
        sbbc.advance(css_of_bits(np.ones(60, dtype=np.int64)))
        assert sbbc.peek_shrunk_value(0) == sbbc.raw_value()

    def test_negative_slide_rejected(self):
        with pytest.raises(ValueError):
            SBBC(10, 2.0).peek_shrunk_value(-1)


class TestCosts:
    def test_advance_work_within_theorem_bound(self):
        window, lam = 10_000, 50.0
        sbbc = SBBC(window, lam)
        oracle = ExactWindowCounter(window)
        rng = np.random.default_rng(13)
        for _ in range(10):
            bits = (rng.random(2_000) < 0.5).astype(np.int64)
            oracle.extend(bits)
            m = oracle.query()
            segment = css_of_bits(bits)
            with tracking() as led:
                sbbc.advance(segment)
            # Theorem 3.4: O(min(σ, m/λ) + |T|/λ); the CSS encoding
            # itself is linear in |T| and is charged to the encoder.
            bound = m / lam + 2_000 / lam + 10
            assert led.work <= 6 * bound

    def test_query_and_value_constant_work(self):
        sbbc = SBBC(100, 4.0)
        sbbc.advance(css_of_bits(np.ones(100, dtype=np.int64)))
        with tracking() as led:
            sbbc.query()
            sbbc.raw_value()
        assert led.work <= 2
