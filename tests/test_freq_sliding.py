"""Tests for the three sliding-window frequency estimators (§5.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freq_sliding import (
    BasicSlidingFrequency,
    SpaceEfficientSlidingFrequency,
    WorkEfficientSlidingFrequency,
    group_positions_by_sort,
)
from repro.pram.cost import tracking
from repro.stream.generators import bursty_stream, minibatches, zipf_stream
from repro.stream.oracle import ExactWindowFrequencies

ALL_VARIANTS = [
    BasicSlidingFrequency,
    SpaceEfficientSlidingFrequency,
    WorkEfficientSlidingFrequency,
]


class TestGroupPositions:
    def test_positions_one_based_in_order(self):
        groups = group_positions_by_sort(np.array([5, 3, 5, 5]))
        np.testing.assert_array_equal(groups[5], [1, 3, 4])
        np.testing.assert_array_equal(groups[3], [2])

    def test_empty(self):
        assert group_positions_by_sort(np.array([], dtype=np.int64)) == {}

    @given(st.lists(st.integers(0, 10), max_size=100))
    def test_partition_property(self, items):
        groups = group_positions_by_sort(np.array(items, dtype=np.int64))
        all_positions = sorted(p for ps in groups.values() for p in ps)
        assert all_positions == list(range(1, len(items) + 1))
        for item, positions in groups.items():
            for p in positions:
                assert items[p - 1] == item


@pytest.mark.parametrize("variant", ALL_VARIANTS)
class TestCommonContract:
    def test_validation(self, variant):
        with pytest.raises(ValueError):
            variant(0, 0.1)
        with pytest.raises(ValueError):
            variant(10, 0.0)

    def test_empty_batch_noop(self, variant):
        est = variant(100, 0.1)
        est.ingest(np.array([], dtype=np.int64))
        assert est.t == 0

    def test_unseen_item_is_zero(self, variant):
        est = variant(100, 0.1)
        est.ingest(np.array([1, 2, 3]))
        assert est.estimate(42) == 0.0

    def test_estimates_nonnegative(self, variant):
        est = variant(50, 0.2)
        est.ingest(zipf_stream(40, 20, 1.0, rng=0))
        assert all(v >= 0 for v in est.estimates().values())

    def test_huge_batch_resets(self, variant):
        est = variant(window := 50, 0.2)
        est.ingest(np.zeros(10, dtype=np.int64))
        est.ingest(np.ones(200, dtype=np.int64))  # > window: reset + replay tail
        assert est.t == 210
        f = est.estimate(1)
        assert window - 0.2 * window <= f <= window

    def test_accuracy_on_zipf(self, variant):
        window, eps = 600, 0.1
        est = variant(window, eps)
        oracle = ExactWindowFrequencies(window)
        stream = zipf_stream(3_000, 300, 1.3, rng=7)
        for chunk in minibatches(stream, 150):
            est.ingest(chunk)
            oracle.extend(chunk)
            for item in range(15):
                f = oracle.frequency(item)
                fh = est.estimate(item)
                assert fh <= f + 1e-9
                assert fh >= f - eps * window - 1e-9

    def test_accuracy_on_bursts(self, variant):
        """Bursts entering/leaving the window stress the eviction path."""
        window, eps = 400, 0.1
        est = variant(window, eps)
        oracle = ExactWindowFrequencies(window)
        stream = bursty_stream(4_000, universe=100, burst_len=120, period=800, rng=9)
        for chunk in minibatches(stream, 100):
            est.ingest(chunk)
            oracle.extend(chunk)
            f = oracle.frequency(0)
            fh = est.estimate(0)
            assert fh <= f + 1e-9
            assert fh >= f - eps * window - 1e-9

    def test_item_leaves_window_estimate_decays(self, variant):
        window = 100
        est = variant(window, 0.1)
        est.ingest(np.zeros(50, dtype=np.int64))
        assert est.estimate(0) > 20
        est.ingest(np.full(window + 10, 1, dtype=np.int64))  # NB resets if >= n
        assert est.estimate(0) <= 0.1 * window + 1e-9


@pytest.mark.parametrize(
    "variant", [SpaceEfficientSlidingFrequency, WorkEfficientSlidingFrequency]
)
class TestSpaceEfficiency:
    def test_counter_count_bounded_by_capacity(self, variant):
        window, eps = 2_000, 0.05
        est = variant(window, eps)
        stream = zipf_stream(6_000, 3_000, 1.05, rng=11)
        for chunk in minibatches(stream, 200):
            est.ingest(chunk)
            assert len(est.slots) <= est.capacity

    def test_space_independent_of_distinct_items(self, variant):
        window, eps = 2_000, 0.1
        spaces = []
        for universe in (50, 5_000):
            est = variant(window, eps)
            for chunk in minibatches(zipf_stream(4_000, universe, 1.0, rng=13), 250):
                est.ingest(chunk)
            spaces.append(est.space)
        assert spaces[1] <= 4 * spaces[0]


class TestBasicVariantSpaceBlowup:
    def test_space_grows_with_distinct_items(self):
        """Theorem 5.5's caveat: B can be as large as Ω(n)."""
        window, eps = 2_000, 0.1
        spaces = []
        for universe in (50, 5_000):
            est = BasicSlidingFrequency(window, eps)
            for chunk in minibatches(zipf_stream(4_000, universe, 1.0, rng=13), 250):
                est.ingest(chunk)
            spaces.append(est.space)
        assert spaces[1] > 5 * spaces[0]


class TestWorkEfficiency:
    def test_work_efficient_beats_sorting_variants_on_large_batches(self):
        window, eps = 200_000, 0.05
        mu = 1 << 13
        stream = zipf_stream(4 * mu, 50_000, 1.1, rng=17)

        def measure(variant):
            est = variant(window, eps)
            with tracking() as led:
                for chunk in minibatches(stream, mu):
                    est.ingest(chunk)
            return led.work

        work_we = measure(WorkEfficientSlidingFrequency)
        work_se = measure(SpaceEfficientSlidingFrequency)
        assert work_we < work_se, "Thm 5.4 must beat Alg 2's µ log µ term"

    def test_per_item_work_constant(self):
        window, eps = 500_000, 0.02
        est = WorkEfficientSlidingFrequency(window, eps)
        rng = np.random.default_rng(19)
        per_item = []
        for mu in (1 << 11, 1 << 13, 1 << 15):
            batch = zipf_stream(mu, 20_000, 1.1, rng)
            with tracking() as led:
                est.ingest(batch)
            per_item.append(led.work / mu)
        assert per_item[-1] <= 2 * per_item[0] + 1

    def test_prediction_consistency(self):
        """predict's survivor set must produce the same estimates as the
        space-efficient algorithm within the counters' granularity."""
        window, eps = 1_000, 0.1
        we = WorkEfficientSlidingFrequency(window, eps)
        se = SpaceEfficientSlidingFrequency(window, eps)
        stream = zipf_stream(4_000, 200, 1.4, rng=23)
        for chunk in minibatches(stream, 200):
            we.ingest(chunk)
            se.ingest(chunk)
        for item in range(10):
            assert abs(we.estimate(item) - se.estimate(item)) <= eps * window
