"""Tests for the discretized-stream pipeline driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.freq_infinite import ParallelFrequencyEstimator
from repro.core.basic_counting import ParallelBasicCounter
from repro.stream.generators import bit_stream, zipf_stream
from repro.stream.minibatch import BatchReport, MinibatchDriver


class TestValidation:
    def test_needs_operators(self):
        with pytest.raises(ValueError):
            MinibatchDriver({})

    def test_query_every_positive(self):
        with pytest.raises(ValueError):
            MinibatchDriver({"x": ParallelFrequencyEstimator(0.1)}, query_every=0)

    def test_batch_size_positive(self):
        driver = MinibatchDriver({"x": ParallelFrequencyEstimator(0.1)})
        with pytest.raises(ValueError):
            driver.run(np.arange(10), 0)


class TestRun:
    def test_batch_chunking(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        reports = driver.run(zipf_stream(1_000, 50, 1.1, rng=0), batch_size=300)
        assert [r.size for r in reports] == [300, 300, 300, 100]
        assert driver.total_items() == 1_000

    def test_max_batches(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        reports = driver.run(np.arange(1_000) % 7, 100, max_batches=3)
        assert len(reports) == 3

    def test_cost_accounting(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.05)})
        driver.run(zipf_stream(2_000, 100, 1.2, rng=1), 500)
        assert driver.total_work() > 0
        assert driver.max_depth() > 0
        assert driver.max_depth() < driver.total_work()
        assert driver.mean_work_per_item() == pytest.approx(
            driver.total_work() / 2_000
        )

    def test_multiple_operators_fan_out(self):
        freq = ParallelFrequencyEstimator(0.1)
        count = ParallelBasicCounter(100, 0.2)
        driver = MinibatchDriver({"freq": freq, "count": count})
        driver.run(bit_stream(400, 0.5, rng=2), 100)
        assert freq.stream_length == 400
        assert count.t == 400

    def test_queries_run_on_schedule(self):
        freq = ParallelFrequencyEstimator(0.1)
        driver = MinibatchDriver(
            {"freq": freq},
            query_every=2,
            queries={"len": lambda: freq.stream_length},
        )
        reports = driver.run(np.zeros(500, dtype=np.int64), 100)
        answered = [r for r in reports if r.query_results]
        assert len(answered) == 2  # batches 2 and 4 (1-indexed)
        assert answered[0].query_results["len"] == 200
        assert answered[1].query_results["len"] == 400

    def test_throughput_positive(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        driver.run(zipf_stream(1_000, 10, 1.0, rng=3), 250)
        assert driver.throughput_items_per_sec() > 0

    def test_report_work_per_item(self):
        report = BatchReport(index=0, size=100, work=500, depth=10, seconds=0.1)
        assert report.work_per_item == 5.0
        empty = BatchReport(index=0, size=0, work=0, depth=0, seconds=0.0)
        assert empty.work_per_item == 0.0

    def test_reports_accumulate_across_runs(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        driver.run(np.zeros(100, dtype=np.int64), 50)
        driver.run(np.zeros(100, dtype=np.int64), 50)
        assert len(driver.reports) == 4
        assert driver.reports[-1].index == 3


class TestHooks:
    """add_hook: runtime-only probes that fire after every processed
    minibatch (the fuzzer's mid-stream checkpoint relation rides on
    this)."""

    def test_hook_sees_every_batch_in_order(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        seen = []
        driver.add_hook(lambda drv, report: seen.append(report.index))
        driver.run(np.arange(1_000) % 7, 300)
        assert seen == [0, 1, 2, 3]

    def test_hook_fires_after_operator_ingest(self):
        freq = ParallelFrequencyEstimator(0.1)
        driver = MinibatchDriver({"freq": freq})
        lengths = []
        driver.add_hook(lambda drv, report: lengths.append(freq.stream_length))
        driver.run(np.arange(600) % 5, 200)
        assert lengths == [200, 400, 600]

    def test_multiple_hooks_run_in_registration_order(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        order = []
        driver.add_hook(lambda drv, report: order.append("a"))
        driver.add_hook(lambda drv, report: order.append("b"))
        driver.run(np.arange(100), 100)
        assert order == ["a", "b"]

    def test_hooks_survive_state_round_trip(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        fired = []
        driver.add_hook(lambda drv, report: fired.append(report.index))
        state = driver.state_dict()
        driver.load_state(state)  # hooks are runtime-only, not state
        driver.run(np.arange(100), 50)
        assert fired == [0, 1]


class TestShardedRejection:
    def test_negative_sketch_key_rejected_before_shards_ingest(self):
        """A sharded MG ahead of a sharded sketch absorbs nothing of a
        batch the sketch rejects: the driver checks the keys first."""
        from repro.core.countmin import ParallelCountMin
        from repro.resilience.state import dumps

        driver = MinibatchDriver(
            {
                "mg": ParallelFrequencyEstimator(0.1, np.random.default_rng(1)),
                "cms": ParallelCountMin(0.05, 0.05, np.random.default_rng(2)),
            },
            shards=2,
        )
        driver.run(np.arange(40) % 9, 10)
        before = dumps(driver.state_dict())
        mg_before = dumps(driver.state_dict()["operators"]["mg"])
        with pytest.raises(ValueError, match="nonnegative"):
            driver.run(np.array([3, 4, -5, 7, 3, 3], dtype=np.int64), 6)
        assert dumps(driver.state_dict()["operators"]["mg"]) == mg_before
        assert dumps(driver.state_dict()) == before
