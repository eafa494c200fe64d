"""Tests for the serial and thread fork-join execution backends."""

from __future__ import annotations

import os
import threading
from functools import partial

import numpy as np
import pytest

from repro.engine.mergetree import merge_tree_ingest
from repro.pram.backend import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
    WorkerCrashError,
    fork_join,
    task_label,
)
from repro.pram.cost import Cost, charge, labeled, parallel, tracking


class TestSerialBackend:
    def test_results_and_costs(self):
        outcomes = SerialBackend().run_all(
            [lambda: (charge(5, 2), "a")[1], lambda: (charge(7, 9), "b")[1]]
        )
        assert [r for r, _ in outcomes] == ["a", "b"]
        assert [c for _, c in outcomes] == [Cost(5, 2), Cost(7, 9)]

    def test_empty(self):
        assert SerialBackend().run_all([]) == []


class TestThreadBackend:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadBackend(0)

    def test_results_in_order(self):
        backend = ThreadBackend(4)
        outcomes = backend.run_all([lambda i=i: i * i for i in range(10)])
        assert [r for r, _ in outcomes] == [i * i for i in range(10)]

    def test_costs_isolated_per_strand(self):
        backend = ThreadBackend(4)
        outcomes = backend.run_all(
            [lambda w=w: charge(w, 1) for w in (10, 20, 30)]
        )
        assert [c.work for _, c in outcomes] == [10, 20, 30]

    def test_actually_uses_threads(self):
        seen: set[int] = set()
        barrier = threading.Barrier(2, timeout=5)

        def task() -> None:
            seen.add(threading.get_ident())
            barrier.wait()  # forces two strands to be live concurrently

        ThreadBackend(2).run_all([task, task])
        assert len(seen) == 2

    def test_empty(self):
        assert ThreadBackend(2).run_all([]) == []


class TestForkJoin:
    def test_merges_into_ambient_ledger(self):
        with tracking() as led:
            results = fork_join([lambda: charge(3, 5) or 1, lambda: charge(4, 2) or 2])
        assert results == [1, 2]
        assert (led.work, led.depth) == (7, 5)

    def test_backend_equivalence(self):
        def make_tasks():
            return [lambda w=w: charge(w, w % 3 + 1) for w in range(1, 8)]

        with tracking() as serial_led:
            fork_join(make_tasks(), SerialBackend())
        with tracking() as thread_led:
            fork_join(make_tasks(), ThreadBackend(4))
        assert (serial_led.work, serial_led.depth) == (
            thread_led.work,
            thread_led.depth,
        )

    def test_works_without_ambient_ledger(self):
        assert fork_join([lambda: 42]) == [42]

    @pytest.mark.parametrize(
        "make_backend",
        [SerialBackend, lambda: ThreadBackend(2), lambda: ProcessPoolBackend(2)],
        ids=["serial", "thread", "process"],
    )
    def test_trace_and_attribution_match_parallel_region(self, make_backend):
        """fork_join folds each strand's recorded trace and by_operator
        into the parent, as the ``parallel()`` form does, on every
        backend; strands see the forking context's operator label."""
        strands = [
            partial(_labeled_strand, "op.a", 5, 2),
            partial(_labeled_strand, "op.b", 7, 9),
            partial(_labeled_strand, "op.a", 3, 4),
        ]

        def region() -> None:
            with parallel() as par:
                for strand in strands:
                    par.run(strand)

        def measure(form):
            with tracking(record=True) as led, labeled("outer"):
                charge(2, 1)
                form()
            return led.work, led.depth, led.trace, led.by_operator

        forked = measure(lambda: fork_join(strands, make_backend()))
        assert forked == measure(region)
        assert forked[2][1][0] == "p" and len(forked[2][1][1]) == 3
        assert forked[3]["op.a"] == [8, 6, 2]


def _labeled_strand(label: str, work: int, depth: int) -> str:
    with labeled(label):
        charge(work, depth)
    charge(1, 1)  # attributed to the forking context's label
    return label


def _ok_task() -> str:
    return "fine"


def _kill_worker() -> None:
    os._exit(13)  # hard worker death, not an exception


class _Counter:
    """Minimal mergeable synopsis for the degenerate-input tests.

    Clones are pickled copies, so the tally of ingests and merges across
    the whole shard family (tree rounds included) lives on the class; a
    root ``_Counter()`` resets it."""

    log: dict[str, int] = {}

    def __init__(self, root: bool = True) -> None:
        self.counts: dict[int, int] = {}
        if root:
            _Counter.log = {"ingests": 0, "merges": 0}

    def ingest(self, batch) -> None:
        _Counter.log["ingests"] += 1
        for item in np.asarray(batch).tolist():
            self.counts[item] = self.counts.get(item, 0) + 1

    def fresh_clone(self) -> "_Counter":
        return _Counter(root=False)

    def merge(self, other: "_Counter") -> None:
        _Counter.log["merges"] += 1
        for item, count in other.counts.items():
            self.counts[item] = self.counts.get(item, 0) + count


class TestShardIngestDegenerates:
    """Sharded ingest (:func:`merge_tree_ingest`) at its edges."""

    def test_empty_batch_is_noop(self):
        op = _Counter()
        out = merge_tree_ingest(op, np.empty(0, dtype=np.int64), shards=4)
        assert out is op
        assert op.counts == {}
        # Explicit early-out: no partials were built, so no merges.
        assert op.log == {"ingests": 0, "merges": 0}

    def test_shards_clamped_to_batch_size(self):
        op = _Counter()
        merge_tree_ingest(op, np.arange(3), shards=16)
        assert op.counts == {0: 1, 1: 1, 2: 1}
        # One shard per item, not one per requested shard: 3 leaves,
        # 2 tree merges and the adoption merge.
        assert op.log == {"ingests": 3, "merges": 3}

    def test_single_item_single_shard(self):
        op = _Counter()
        merge_tree_ingest(op, np.asarray([7]), shards=8)
        assert op.counts == {7: 1}
        assert op.log == {"ingests": 1, "merges": 1}

    def test_invalid_shards_still_rejected(self):
        with pytest.raises(ValueError):
            merge_tree_ingest(_Counter(), np.arange(4), shards=0)


class TestWorkerCrashSurface:
    def test_task_label_helper(self):
        plain = lambda: None  # noqa: E731
        assert task_label(plain, 3) == "task 3"
        labelled = partial(_ok_task)
        labelled.label = "cms:b2:s1"
        assert task_label(labelled, 0) == "cms:b2:s1"

    def test_worker_death_names_lost_tasks(self):
        backend = ProcessPoolBackend(max_workers=2)
        tasks = [partial(_kill_worker) for _ in range(2)]
        tasks[0].label = "shard 0"
        tasks[1].label = "shard 1"
        with pytest.raises(WorkerCrashError) as excinfo:
            backend.run_all(tasks)
        err = excinfo.value
        assert err.labels  # at least one lost task is named
        assert all(label.startswith("shard ") for label in err.labels)
        assert "shard" in str(err)
        assert "BrokenProcessPool" in str(err) or "process" in str(err)

    def test_worker_crash_error_message(self):
        cause = RuntimeError("boom")
        err = WorkerCrashError(["cms:b0:s1", "cms:b0:s2"], cause)
        assert "2 task(s) lost" in str(err)
        assert "cms:b0:s1" in str(err)
        assert err.cause is cause
