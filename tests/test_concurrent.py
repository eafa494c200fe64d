"""The shared concurrency layer: snapshot-store move + back-compat,
seqlock contention, thread-local buffered ingest with bounded staleness,
the driver's concurrent-query mode, and the metrics-registry thread
audit (docs/architecture.md, "Consistency model")."""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.concurrent
import repro.serve
import repro.serve.snapshot
from repro.concurrent import ConcurrentIngestor, LocalBuffer, Snapshot, SnapshotStore
from repro.engine.registry import Capabilities, get, specs
from repro.fuzz.differential import STALENESS_SYNC_EXACT, run_case
from repro.fuzz.plan import generate_plan
from repro.fuzz.scenarios import synthesize_stream
from repro.observability.metrics import MetricsRegistry
from repro.pram.backend import SerialBackend, ThreadBackend
from repro.pram.cost import CostLedger, tracking
from repro.pram.plan import PreparedBatch
from repro.resilience.state import dumps
from repro.stream.minibatch import MinibatchDriver


def build_cms():
    return get("ParallelCountMin").build()


def build_mg():
    return get("MisraGriesSummary").build()


# ----------------------------------------------------------------------
# The move: re-exports, import compat, pickle compat
# ----------------------------------------------------------------------
class TestSnapshotMove:
    def test_serve_shim_reexports_same_objects(self):
        assert repro.serve.snapshot.Snapshot is Snapshot
        assert repro.serve.snapshot.SnapshotStore is SnapshotStore

    def test_serve_package_still_exports(self):
        assert repro.serve.Snapshot is Snapshot
        assert repro.serve.SnapshotStore is SnapshotStore
        assert "Snapshot" in repro.serve.__all__
        assert "SnapshotStore" in repro.serve.__all__

    def test_implementation_lives_in_concurrent(self):
        assert Snapshot.__module__ == "repro.concurrent.epoch"
        assert SnapshotStore.__module__ == "repro.concurrent.epoch"

    def test_pre_move_pickles_still_load(self):
        """A checkpoint pickled before the refactor embeds the dotted
        path ``repro.serve.snapshot.Snapshot``; loading must resolve it
        through the shim.  Protocol 0 stores module paths as plain
        text, so rewriting the bytes simulates exactly such a relic."""
        snap = Snapshot(epoch=3, operators={"x": 41}, items=7)
        relic = pickle.dumps(snap, protocol=0).replace(
            b"repro.concurrent.epoch", b"repro.serve.snapshot"
        )
        assert b"repro.serve.snapshot" in relic
        loaded = pickle.loads(relic)
        assert isinstance(loaded, Snapshot)
        assert (loaded.epoch, loaded.items) == (3, 7)
        assert loaded["x"] == 41


# ----------------------------------------------------------------------
# SnapshotStore semantics (now in the shared layer)
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def test_publish_bumps_epoch_and_covers_items(self):
        op = build_cms()
        store = SnapshotStore({"cms": op})
        assert store.read().epoch == 0
        op.ingest(np.arange(10))
        assert store.publish(items=10) == 1
        snap = store.read()
        assert snap.epoch == 1 and snap.items == 10
        assert "cms" in snap

    def test_reader_keeps_old_snapshot_across_one_publish(self):
        op = build_cms()
        store = SnapshotStore({"cms": op})
        op.ingest(np.zeros(5, dtype=np.int64))
        store.publish(items=5)
        held = store.read()
        op.ingest(np.zeros(5, dtype=np.int64))
        store.publish(items=10)
        # Double buffering: one further publish rewrote the *other*
        # buffer, so the held snapshot still answers for its epoch.
        assert held.items == 5
        assert held["cms"].point_query(0) == 5
        assert store.read().items == 10

    def test_query_returns_consistent_epoch(self):
        op = build_cms()
        store = SnapshotStore({"cms": op})
        op.ingest(np.zeros(4, dtype=np.int64))
        store.publish(items=4)
        epoch, result = store.query(lambda snap: snap["cms"].point_query(0))
        assert epoch == 1 and result == 4

    def test_named_store_tracks_epoch_gauge(self):
        from repro.observability.metrics import REGISTRY

        store = SnapshotStore({"cms": build_cms()}, name="test-epoch-gauge")
        store.publish()
        store.publish()
        gauge = REGISTRY.get("repro_epoch_current")
        assert gauge.value(store="test-epoch-gauge") == 2


class _TornReadDetector:
    """State is the pair (x, y) with the invariant x == y; ``load_state``
    writes the halves with a deliberate gap, so any reader probing a
    buffer *while it is being rewritten* observes x != y."""

    def __init__(self) -> None:
        self.x = 0
        self.y = 0

    def state_dict(self) -> dict:
        return {"x": self.x, "y": self.y}

    def load_state(self, state: dict) -> None:
        self.x = state["x"]
        time.sleep(0)  # widen the window: yield mid-rewrite
        self.y = state["y"]

    def bump(self) -> None:
        self.x += 1
        self.y = self.x


@pytest.mark.concurrency
class TestSeqlockContention:
    def test_publish_vs_query_no_torn_reads_monotonic_epochs(self):
        """One thread publishes as fast as it can; another queries the
        whole time.  Every answer must be internally consistent (the
        seqlock retry discards reads that raced a buffer rewrite) and
        the observed epochs must never go backwards."""
        live = _TornReadDetector()
        store = SnapshotStore({"det": live})
        stop = threading.Event()
        publishes = 0

        def publisher() -> None:
            nonlocal publishes
            while not stop.is_set():
                live.bump()
                store.publish(items=live.x)
                publishes += 1

        torn: list[tuple[int, int]] = []
        epochs: list[int] = []

        def probe(snap: Snapshot) -> tuple[int, int]:
            det = snap["det"]
            x = det.x
            time.sleep(0)  # invite a mid-probe rewrite
            return x, det.y

        thread = threading.Thread(target=publisher)
        thread.start()
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                epoch, (x, y) = store.query(probe)
                if x != y:
                    torn.append((x, y))
                epochs.append(epoch)
        finally:
            stop.set()
            thread.join()

        assert not torn, f"torn reads slipped through the seqlock: {torn[:5]}"
        assert epochs == sorted(epochs), "epochs observed out of order"
        assert publishes > 0 and len(epochs) > 0


# ----------------------------------------------------------------------
# LocalBuffer / ConcurrentIngestor
# ----------------------------------------------------------------------
class TestLocalBuffer:
    def test_ingest_tracks_pending_and_records(self):
        buf = LocalBuffer({"cms": build_cms()}, record=True)
        buf.ingest(np.array([1, 2, 3]))
        buf.ingest(np.array([4]))
        assert buf.pending == 4
        np.testing.assert_array_equal(buf.drain(), [1, 2, 3, 4])
        buf.reset()
        assert buf.pending == 0 and buf.flushed == 4
        assert buf.drain().size == 0

    def test_reset_gives_fresh_clones(self):
        proto = build_cms()
        buf = LocalBuffer({"cms": proto})
        buf.ingest(np.zeros(3, dtype=np.int64))
        assert buf.ops["cms"].point_query(0) == 3
        buf.reset()
        assert buf.ops["cms"].point_query(0) == 0
        assert proto.point_query(0) == 0  # prototypes never ingest


class _PinnedLocalBuffer:
    """Frozen copy of the buffer before it moved onto the fused step:
    a fresh clone of every operator after each flush, and a
    per-operator ``ingest_prepared`` loop over one shared plan."""

    def __init__(self, operators, record=False):
        self._protos = operators
        self._record = record
        self.ops = {name: op.fresh_clone() for name, op in operators.items()}
        self.pending = 0
        self.flushed = 0
        self.slices = []

    def ingest(self, part):
        if part.size == 0:
            return
        plan = PreparedBatch(part)
        for op in self.ops.values():
            op.ingest_prepared(plan)
        if self._record:
            self.slices.append(part)
        self.pending += int(part.size)

    def drain(self):
        if not self.slices:
            return np.empty(0, dtype=np.int64)
        return self.slices[0] if len(self.slices) == 1 else np.concatenate(self.slices)

    def reset(self):
        self.ops = {name: op.fresh_clone() for name, op in self._protos.items()}
        self.flushed += self.pending
        self.pending = 0
        self.slices = []


#: Every concurrent operator family: two fused linear sketches and two
#: MG-family summaries (one of them carrying an RNG in its state).
_PARITY_OPS = (
    "ParallelCountMin",
    "ParallelCountSketch",
    "ParallelFrequencyEstimator",
    "MisraGriesSummary",
)


def _buffered_run(batches, syncs, buffer_items, threads, pinned):
    ing = ConcurrentIngestor(
        {name: get(name).build() for name in _PARITY_OPS},
        buffer_items=buffer_items, threads=threads,
        backend=SerialBackend(), record_flushes=True,
    )
    if pinned:
        ing._buffers = [
            _PinnedLocalBuffer(ing.operators, record=True)
            for _ in range(ing.threads)
        ]
    marks = []
    with tracking(CostLedger()) as ledger:
        for i, batch in enumerate(batches):
            ing.ingest(np.asarray(batch, dtype=np.int64))
            if i in syncs:
                ing.sync()
            marks.append((ing.epoch, ing.published_items, ing.pending_items()))
        ing.sync()
    return {
        "states": {n: dumps(op.state_dict()) for n, op in ing.operators.items()},
        "snapshot": {
            n: dumps(op.state_dict()) for n, op in ing.read().operators.items()
        },
        # After the final sync every buffer is empty again, RNG included.
        "buffers": [
            {n: dumps(op.state_dict()) for n, op in buf.ops.items()}
            for buf in ing._buffers
        ],
        "flush_log": [part.tolist() for part in ing._flush_log],
        "marks": marks,
        "ledger": (ledger.work, ledger.depth, ledger.by_operator),
    }


class TestBufferParityPin:
    """The fused, reset-in-place buffer against the frozen per-operator
    path: same tables and MG state, same flush log and epochs, same
    charged ledger, for any batching."""

    @given(
        batches=st.lists(
            st.lists(st.integers(0, 80), max_size=70), min_size=1, max_size=8
        ),
        syncs=st.sets(st.integers(0, 7), max_size=3),
        buffer_items=st.integers(1, 48),
        threads=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_pinned_buffer(self, batches, syncs, buffer_items, threads):
        new = _buffered_run(batches, syncs, buffer_items, threads, pinned=False)
        old = _buffered_run(batches, syncs, buffer_items, threads, pinned=True)
        assert new == old

    def test_straddling_slices_and_empty_batches(self):
        """Slices that cross the fill mark, empty batches and a mid-stream
        sync, pinned explicitly."""
        rng = np.random.default_rng(12)
        batches = [rng.integers(0, 60, size=n).tolist() for n in (0, 37, 5, 0, 90, 23)]
        new = _buffered_run(batches, {2}, 20, 3, pinned=False)
        old = _buffered_run(batches, {2}, 20, 3, pinned=True)
        assert new == old
        assert len(new["flush_log"]) > 6


class TestConcurrentIngestor:
    def test_rejects_non_mergeable_operators(self):
        dgim = get("DGIMCounter").build()
        with pytest.raises(TypeError, match="mergeable"):
            ConcurrentIngestor({"dgim": dgim}, buffer_items=8)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ConcurrentIngestor({}, buffer_items=8)
        with pytest.raises(ValueError):
            ConcurrentIngestor({"cms": build_cms()}, buffer_items=0)
        with pytest.raises(ValueError):
            ConcurrentIngestor({"cms": build_cms()}, buffer_items=8, threads=0)

    def test_threads_clamped_to_buffer_items(self):
        ing = ConcurrentIngestor(
            {"cms": build_cms()}, buffer_items=2, threads=8,
            backend=SerialBackend(),
        )
        assert ing.threads == 2
        assert ing.fill_mark == 1

    def test_staleness_bound_holds_at_every_boundary(self):
        b = 16
        ing = ConcurrentIngestor(
            {"cms": build_cms(), "mg": build_mg()},
            buffer_items=b, threads=3,
            backend=SerialBackend(), record_flushes=True,
        )
        stream = np.random.default_rng(1).integers(0, 40, size=731)
        for start in range(0, len(stream), 57):
            ing.ingest(stream[start : start + 57])
            assert ing.pending_items() <= b
            assert ing.items_ingested - ing.published_items <= b
            snap = ing.read()
            assert snap.items == ing.published_items

    def test_flush_log_is_exactly_the_stream_multiset(self):
        ing = ConcurrentIngestor(
            {"cms": build_cms()}, buffer_items=8, threads=3,
            backend=SerialBackend(), record_flushes=True,
        )
        stream = np.random.default_rng(2).integers(0, 30, size=200)
        ing.ingest(stream)
        ing.sync()
        from collections import Counter

        assert Counter(ing.flushed_stream().tolist()) == Counter(stream.tolist())
        assert ing.published_items == len(stream)

    def test_sync_state_bit_identical_to_serial_fold_for_cms(self):
        ing = ConcurrentIngestor(
            {"cms": build_cms()}, buffer_items=16, threads=3,
            backend=SerialBackend(),
        )
        stream = np.random.default_rng(3).integers(0, 64, size=500)
        for start in range(0, len(stream), 50):
            ing.ingest(stream[start : start + 50])
        ing.sync()
        serial = build_cms()
        serial.ingest(stream)
        snap = ing.read()
        assert dumps(snap["cms"].state_dict()) == dumps(serial.state_dict())

    def test_sync_envelope_for_mg_family(self):
        """The MG merge re-applies eviction, so the synced global state
        is envelope-equivalent, not bit-identical: estimates undercount
        by at most n/capacity and never overcount."""
        ing = ConcurrentIngestor(
            {"mg": build_mg()}, buffer_items=16, threads=3,
            backend=SerialBackend(),
        )
        rng = np.random.default_rng(4)
        stream = rng.zipf(1.4, size=600).clip(max=100).astype(np.int64)
        ing.ingest(stream)
        ing.sync()
        mg = ing.read()["mg"]
        from collections import Counter

        truth = Counter(stream.tolist())
        tol = len(stream) / mg.capacity
        for item, f in truth.most_common(20):
            est = mg.estimate(item)
            assert f - tol <= est <= f, (item, est, f)

    def test_query_helper_returns_epoch_and_answer(self):
        ing = ConcurrentIngestor(
            {"cms": build_cms()}, buffer_items=4, threads=2,
            backend=SerialBackend(),
        )
        ing.ingest(np.zeros(8, dtype=np.int64))
        epoch, answer = ing.query(lambda snap: snap["cms"].point_query(0))
        assert epoch == ing.epoch
        assert answer == ing.published_items

    def test_flushed_stream_requires_recording(self):
        ing = ConcurrentIngestor(
            {"cms": build_cms()}, buffer_items=4, backend=SerialBackend()
        )
        with pytest.raises(ValueError, match="record_flushes"):
            ing.flushed_stream()


@pytest.mark.concurrency
class TestConcurrentIngestorThreaded:
    def test_threaded_ingest_matches_serial_fold_after_sync(self):
        ing = ConcurrentIngestor(
            {"cms": build_cms()}, buffer_items=32, threads=4
        )
        stream = np.random.default_rng(5).integers(0, 100, size=2000)
        for start in range(0, len(stream), 100):
            ing.ingest(stream[start : start + 100])
        ing.sync()
        ing.close()
        serial = build_cms()
        serial.ingest(stream)
        assert dumps(ing.read()["cms"].state_dict()) == dumps(serial.state_dict())

    def test_queries_from_another_thread_never_block_ingest(self):
        """A reader hammers snapshots the whole time ingest runs; every
        answer must be a consistent published epoch (monotonic, within
        the staleness bound) and the run must finish — the reader holds
        no lock the ingest path ever waits on."""
        b = 64
        ing = ConcurrentIngestor(
            {"cms": build_cms()}, buffer_items=b, threads=4
        )
        stream = np.random.default_rng(6).integers(0, 100, size=4000)
        stop = threading.Event()
        seen: list[tuple[int, int]] = []

        def reader() -> None:
            while not stop.is_set():
                epoch, items = ing.query(lambda s: s.items)
                seen.append((epoch, items))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for start in range(0, len(stream), 100):
                ing.ingest(stream[start : start + 100])
                assert ing.items_ingested - ing.published_items <= b
        finally:
            stop.set()
            thread.join()
            ing.close()
        epochs = [e for e, _ in seen]
        assert epochs == sorted(epochs)
        # Item counts grow with epochs: snapshots never go stale-er.
        items = [i for _, i in seen]
        assert items == sorted(items)


# ----------------------------------------------------------------------
# ThreadBackend buffered (persistent) mode
# ----------------------------------------------------------------------
class TestThreadBackendPersistent:
    def test_persistent_pool_is_reused_across_calls(self):
        backend = ThreadBackend(max_workers=2, persistent=True)
        try:
            backend.run_all([lambda: 1, lambda: 2])
            pool = backend._pool
            assert pool is not None
            backend.run_all([lambda: 3])
            assert backend._pool is pool
        finally:
            backend.close()
        assert backend._pool is None

    def test_close_is_idempotent_and_context_manager_closes(self):
        with ThreadBackend(max_workers=2, persistent=True) as backend:
            assert [r for r, _ in backend.run_all([lambda: 7])] == [7]
        backend.close()  # second close is a no-op
        assert backend._pool is None

    def test_default_mode_unchanged(self):
        backend = ThreadBackend(max_workers=2)
        assert [r for r, _ in backend.run_all([lambda: 9])] == [9]
        assert backend._pool is None


# ----------------------------------------------------------------------
# MinibatchDriver concurrent-query mode
# ----------------------------------------------------------------------
class TestDriverConcurrentQueries:
    def test_snapshot_requires_flag(self):
        driver = MinibatchDriver({"cms": build_cms()})
        with pytest.raises(ValueError, match="concurrent_queries"):
            driver.snapshot()
        with pytest.raises(ValueError, match="concurrent_queries"):
            driver.epoch

    def test_sharded_snapshots_bit_identical_to_serial_fold(self):
        """With ``shards=`` every batch folds its shard partials before
        it publishes, so each epoch is the exact serial fold of its
        prefix — before and after a scheduled rescale — and
        ``load_state`` republishes the restored totals."""

        def build():
            return MinibatchDriver(
                {"cms": build_cms(), "pfe": get("ParallelFrequencyEstimator").build()},
                shards=2,
                concurrent_queries=True,
                rescale_at={3: 5},
            )

        driver = build()
        stream = np.random.default_rng(9).integers(0, 60, size=330)
        batch_size = 30
        published: list[tuple[int, int, bytes]] = []

        def capture(drv: MinibatchDriver, report) -> None:
            snap = drv.snapshot()
            published.append(
                (snap.epoch, snap.items, dumps(snap["cms"].state_dict()))
            )

        driver.add_hook(capture)
        driver.run(stream, batch_size)

        assert driver.shard_counts() == {"cms": 5, "pfe": 5}
        assert [r for _, r in driver.reshard_events][0].new_shards == 5
        assert [e for e, _, _ in published] == list(range(1, 12))
        for epoch, items, state in published:
            assert items == min(epoch * batch_size, len(stream))
            serial = build_cms()
            serial.ingest(stream[:items])
            assert state == dumps(serial.state_dict())

        restored = build()
        restored.load_state(driver.state_dict())
        snap = restored.snapshot()
        assert (snap.epoch, snap.items) == (1, len(stream))
        assert restored.shard_counts() == {"cms": 5, "pfe": 5}
        assert dumps(snap["cms"].state_dict()) == published[-1][2]
        assert dumps(snap["pfe"].state_dict()) == dumps(
            driver.operators["pfe"].state_dict()
        )

    def test_batch_boundary_snapshots_bit_identical_to_serial_fold(self):
        """Every published epoch must equal the serial fold of exactly
        the prefix it claims to cover — the exact-batch-boundary side
        of the consistency model."""
        driver = MinibatchDriver({"cms": build_cms()}, concurrent_queries=True)
        stream = np.random.default_rng(7).integers(0, 50, size=400)
        batch_size = 40
        boundary_states: list[tuple[int, int, dict]] = []

        def capture(drv: MinibatchDriver, report) -> None:
            snap = drv.snapshot()
            boundary_states.append(
                (snap.epoch, snap.items, dumps(snap["cms"].state_dict()))
            )

        driver.add_hook(capture)
        driver.run(stream, batch_size)

        assert [e for e, _, _ in boundary_states] == list(range(1, 11))
        serial = build_cms()
        for epoch, items, state in boundary_states:
            assert items == epoch * batch_size
            serial.ingest(stream[(epoch - 1) * batch_size : items])
            assert state == dumps(serial.state_dict())

    def test_load_state_republishes(self):
        source = MinibatchDriver({"cms": build_cms()}, concurrent_queries=True)
        stream = np.random.default_rng(8).integers(0, 20, size=100)
        source.run(stream, 25)
        restored = MinibatchDriver({"cms": build_cms()}, concurrent_queries=True)
        restored.load_state(source.state_dict())
        snap = restored.snapshot()
        assert snap.items == 100
        assert dumps(snap["cms"].state_dict()) == dumps(
            source.operators["cms"].state_dict()
        )


# ----------------------------------------------------------------------
# Registry capability flag
# ----------------------------------------------------------------------
class TestConcurrentCapability:
    def test_flag_letter(self):
        assert "C" in Capabilities(concurrent=True).flags()

    def test_concurrent_ops_are_the_buffered_family(self):
        names = {s.name for s in specs() if s.caps.concurrent}
        assert names == {
            "MisraGriesSummary",
            "ParallelCountMin",
            "ParallelCountSketch",
            "ParallelFrequencyEstimator",
            "SequentialMisraGries",
        }

    def test_concurrent_implies_mergeable_and_codec(self):
        for s in specs():
            if s.caps.concurrent:
                assert s.caps.mergeable
                assert callable(getattr(s.cls, "state_dict", None))
                assert callable(getattr(s.cls, "load_state", None))

    def test_every_concurrent_op_actually_ingests_buffered(self):
        for s in specs():
            if not s.caps.concurrent:
                continue
            ing = ConcurrentIngestor(
                {s.name: s.build()}, buffer_items=8, threads=2,
                backend=SerialBackend(),
            )
            ing.ingest(np.arange(40) % 7)
            ing.sync()
            assert ing.epoch >= 1
            assert ing.published_items == 40


# ----------------------------------------------------------------------
# Fuzz staleness relation
# ----------------------------------------------------------------------
class TestStalenessRelation:
    def test_unknown_relation_rejected(self):
        spec = get("ParallelCountMin")
        plan = generate_plan(spec, root_seed=1, case=0)
        stream = synthesize_stream(spec, plan)
        with pytest.raises(ValueError, match="unknown relations"):
            run_case(spec, plan, stream, relations={"bogus"})

    def test_staleness_clean_for_concurrent_ops(self):
        for spec in specs():
            if not spec.caps.concurrent:
                continue
            plan = generate_plan(spec, root_seed=11, case=3)
            stream = synthesize_stream(spec, plan)
            violations = run_case(spec, plan, stream, relations={"staleness"})
            assert violations == [], (spec.name, violations)

    def test_sync_exact_set_is_the_linear_sketches(self):
        assert STALENESS_SYNC_EXACT == {"ParallelCountMin", "ParallelCountSketch"}

    def test_relation_filter_skips_non_selected(self):
        spec = get("ParallelCountMin")
        plan = generate_plan(spec, root_seed=1, case=0)
        stream = synthesize_stream(spec, plan)
        # An empty filter set runs nothing and therefore finds nothing.
        assert run_case(spec, plan, stream, relations=set()) == []


# ----------------------------------------------------------------------
# Metrics registry thread audit
# ----------------------------------------------------------------------
@pytest.mark.concurrency
class TestMetricsThreadSafety:
    """The audit outcome: every Counter/Gauge/Histogram guards its
    read-modify-write with a per-metric lock, so hammering one metric
    from N threads loses no increments.  This test is the regression
    net for that property."""

    N_THREADS = 8
    PER_THREAD = 2_000

    def _hammer(self, work) -> None:
        barrier = threading.Barrier(self.N_THREADS)

        def run() -> None:
            barrier.wait()
            for _ in range(self.PER_THREAD):
                work()

        threads = [threading.Thread(target=run) for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_increments_never_lost(self):
        reg = MetricsRegistry()
        counter = reg.counter("hammer_total", "t", labels=("kind",))
        self._hammer(lambda: counter.inc(kind="a"))
        assert counter.value(kind="a") == self.N_THREADS * self.PER_THREAD

    def test_histogram_observations_never_lost(self):
        reg = MetricsRegistry()
        hist = reg.histogram("hammer_seconds", "t", buckets=(0.5, 1.5))
        self._hammer(lambda: hist.observe(1.0))
        assert hist.count() == self.N_THREADS * self.PER_THREAD

    def test_gauge_last_write_wins_but_never_tears(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("hammer_depth", "t")
        values = [float(i) for i in range(self.N_THREADS)]

        def work() -> None:
            for v in values:
                gauge.set(v)

        self._hammer(work)
        assert gauge.value() in values
