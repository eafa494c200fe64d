"""Elastic resharding: rescale equivalence, shard-fault supervision,
degradation, and the driver/CLI integration surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactCounters
from repro.core.countmin import ParallelCountMin
from repro.core.misra_gries import MisraGriesSummary
from repro.resilience import (
    DeadLetterQueue,
    ElasticShardedIngestor,
    FaultInjector,
    RetryPolicy,
)
from repro.resilience.state import StateError, dumps
from repro.stream.minibatch import MinibatchDriver


def make_cms() -> ParallelCountMin:
    return ParallelCountMin(0.005, 0.01, np.random.default_rng(7))


@pytest.fixture
def stream():
    rng = np.random.default_rng(0)
    return rng.integers(0, 400, size=6000)


@pytest.fixture
def probe_items():
    return [int(x) for x in np.random.default_rng(9).integers(0, 400, size=64)]


def reference_cms(stream) -> ParallelCountMin:
    ref = make_cms()
    ref.ingest(stream)
    return ref


def batches_of(stream, size=500):
    return [stream[i : i + size] for i in range(0, len(stream), size)]


class TestRescaleEquivalence:
    def test_cms_state_exact_across_schedule(self, stream):
        ref = reference_cms(stream)
        op = make_cms()
        ing = ElasticShardedIngestor(op, shards=2)
        for i, batch in enumerate(batches_of(stream)):
            if i == 3:
                ing.rescale(16, batch_index=i)
            if i == 8:
                ing.rescale(3, batch_index=i)
            ing.ingest(batch, batch_id=i)
        ing.sync()
        assert dumps(op.state_dict()) == dumps(ref.state_dict())
        assert [(e.old_shards, e.new_shards) for e in ing.events] == [
            (2, 16),
            (16, 3),
        ]
        assert all(e.reason == "requested" for e in ing.events)
        assert ing.shards == 3

    def test_exact_counters_probe_exact(self, stream, probe_items):
        ref = ExactCounters()
        ref.ingest(stream)
        op = ExactCounters()
        ing = ElasticShardedIngestor(op, shards=4)
        for i, batch in enumerate(batches_of(stream)):
            if i == 5:
                ing.rescale(9, batch_index=i)
            ing.ingest(batch, batch_id=i)
        ing.sync()
        assert all(ref.estimate(x) == op.estimate(x) for x in probe_items)

    def test_mg_invariants_survive_rescale(self, stream):
        op = MisraGriesSummary(eps=0.02)
        ing = ElasticShardedIngestor(op, shards=3)
        for i, batch in enumerate(batches_of(stream)):
            if i == 4:
                ing.rescale(8, batch_index=i)
            ing.ingest(batch, batch_id=i)
        ing.sync()
        op.check_invariants()

    def test_rescale_to_same_count_is_noop(self, stream):
        ing = ElasticShardedIngestor(make_cms(), shards=4)
        ing.ingest(stream[:100])
        assert ing.rescale(4) is None
        assert ing.events == []

    def test_rescale_on_empty_ingestor(self):
        ing = ElasticShardedIngestor(make_cms(), shards=2)
        event = ing.rescale(8)
        assert event.folded == 0
        assert ing.shards == 8

    def test_sync_folds_and_keeps_count(self, stream, probe_items):
        ref = reference_cms(stream)
        op = make_cms()
        ing = ElasticShardedIngestor(op, shards=5)
        for batch in batches_of(stream):
            ing.ingest(batch)
        ing.sync()
        ing.sync()  # idempotent
        assert ing.shards == 5
        assert all(
            ref.point_query(x) == op.point_query(x) for x in probe_items
        )

    def test_validation(self):
        with pytest.raises(TypeError):
            ElasticShardedIngestor(object(), shards=2)
        with pytest.raises(ValueError):
            ElasticShardedIngestor(make_cms(), shards=0)
        with pytest.raises(ValueError):
            ElasticShardedIngestor(make_cms(), shards=2, min_shards=3)
        with pytest.raises(ValueError):
            ElasticShardedIngestor(make_cms(), shards=2, arity=1)
        with pytest.raises(ValueError):
            ElasticShardedIngestor(make_cms(), shards=2, timeout=0.0)
        with pytest.raises(ValueError):
            ElasticShardedIngestor(make_cms(), shards=2).rescale(0)


class TestDegenerateInputs:
    def test_empty_batch_is_noop(self):
        ing = ElasticShardedIngestor(make_cms(), shards=4)
        ing.ingest(np.empty(0, dtype=np.int64))
        assert not ing._dirty
        assert ing.batches == 1

    def test_more_shards_than_items(self, probe_items):
        ref = make_cms()
        ref.ingest(np.arange(3))
        op = make_cms()
        ing = ElasticShardedIngestor(op, shards=16)
        ing.ingest(np.arange(3))
        ing.sync()
        assert dumps(op.state_dict()) == dumps(ref.state_dict())
        assert ing.shards == 16  # topology unchanged; idle shards stay


class TestShardFaultSupervision:
    def test_crash_replay_is_state_exact(self, stream):
        ref = reference_cms(stream)
        op = make_cms()
        injector = FaultInjector(11, shard_crash=0.25)
        ing = ElasticShardedIngestor(
            op, shards=4, injector=injector, retry=RetryPolicy(max_attempts=3)
        )
        for i, batch in enumerate(batches_of(stream)):
            ing.ingest(batch, batch_id=i)
        ing.sync()
        assert injector.injected["shard_crash"] > 0
        assert dumps(op.state_dict()) == dumps(ref.state_dict())
        # Default shard_fault_attempts=1: every crash recovers on its
        # first replay, so no shard ever degrades.
        assert ing.shards == 4
        assert all(f.kind == "shard_crash" for f in ing.failures)

    def test_stall_detected_and_replayed(self, stream):
        ref = reference_cms(stream)
        op = make_cms()
        injector = FaultInjector(13, shard_stall=0.3, stall_seconds=0.05)
        ing = ElasticShardedIngestor(
            op,
            shards=3,
            injector=injector,
            timeout=0.02,
            retry=RetryPolicy(max_attempts=4),
        )
        for i, batch in enumerate(batches_of(stream)):
            ing.ingest(batch, batch_id=i)
        ing.sync()
        assert injector.injected["shard_stall"] > 0
        assert any(f.kind == "shard_stall" for f in ing.failures)
        assert dumps(op.state_dict()) == dumps(ref.state_dict())

    def test_repeated_failure_degrades_not_aborts(self, stream):
        ref = reference_cms(stream)
        op = make_cms()
        # Faults outlast the retry budget: the shard must degrade.
        injector = FaultInjector(
            11, shard_crash=0.5, shard_fault_attempts=10
        )
        dlq = DeadLetterQueue()
        ing = ElasticShardedIngestor(
            op,
            shards=4,
            injector=injector,
            retry=RetryPolicy(max_attempts=2),
            dead_letter=dlq,
            min_shards=1,
        )
        for i, batch in enumerate(batches_of(stream)):
            ing.ingest(batch, batch_id=i)
        ing.sync()
        # Zero data loss despite the degradations.
        assert dumps(op.state_dict()) == dumps(ref.state_dict())
        assert ing.shards < 4
        assert ing.degraded_slices > 0
        assert len(dlq) == ing.degraded_slices
        # DLQ records are accounting-only: nothing was dropped.
        assert all(e.size == 0 for e in dlq.entries())
        assert all("re-ingested" in e.reason for e in dlq.entries())
        degraded = [e for e in ing.events if e.reason == "degraded"]
        assert degraded and all(
            e.new_shards <= e.old_shards for e in degraded
        )

    def test_min_shards_floor(self, stream):
        op = make_cms()
        injector = FaultInjector(
            11, shard_crash=1.0, shard_fault_attempts=100
        )
        ing = ElasticShardedIngestor(
            op,
            shards=3,
            injector=injector,
            retry=RetryPolicy(max_attempts=2),
            min_shards=2,
        )
        for i, batch in enumerate(batches_of(stream, 300)):
            ing.ingest(batch, batch_id=i)
        assert ing.shards == 2  # floor holds even under 100% crash rate
        ing.sync()
        ref = reference_cms(stream)
        assert dumps(op.state_dict()) == dumps(ref.state_dict())

    def test_lazy_dlq_creation(self, stream):
        ing = ElasticShardedIngestor(
            make_cms(),
            shards=2,
            injector=FaultInjector(1, shard_crash=1.0, shard_fault_attempts=9),
            retry=RetryPolicy(max_attempts=1),
        )
        assert ing.dead_letter is None
        ing.ingest(stream[:100])
        assert ing.dead_letter is not None and len(ing.dead_letter) > 0


class TestShardFaultPlan:
    def test_plan_is_deterministic_and_memoized(self):
        a = FaultInjector(5, shard_crash=0.3, shard_stall=0.3)
        b = FaultInjector(5, shard_crash=0.3, shard_stall=0.3)
        plan_a = [a.shard_fault_for(i, s) for i in range(20) for s in range(8)]
        plan_b = [b.shard_fault_for(i, s) for i in range(20) for s in range(8)]
        assert plan_a == plan_b
        assert set(plan_a) == {None, "shard_crash", "shard_stall"}
        assert a.shard_fault_for(3, 2) is a.shard_fault_for(3, 2)

    def test_shard_plan_independent_of_batch_plan(self):
        inj = FaultInjector(5, crash=0.5, shard_crash=0.5)
        # Drawing the batch fault must not perturb the shard fault.
        before = inj.shard_fault_for(7, 0)
        fresh = FaultInjector(5, crash=0.5, shard_crash=0.5)
        fresh.fault_for(7)
        assert fresh.shard_fault_for(7, 0) == before

    def test_counted_once_across_replays(self):
        inj = FaultInjector(5, shard_crash=1.0, shard_fault_attempts=2)
        assert inj.shard_fault(0, 0, attempt=0) == "shard_crash"
        assert inj.shard_fault(0, 0, attempt=1) == "shard_crash"
        assert inj.shard_fault(0, 0, attempt=2) is None  # replays past plan
        assert inj.injected["shard_crash"] == 1

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(0, shard_crash=0.7, shard_stall=0.7)
        with pytest.raises(ValueError):
            FaultInjector(0, shard_crash=-0.1)
        with pytest.raises(ValueError):
            FaultInjector(0, shard_fault_attempts=0)
        with pytest.raises(ValueError):
            FaultInjector(0, stall_seconds=-1.0)


class TestIngestorState:
    def test_round_trip_preserves_totals_and_topology(self, stream, probe_items):
        op = make_cms()
        ing = ElasticShardedIngestor(op, shards=5, min_shards=2)
        for batch in batches_of(stream):
            ing.ingest(batch)
        state = ing.state_dict()

        other = make_cms()
        restored = ElasticShardedIngestor(other, shards=2)
        restored.load_state(state)
        assert restored.shards == 5
        assert restored.min_shards == 2
        assert restored.batches == ing.batches
        assert all(
            op.point_query(x) == other.point_query(x) for x in probe_items
        )

    @pytest.mark.parametrize(
        "shards, min_shards",
        [(0, 1), (-1, 1), (2, 5), (3, 0)],
        ids=["zero-shards", "negative-shards", "min-above-shards", "zero-min"],
    )
    def test_corrupt_topology_rejected(self, stream, shards, min_shards):
        """A topology the constructor would refuse raises StateError in
        load_state and leaves the ingestor as it was."""
        ing = ElasticShardedIngestor(make_cms(), shards=3)
        ing.ingest(stream[:500])
        state = {**ing.state_dict(), "shards": shards, "min_shards": min_shards}
        target = ElasticShardedIngestor(make_cms(), shards=2)
        before = dumps(target.op.state_dict())
        with pytest.raises(StateError, match="topology"):
            target.load_state(state)
        assert (target.shards, target.min_shards) == (2, 1)
        assert dumps(target.op.state_dict()) == before
        target.ingest(stream[:500])  # still usable

    def test_discard_partials_drops_unfolded_state(self, stream):
        op = make_cms()
        ing = ElasticShardedIngestor(op, shards=3)
        ing.ingest(stream[:500])
        ing.discard_partials()
        ing.sync()
        empty = make_cms()
        assert dumps(op.state_dict()) == dumps(empty.state_dict())


class TestDriverIntegration:
    def test_schedule_matches_unsharded_run(self, stream, probe_items):
        ref = make_cms()
        MinibatchDriver({"cms": ref}).run(stream, 500)

        op = make_cms()
        driver = MinibatchDriver(
            {"cms": op}, shards=2, rescale_at={3: 12, 8: 4}
        )
        driver.run(stream, 500)
        assert dumps(op.state_dict()) == dumps(ref.state_dict())
        assert driver.shard_counts() == {"cms": 4}
        assert [
            (e.old_shards, e.new_shards) for _, e in driver.reshard_events
        ] == [(2, 12), (12, 4)]

    def test_rescale_applies_on_next_batch(self, stream):
        driver = MinibatchDriver({"cms": make_cms()}, shards=2)
        driver.run(stream[:1000], 500)
        driver.rescale(7)
        assert driver.shard_counts() == {"cms": 2}  # boundary not reached
        driver.run(stream[1000:2000], 500)
        assert driver.shard_counts() == {"cms": 7}

    def test_mixed_mergeable_and_not(self, stream):
        from repro.core.windowed_sum import ParallelWindowedSum

        driver = MinibatchDriver(
            {
                "cms": make_cms(),
                "sum": ParallelWindowedSum(window=1000, eps=0.1, max_value=500),
            },
            shards=3,
        )
        driver.run(stream, 500)
        assert driver.shard_counts() == {"cms": 3}  # sum is unsharded

    def test_reshard_hooks_fire_once_per_transition(self, stream):
        seen = []
        driver = MinibatchDriver(
            {"cms": make_cms()}, shards=2, rescale_at={2: 5}
        )
        driver.add_reshard_hook(
            lambda drv, name, e: seen.append((name, e.new_shards, e.reason))
        )
        driver.run(stream, 500)
        assert seen == [("cms", 5, "scheduled")]

    def test_checkpoint_round_trip_while_sharded(self, stream, probe_items):
        op = make_cms()
        driver = MinibatchDriver({"cms": op}, shards=2, rescale_at={3: 6})
        driver.run(stream, 500)
        state = driver.state_dict()
        assert state["shards"] == {"cms": 6}

        other = make_cms()
        restored = MinibatchDriver({"cms": other}, shards=2)
        restored.load_state(state)
        assert restored.shard_counts() == {"cms": 6}
        assert all(
            op.point_query(x) == other.point_query(x) for x in probe_items
        )

    def test_unsharded_snapshot_loads_into_sharded_driver(self, stream):
        plain = MinibatchDriver({"cms": make_cms()})
        plain.run(stream[:1000], 500)
        state = plain.state_dict()
        assert state["shards"] is None
        sharded = MinibatchDriver({"cms": make_cms()}, shards=4)
        sharded.load_state(state)  # keeps its own topology
        assert sharded.shard_counts() == {"cms": 4}

    def test_driver_shard_faults_recover(self, stream, probe_items):
        ref = make_cms()
        MinibatchDriver({"cms": ref}).run(stream, 500)
        op = make_cms()
        driver = MinibatchDriver(
            {"cms": op},
            shards=4,
            fault_injector=FaultInjector(3, shard_crash=0.2),
            shard_retry=RetryPolicy(max_attempts=3),
        )
        driver.run(stream, 500)
        assert all(
            ref.point_query(x) == op.point_query(x) for x in probe_items
        )

    def test_validation(self):
        from repro.core.windowed_sum import ParallelWindowedSum

        with pytest.raises(ValueError, match="mergeable"):
            MinibatchDriver(
                {"sum": ParallelWindowedSum(window=10, eps=0.1, max_value=5)},
                shards=2,
            )
        with pytest.raises(ValueError, match="rescale_at requires"):
            MinibatchDriver({"cms": make_cms()}, rescale_at={1: 2})
        with pytest.raises(ValueError, match="not sharded"):
            MinibatchDriver({"cms": make_cms()}).rescale(3)
        with pytest.raises(ValueError):
            MinibatchDriver({"cms": make_cms()}, shards=2).rescale(0)
