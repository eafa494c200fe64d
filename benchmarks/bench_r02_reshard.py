"""R2 — elastic resharding: rescale latency, equivalence, shard faults.

The reshard acceptance criteria (docs/resilience.md), asserted:

1. **Rescale equivalence.**  A 2→64→4 rescale schedule under zipf skew
   must leave every state-exact sketch (Count-Min) bit-identical to the
   fixed-shard run — the checkpoint → k-ary re-fold → repartition →
   resume protocol is a pure re-association of the merge algebra.  The
   table reports the measured per-transition latency.

2. **ε-accuracy across shard faults.**  With seeded ``shard_crash`` /
   ``shard_stall`` faults injected into the supervised shard tasks and
   an exact-counting oracle registered in the *same* driver, every
   Count-Min estimate must stay within its ε·m additive bound — zero
   violations allowed: replay-from-blob recovery loses nothing.

3. **Degradation accounting.**  When faults outlast the retry budget
   the shard count shrinks instead of the batch failing; every degraded
   slice leaves an accounting-only DLQ record (size 0 — the data was
   re-ingested unsharded) and the final state still matches the clean
   run exactly.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest

from benchmarks._harness import bench_seed, emit_table, reset_results
from repro.core import ParallelCountMin
from repro.resilience import (
    DeadLetterQueue,
    ElasticShardedIngestor,
    FaultInjector,
    RetryPolicy,
)
from repro.resilience.state import dumps, header
from repro.stream.generators import zipf_stream
from repro.stream.minibatch import MinibatchDriver

EXPERIMENT = "R2"
UNIVERSE = 200
MU = 512
SCHEDULE = {8: 64, 16: 4}  # batch -> shards, applied on the boundary
SEEDS = tuple(
    int(s) for s in os.environ.get("REPRO_FAULT_SEEDS", "101 202 303").split()
)


class ExactOracle:
    """Exact per-item counts of what the driver delivered (ground truth
    for the ε checks; deliberately not mergeable, so it rides the plain
    ingest path next to the sharded sketch)."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.n = 0

    def ingest(self, batch) -> None:
        self.counts.update(int(x) for x in np.asarray(batch))
        self.n += len(batch)

    def state_dict(self) -> dict:
        return {
            **header("exact_oracle"),
            "counts": {int(k): int(v) for k, v in self.counts.items()},
            "n": self.n,
        }

    def load_state(self, state: dict) -> None:
        self.counts = Counter({int(k): int(v) for k, v in state["counts"].items()})
        self.n = int(state["n"])


def _cms() -> ParallelCountMin:
    return ParallelCountMin(0.005, 0.01, np.random.default_rng(42))


def test_r2_rescale_schedule_is_state_equivalent():
    reset_results(EXPERIMENT)
    rows = []
    for seed in SEEDS:
        stream = zipf_stream(24 * MU, UNIVERSE, 1.2, rng=seed)
        clean = _cms()
        MinibatchDriver({"cms": clean}).run(stream, MU)

        elastic = _cms()
        driver = MinibatchDriver(
            {"cms": elastic}, shards=2, rescale_at=dict(SCHEDULE)
        )
        driver.run(stream, MU)

        assert dumps(elastic.state_dict()) == dumps(clean.state_dict()), (
            f"seed {seed}: elastic state diverged from fixed-shard run"
        )
        events = [e for _, e in driver.reshard_events]
        assert [(e.old_shards, e.new_shards) for e in events] == [(2, 64), (64, 4)]
        for event in events:
            rows.append(
                [
                    seed,
                    event.batch_index,
                    f"{event.old_shards}->{event.new_shards}",
                    event.folded,
                    f"{event.seconds * 1e3:.3f}",
                    "yes",
                ]
            )

    emit_table(
        EXPERIMENT,
        "2->64->4 rescale schedule vs fixed-shard run (zipf 1.2)",
        ["seed", "batch", "transition", "folded", "latency_ms", "state-equal"],
        rows,
        notes="state-equal = byte equality of the Count-Min canonical "
        "state vs the never-rescaled run; latency covers the k-ary "
        "re-fold + repartition transition",
    )


def test_r2_shard_faults_recover_within_eps():
    rows = []
    for seed in SEEDS:
        stream = zipf_stream(24 * MU, UNIVERSE, 1.1, rng=seed + 7)
        injector = FaultInjector(seed, shard_crash=0.08, shard_stall=0.04,
                                 stall_seconds=0.03)
        ops = {"cms": _cms(), "oracle": ExactOracle()}
        driver = MinibatchDriver(
            ops,
            shards=8,
            fault_injector=injector,
            shard_retry=RetryPolicy(max_attempts=4),
            shard_timeout=0.015,
            rescale_at=dict(SCHEDULE),
        )
        driver.run(stream, MU)

        oracle = ops["oracle"]
        m = oracle.n
        assert m == len(stream)  # replay recovery drops nothing
        bound = 0.005 * m
        violations = sum(
            1
            for item in range(UNIVERSE)
            if not (
                oracle.counts.get(item, 0)
                <= ops["cms"].point_query(item)
                <= oracle.counts.get(item, 0) + bound
            )
        )
        assert violations == 0, f"seed {seed}: {violations} ε violations"

        crashes = injector.injected["shard_crash"]
        stalls = injector.injected["shard_stall"]
        assert crashes + stalls > 0, f"seed {seed}: no shard faults fired"
        replays = sum(
            1
            for ing in driver._elastic_ingestors.values()
            for f in ing.failures
        )
        rows.append([seed, m, crashes, stalls, replays, violations])

    emit_table(
        EXPERIMENT,
        "seeded shard_crash/shard_stall with replay-from-blob recovery",
        ["seed", "items", "crashes", "stalls", "failed-attempts", "eps-viol"],
        rows,
        notes="eps-viol counts CMS estimates outside [f, f+εm] vs the "
        "in-driver exact oracle — must be 0; every faulted shard task "
        "replays from its per-batch partial checkpoint",
    )


def test_r2_degradation_accounting():
    rows = []
    for seed in SEEDS:
        stream = zipf_stream(16 * MU, UNIVERSE, 1.2, rng=seed + 13)
        clean = _cms()
        MinibatchDriver({"cms": clean}).run(stream, MU)

        # Faults outlast the retry budget: shards must degrade, batches
        # must not fail, data must not be lost.
        injector = FaultInjector(seed, shard_crash=0.35, shard_fault_attempts=10)
        dlq = DeadLetterQueue()
        op = _cms()
        ingestor = ElasticShardedIngestor(
            op,
            shards=8,
            injector=injector,
            retry=RetryPolicy(max_attempts=2),
            dead_letter=dlq,
            min_shards=2,
        )
        for i in range(16):
            ingestor.ingest(stream[i * MU : (i + 1) * MU], batch_id=i)
        ingestor.sync()

        assert dumps(op.state_dict()) == dumps(clean.state_dict()), (
            f"seed {seed}: degraded run lost or duplicated data"
        )
        assert ingestor.shards >= 2
        assert ingestor.degraded_slices == len(dlq)
        assert all(e.size == 0 for e in dlq.entries())
        retired = 8 - ingestor.shards
        rows.append(
            [seed, ingestor.degraded_slices, retired, ingestor.shards,
             len(dlq), "yes"]
        )

    emit_table(
        EXPERIMENT,
        "retry-exhausted shards degrade gracefully (crash x10 attempts)",
        ["seed", "degraded-slices", "retired", "final-shards", "DLQ",
         "state-equal"],
        rows,
        notes="every degraded slice is re-ingested unsharded (DLQ records "
        "are size-0 accounting entries) and the final state equals the "
        "clean run byte-for-byte; min_shards=2 floor holds",
    )


@pytest.mark.benchmark(group="R2-reshard")
def test_r2_rescale_latency(benchmark):
    """Wall-clock cost of one 64→4 transition over accumulated state."""
    stream = zipf_stream(16 * MU, UNIVERSE, 1.2, rng=bench_seed(2))

    def rescale_once():
        op = _cms()
        ingestor = ElasticShardedIngestor(op, shards=64)
        for i in range(16):
            ingestor.ingest(stream[i * MU : (i + 1) * MU], batch_id=i)
        event = ingestor.rescale(4)
        return event.folded

    folded = benchmark(rescale_once)
    assert folded == 64
