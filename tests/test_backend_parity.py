"""Backend parity: Serial / Thread / ProcessPool sharded ingest agree.

Sharded ingest is :func:`repro.engine.mergetree.merge_tree_ingest`: leaf
strands over fresh clones, then the k-ary tree fold.

The mergeable-summaries property (linearity of Count-Min/Count-Sketch)
means a sharded ingest's result depends only on the shard *contents*,
never on the vehicle that ran the shards.  These tests pin that down:
all three backends produce bit-identical synopsis state and identical
charged ledger totals on the same prepared batch, RNG state round-trips
through the worker pickle, and the fork-join cost fold matches the
cost-model rule (sum work, max depth).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import ParallelCountMin, ParallelCountSketch
from repro.engine.mergetree import merge_tree_ingest
from repro.pram.backend import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.pram.cost import tracking
from repro.resilience.state import dumps
from repro.stream.generators import zipf_stream

BACKENDS = {
    "serial": SerialBackend,
    "thread": lambda: ThreadBackend(max_workers=3),
    "process": lambda: ProcessPoolBackend(max_workers=2),
}

SKETCHES = {
    "countmin": lambda: ParallelCountMin(
        eps=0.02, delta=0.05, rng=np.random.default_rng(0xA11)
    ),
    "countsketch": lambda: ParallelCountSketch(
        eps=0.1, delta=0.1, rng=np.random.default_rng(0xB22)
    ),
}

STREAM = zipf_stream(4_000, 300, 1.2, rng=77)


def _shard_run(make, backend, shards=4):
    op = make()
    with tracking() as led:
        merge_tree_ingest(op, STREAM, shards=shards, backend=backend)
    return dumps(op.state_dict()), (led.work, led.depth)


@pytest.mark.parametrize("sketch", SKETCHES, ids=list(SKETCHES))
class TestBackendParity:
    def test_states_and_ledgers_bit_identical(self, sketch):
        make = SKETCHES[sketch]
        results = {
            name: _shard_run(make, factory())
            for name, factory in BACKENDS.items()
        }
        states = {state for state, _ in results.values()}
        ledgers = {ledger for _, ledger in results.values()}
        assert len(states) == 1, "backends disagree on synopsis state"
        assert len(ledgers) == 1, "backends disagree on charged totals"

    def test_shard_count_does_not_change_state(self, sketch):
        make = SKETCHES[sketch]
        one, _ = _shard_run(make, SerialBackend(), shards=1)
        many, _ = _shard_run(make, SerialBackend(), shards=7)
        assert one == many

    def test_sharded_equals_direct_ingest(self, sketch):
        make = SKETCHES[sketch]
        direct = make()
        direct.ingest(STREAM)
        sharded, _ = _shard_run(make, ProcessPoolBackend(max_workers=2))
        assert dumps(direct.state_dict()) == sharded

    def test_rng_state_round_trips_through_workers(self, sketch):
        """Workers receive pickled clones (rng included) and ship them
        back; the merged op's rng must be exactly the original's."""
        make = SKETCHES[sketch]
        op = make()
        before = pickle.dumps(op._rng.bit_generator.state)
        merge_tree_ingest(op, STREAM, shards=3,
                          backend=ProcessPoolBackend(max_workers=2))
        after = pickle.dumps(op._rng.bit_generator.state)
        assert before == after
        op.check_invariants()


class TestForkJoinCostFold:
    def test_process_pool_costs_match_serial(self):
        from repro.pram.backend import fork_join
        from repro.pram.cost import charge

        def measure(backend):
            with tracking() as led:
                fork_join(
                    [partial_charge for partial_charge in _CHARGERS],
                    backend,
                )
            return led.work, led.depth

        serial = measure(SerialBackend())
        threaded = measure(ThreadBackend(max_workers=2))
        pooled = measure(ProcessPoolBackend(max_workers=2))
        assert serial == threaded == pooled == (9, 5)

    def test_single_task_runs_inline(self):
        backend = ProcessPoolBackend(max_workers=4)
        out = backend.run_all([_charge_2_5])
        assert len(out) == 1
        assert (out[0][1].work, out[0][1].depth) == (2, 5)


def _charge_2_5():
    from repro.pram.cost import charge

    charge(2, 5)
    return "ok"


def _charge_3_4():
    from repro.pram.cost import charge

    charge(3, 4)
    return "ok"


def _charge_4_3():
    from repro.pram.cost import charge

    charge(4, 3)
    return "ok"


_CHARGERS = [_charge_2_5, _charge_3_4, _charge_4_3]


class TestShardIngestValidation:
    def test_rejects_unmergeable_operator(self):
        class NoMerge:
            def ingest(self, batch):
                pass

        with pytest.raises(TypeError, match="fresh_clone"):
            merge_tree_ingest(NoMerge(), STREAM, shards=2)

    def test_rejects_bad_shard_count(self):
        op = SKETCHES["countmin"]()
        with pytest.raises(ValueError, match="shards"):
            merge_tree_ingest(op, STREAM, shards=0)

    def test_empty_batch_is_noop(self):
        op = SKETCHES["countmin"]()
        before = dumps(op.state_dict())
        merge_tree_ingest(op, np.asarray([], dtype=np.int64), shards=3)
        assert dumps(op.state_dict()) == before
