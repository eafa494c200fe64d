"""The per-batch step, the driver against a reference loop, merge tree.

Three claims, each load-bearing for the engine:

1. :class:`~repro.engine.graph.DataflowGraph`, the driver's fixed
   per-batch step, ingests a batch into every operator, and its
   fork-join schedule over a backend leaves the same states as the
   serial fused pass.
2. The :class:`~repro.stream.minibatch.MinibatchDriver` is
   **bit-identical** to a hand-written reference loop (one
   ``PreparedBatch`` per batch, then each operator's
   ``ingest_prepared`` or ``ingest`` in mapping order): same reports,
   same cumulative ledger, same operator ``state_dict()`` — wall-clock
   ``seconds`` excepted.  That holds for a mixed pipeline, a sharded
   driver, and every execution backend; scheduled over a backend,
   charged per-batch depth *drops* (fork-join max instead of
   sequential sum).
3. The k-ary merge tree folds shard partials to the same state as the
   flat fold at logarithmically shallower charged depth.
"""

from __future__ import annotations

import pickle
from functools import partial

import numpy as np
import pytest

from repro.core import ParallelCountMin
from repro.engine import registry
from repro.engine.graph import DataflowGraph
from repro.engine.mergetree import (
    merge_partials,
    merge_tree_ingest,
    mergeable,
    shard_partials,
)
from repro.pram.backend import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
    fork_join,
)
from repro.pram.cost import CostLedger, tracking
from repro.pram.plan import PreparedBatch
from repro.resilience.reshard import ElasticShardedIngestor
from repro.resilience.state import dumps
from repro.stream.generators import zipf_stream
from repro.stream.minibatch import MinibatchDriver


def _build(*names: str) -> dict:
    return {name: registry.get(name).build() for name in names}


def _canon(op) -> bytes:
    """Canonical state bytes; operators without the state codec pickle."""
    if hasattr(op, "state_dict"):
        return dumps(op.state_dict())
    return pickle.dumps(op)


def _op_states(ops) -> dict[str, bytes]:
    return {name: _canon(op) for name, op in ops.items()}


# ----------------------------------------------------------------------
# DataflowGraph: the fixed per-batch step
# ----------------------------------------------------------------------
class TestDataflowGraph:
    def test_execute_serial_computes_all_nodes(self):
        ops = _build("ParallelCountMin", "MisraGriesSummary", "SpaceSaving")
        batch = zipf_stream(2_000, 64, 1.2, rng=3)
        folded = DataflowGraph(ops).execute(PreparedBatch(batch))
        assert folded is ops
        for name, op in _build(*ops).items():
            op.ingest(batch)
            assert _canon(ops[name]) == _canon(op)

    def test_execute_backend_matches_serial(self):
        names = ("ParallelCountMin", "MisraGriesSummary", "SpaceSaving")
        batch = zipf_stream(2_000, 64, 1.2, rng=3)
        serial = _build(*names)
        DataflowGraph(serial).execute(PreparedBatch(batch))
        threaded = _build(*names)
        plan = PreparedBatch(batch)
        folded = DataflowGraph(threaded, backend=ThreadBackend(2)).execute(plan)
        assert list(folded) == list(names)
        assert _op_states(folded) == _op_states(serial)


# ----------------------------------------------------------------------
# The driver against a hand-written reference loop, bit for bit
# ----------------------------------------------------------------------
def _three_ops() -> dict:
    return _build(
        "ParallelCountMin", "MisraGriesSummary", "WorkEfficientSlidingFrequency"
    )


def _mixed_ops() -> dict:
    """CMS, CSK, conservative CMS, MG, and SpaceSaving, which has no
    ``ingest_prepared``."""
    ops = _build(
        "ParallelCountMin", "ParallelCountSketch", "MisraGriesSummary", "SpaceSaving"
    )
    ops["cons"] = ParallelCountMin(
        0.05, 0.1, rng=np.random.default_rng(13), conservative=True
    )
    return ops


def _queries(ops) -> dict:
    return {
        "cms0": lambda: ops["ParallelCountMin"].point_query(0),
        "mg0": lambda: ops["MisraGriesSummary"].estimate(0),
    }


def _make_driver(**kwargs) -> MinibatchDriver:
    """Three registry-built operators (seeded, so two independently
    built drivers hold identical instances) plus interleaved queries."""
    ops = _three_ops()
    return MinibatchDriver(ops, query_every=3, queries=_queries(ops), **kwargs)


def _stream() -> np.ndarray:
    return zipf_stream(3_000, 64, 1.2, rng=7)


def _report_tuples(driver: MinibatchDriver) -> list[tuple]:
    """Everything in a report except wall-clock seconds and delivery
    metadata (the reference has no deliveries)."""
    return [
        (r.index, r.size, r.work, r.depth, r.query_results) for r in driver.reports
    ]


def _feed(op, plan: PreparedBatch):
    if hasattr(op, "ingest_prepared"):
        op.ingest_prepared(plan)
    else:
        op.ingest(plan.raw)
    return op


def _reference(ops, stream, batch_size, *, query_every, shards, backend):
    """The per-batch recipe written out by hand: mergeable operators
    through their own shard ingestor when ``shards`` is set, then one
    ``PreparedBatch`` fed to every other operator in mapping order.
    With a ``backend`` the feeds are one fork-join region, and a
    process worker's copy is adopted back (by ``load_state``, or by
    replacement without the state codec).  Returns the report tuples
    and the cumulative ledger."""
    ingestors = {
        name: ElasticShardedIngestor(op, shards=shards, label=name)
        for name, op in ops.items()
        if shards and mergeable(op)
    }
    rest = [name for name in ops if name not in ingestors]
    queries = _queries(ops)
    cumulative, reports = CostLedger(), []
    for index, start in enumerate(range(0, len(stream), batch_size)):
        batch = stream[start : start + batch_size]
        query_point = (index + 1) % query_every == 0
        ledger = CostLedger()
        with tracking(ledger):
            for ing in ingestors.values():
                ing.ingest(batch, batch_id=index)
            plan = PreparedBatch(batch)
            if backend is None:
                for name in rest:
                    _feed(ops[name], plan)
            else:
                strands = [partial(_feed, ops[name], plan) for name in rest]
                for name, out in zip(rest, fork_join(strands, backend)):
                    if out is ops[name]:
                        continue
                    if hasattr(out, "load_state"):
                        ops[name].load_state(out.state_dict())
                    else:
                        ops[name] = out
            if query_point:
                for ing in ingestors.values():
                    ing.sync()
        cumulative.charge(ledger.work, ledger.depth)
        results = {n: q() for n, q in queries.items()} if query_point else {}
        reports.append((index, len(batch), ledger.work, ledger.depth, results))
    with tracking(cumulative):
        for ing in ingestors.values():
            ing.sync()
    return reports, cumulative


#: name -> (operator factory, driver keyword arguments).
_CONFIGS = {
    "mixed": (_mixed_ops, {}),
    # WorkEfficientSlidingFrequency is not mergeable, so it stays on the
    # per-batch step while CMS and MG shard.
    "sharded": (_three_ops, {"shards": 2}),
    "serial": (_three_ops, {"engine_backend": SerialBackend()}),
    "thread": (_three_ops, {"engine_backend": ThreadBackend(4)}),
    "process": (_three_ops, {"engine_backend": ProcessPoolBackend(max_workers=3)}),
}


class TestDriverShimParity:
    """The driver against the hand-written reference loop above."""

    @pytest.mark.parametrize("config", list(_CONFIGS))
    def test_driver_matches_reference(self, config):
        build, kwargs = _CONFIGS[config]
        stream = _stream()[:1024] if config == "process" else _stream()
        ops = build()
        driver = MinibatchDriver(ops, query_every=3, queries=_queries(ops), **kwargs)
        driver.run(stream, 256)
        mirror = build()
        reports, ledger = _reference(
            mirror, stream, 256, query_every=3,
            shards=kwargs.get("shards"), backend=kwargs.get("engine_backend"),
        )
        assert _report_tuples(driver) == reports
        assert dumps(driver.ledger.state_dict()) == dumps(ledger.state_dict())
        assert _op_states(driver.operators) == _op_states(mirror)

    @pytest.mark.parametrize(
        "backend", [SerialBackend(), ThreadBackend(4)], ids=["serial", "thread"]
    )
    def test_scheduled_states_match_unscheduled(self, backend):
        plain = _make_driver()
        scheduled = _make_driver(engine_backend=backend)
        plain.run(_stream(), 256)
        scheduled.run(_stream(), 256)
        plain_state = {n: dumps(op.state_dict()) for n, op in plain.operators.items()}
        sched_state = {
            n: dumps(op.state_dict()) for n, op in scheduled.operators.items()
        }
        assert plain_state == sched_state
        assert _report_tuples(plain) != [] and scheduled.total_items() == 3_000

    def test_scheduled_depth_below_sequential(self):
        """Fork-join over the operator fan-out charges max over strands,
        so every batch's depth is strictly below the sequential sum."""
        plain = _make_driver()
        scheduled = _make_driver(engine_backend=SerialBackend())
        plain.run(_stream(), 256)
        scheduled.run(_stream(), 256)
        for seq, par in zip(plain.reports, scheduled.reports):
            assert par.depth < seq.depth
            assert par.work == seq.work  # scheduling never changes work

    def test_process_backend_readopts_worker_state(self):
        plain = _make_driver()
        scheduled = _make_driver(engine_backend=ProcessPoolBackend(max_workers=3))
        stream = _stream()[:1024]
        plain.run(stream, 256)
        scheduled.run(stream, 256)
        plain_state = {n: dumps(op.state_dict()) for n, op in plain.operators.items()}
        sched_state = {
            n: dumps(op.state_dict()) for n, op in scheduled.operators.items()
        }
        assert plain_state == sched_state

    def test_process_backend_snapshots_follow_swapped_operators(self):
        """SpaceSaving has no state codec, so a process worker's copy
        replaces it wholesale; published snapshots must copy the new
        object, not the one the driver was built with."""
        driver = MinibatchDriver(
            _build("SpaceSaving", "MisraGriesSummary"),
            engine_backend=ProcessPoolBackend(max_workers=2),
            concurrent_queries=True,
        )
        stream = zipf_stream(4_000, 64, 1.2, rng=7)
        driver.run(stream, 1_000)
        snap = driver.snapshot()
        assert (snap.epoch, snap.items) == (4, 4_000)
        probe = registry.get("SpaceSaving").probe
        live = driver.operators["SpaceSaving"]
        assert probe(snap["SpaceSaving"]) == probe(live)
        assert snap["SpaceSaving"].stream_length == 4_000


# ----------------------------------------------------------------------
# Merge tree: state parity with the flat fold, logarithmic fold depth
# ----------------------------------------------------------------------
def _cms():
    return registry.get("ParallelCountMin").build()


def _leaves(batch, shards):
    """Leaf phase only: ``shards`` fresh clones, ingested unmerged."""
    op = _cms()
    return shard_partials([op.fresh_clone() for _ in range(shards)], batch)


class TestMergeTree:
    def test_tree_state_matches_flat_fold_and_serial_ingest(self):
        batch = zipf_stream(8_192, 256, 1.1, rng=11)
        serial = _cms()
        serial.ingest(batch)
        flat = _cms()
        for part in _leaves(batch, 16):
            flat.merge(part)
        tree = merge_tree_ingest(_cms(), batch, shards=16, arity=2)
        assert np.array_equal(serial.table, flat.table)
        assert np.array_equal(serial.table, tree.table)
        assert dumps(flat.state_dict()) == dumps(tree.state_dict())

    @pytest.mark.parametrize("arity", [2, 4])
    def test_fold_depth_is_logarithmic(self, arity):
        """Tree-fold depth obeys the (arity−1)·⌈log_arity S⌉ + 1 bound
        and sits strictly below the flat fold's Θ(S) for larger S."""
        import math

        batch = zipf_stream(8_192, 256, 1.1, rng=12)
        shards = 16
        partials = _leaves(batch, shards)

        def fold_depth(fold):
            op = _cms()
            with tracking() as ledger:
                fold(op)
            return ledger.depth

        def flat_fold(op):
            for part in partials:
                op.merge(pickle.loads(pickle.dumps(part)))

        def tree_fold(op):
            merge_partials(
                op, [pickle.loads(pickle.dumps(p)) for p in partials], arity=arity
            )

        flat, tree = fold_depth(flat_fold), fold_depth(tree_fold)
        rounds = math.ceil(math.log(shards, arity))
        per_merge = flat // shards  # every CMS merge charges equal depth
        assert tree <= ((arity - 1) * rounds + 1) * per_merge
        assert tree < flat

    def test_backend_choice_does_not_change_state(self):
        batch = zipf_stream(4_096, 128, 1.2, rng=13)
        serial = merge_tree_ingest(_cms(), batch, shards=8, arity=2)
        threaded = merge_tree_ingest(
            _cms(), batch, shards=8, arity=2, backend=ThreadBackend(4)
        )
        assert dumps(serial.state_dict()) == dumps(threaded.state_dict())

    def test_arity_validated(self):
        with pytest.raises(ValueError, match="arity"):
            merge_partials(_cms(), [], arity=1)

    def test_non_mergeable_rejected(self):
        op = registry.get("DGIMCounter").build()
        with pytest.raises(TypeError, match="mergeable"):
            merge_tree_ingest(op, np.ones(16, dtype=np.int64), shards=4)

    def test_empty_partials_leave_op_unchanged(self):
        op = _cms()
        before = dumps(op.state_dict())
        merge_partials(op, [])
        assert dumps(op.state_dict()) == before
