"""Fused multi-operator ingest kernels: serial-exact, observable, wired.

The fusion contract (src/repro/engine/fusion.py) is that fusing is a
pure wall-clock optimization.  Four test classes pin it down:

* parity — a mixed pipeline (Count-Min, Count-Sketch, conservative
  Count-Min fallback, Misra-Gries fallback) ingested through
  :class:`FusedIngestPlan` finishes with bit-identical operator states,
  identical ledger (work, depth) totals, and identical probe answers
  to the serial shared-prework loop, whose Count-Min / Count-Sketch
  rows run the frozen per-row ``bincount`` update
  (:func:`tests.test_sketch_update_pin.frozen_ingest_prepared`) —
  including across empty and single-item batches and after a
  ``load_state`` swaps hash objects mid-stream;
* kernel edges — len-0 batches no-op cleanly, len-1 batches stay on
  the integer fast path (no object dtype), the stacked-coefficient
  signature rebuilds only when operator identity changes;
* arena & metrics — steady-state batches allocate nothing new
  (miss counter stable, reuse ratio climbs) and the three
  ``repro_fused/arena`` metrics flow through both exporters;
* wiring — the driver always ingests through the fused kernel.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    InfiniteHeavyHitters,
    MisraGriesSummary,
    ParallelCountMin,
    ParallelCountSketch,
    ParallelFrequencyEstimator,
)
from repro.engine.fusion import FusedIngestPlan
from repro.engine.registry import load_all
from repro.observability.export import to_json, to_prometheus_text
from repro.observability.metrics import REGISTRY
from repro.pram.arena import BatchArena
from repro.pram.cost import CostLedger, tracking
from repro.pram.plan import PreparedBatch
from repro.stream.generators import minibatches, zipf_stream
from repro.stream.minibatch import MinibatchDriver
from tests.test_sketch_update_pin import frozen_ingest_prepared

load_all()


def _pipeline() -> dict:
    return {
        "cms": ParallelCountMin(0.02, 0.05, rng=np.random.default_rng(11)),
        "cms2": ParallelCountMin(0.05, 0.1, rng=np.random.default_rng(12)),
        "cons": ParallelCountMin(
            0.05, 0.1, rng=np.random.default_rng(13), conservative=True
        ),
        "csk": ParallelCountSketch(0.05, 0.05, rng=np.random.default_rng(14)),
        "mg": MisraGriesSummary(capacity=32),
        "freq": ParallelFrequencyEstimator(eps=0.05),
    }


def _batches() -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    return [
        rng.integers(0, 5_000, size=2_048),
        np.empty(0, dtype=np.int64),  # len-0 mid-stream
        rng.integers(0, 5_000, size=1),  # len-1 mid-stream
        rng.integers(0, 50, size=1_024),  # heavy collisions
        rng.integers(0, 5_000, size=777),
    ]


def _states(ops: dict) -> dict[str, bytes]:
    return {name: pickle.dumps(op.state_dict()) for name, op in ops.items()}


def _run_serial(batches) -> tuple[dict, CostLedger]:
    ops = _pipeline()
    ledger = CostLedger()
    with tracking(ledger):
        for batch in batches:
            plan = PreparedBatch(batch)
            for op in ops.values():
                frozen_ingest_prepared(op, plan)
    return ops, ledger


def _run_fused(batches, arena=None) -> tuple[dict, CostLedger, FusedIngestPlan]:
    ops = _pipeline()
    fusion = FusedIngestPlan(ops, arena=arena)
    ledger = CostLedger()
    with tracking(ledger):
        for batch in batches:
            fusion.execute(PreparedBatch(batch))
    return ops, ledger, fusion


class TestParity:
    def test_states_ledger_and_probes_match_serial(self):
        serial_ops, serial_ledger = _run_serial(_batches())
        fused_ops, fused_ledger, fusion = _run_fused(_batches())
        assert (fused_ledger.work, fused_ledger.depth) == (
            serial_ledger.work,
            serial_ledger.depth,
        )
        assert _states(fused_ops) == _states(serial_ops)
        for item in range(64):
            assert fused_ops["cms"].point_query(item) == serial_ops[
                "cms"
            ].point_query(item)
            assert fused_ops["csk"].point_query(item) == serial_ops[
                "csk"
            ].point_query(item)

    def test_fused_names_cover_exactly_the_fusable_ops(self):
        ops = _pipeline()
        fusion = FusedIngestPlan(ops)
        # conservative CMS declines fusion (order-dependent updates);
        # the MG family has no gather rows at all.
        assert sorted(fusion.fused_names) == ["cms", "cms2", "csk"]

    def test_load_state_triggers_restack_and_stays_exact(self):
        batches = _batches()
        fused_ops, _, fusion = _run_fused(batches[:2])
        # Round-trip one sketch: fresh KWiseHash objects, same values.
        state = fused_ops["cms"].state_dict()
        fused_ops["cms"].load_state(pickle.loads(pickle.dumps(state)))
        with tracking(CostLedger()):
            for batch in batches[2:]:
                fusion.execute(PreparedBatch(batch))
        serial_ops, _ = _run_serial(batches)
        assert _states(fused_ops) == _states(serial_ops)

    def test_single_op_pipeline_matches(self):
        batches = _batches()
        op = ParallelCountSketch(0.05, 0.05, rng=np.random.default_rng(3))
        fusion = FusedIngestPlan({"only": op})
        led_f = CostLedger()
        with tracking(led_f):
            for batch in batches:
                fusion.execute(PreparedBatch(batch))
        mirror = ParallelCountSketch(0.05, 0.05, rng=np.random.default_rng(3))
        led_s = CostLedger()
        with tracking(led_s):
            for batch in batches:
                frozen_ingest_prepared(mirror, PreparedBatch(batch))
        assert (led_f.work, led_f.depth) == (led_s.work, led_s.depth)
        assert np.array_equal(op.table, mirror.table)


class TestKernelEdges:
    def test_len0_batch_is_a_noop(self):
        ops = _pipeline()
        fusion = FusedIngestPlan(ops)
        before = _states(ops)
        with tracking(CostLedger()):
            fusion.execute(PreparedBatch(np.empty(0, dtype=np.int64)))
        assert _states(ops) == before
        assert ops["cms"].stream_length == 0

    def test_len1_batch_stays_integer_no_object_dtype(self):
        ops = _pipeline()
        fusion = FusedIngestPlan(ops)
        plan = PreparedBatch(np.array([42], dtype=np.int64))
        with tracking(CostLedger()):
            fusion.execute(plan)
        keys, freqs = plan.sketch_hist()
        assert keys.dtype == np.int64 and freqs.dtype == np.int64
        assert ops["cms"].point_query(42) >= 1
        assert ops["cms"].table.dtype == np.int64

    def test_signature_stable_across_batches(self):
        ops = _pipeline()
        fusion = FusedIngestPlan(ops)
        sig = fusion._signature()
        with tracking(CostLedger()):
            fusion.execute(PreparedBatch(np.arange(100)))
        assert fusion._signature() == sig

    def test_operator_replacement_is_observed(self):
        ops = _pipeline()
        fusion = FusedIngestPlan(ops)
        with tracking(CostLedger()):
            fusion.execute(PreparedBatch(np.arange(100)))
        ops["cms"] = ParallelCountMin(0.02, 0.05, rng=np.random.default_rng(99))
        with tracking(CostLedger()):
            fusion.execute(PreparedBatch(np.arange(100)))
        mirror = ParallelCountMin(0.02, 0.05, rng=np.random.default_rng(99))
        with tracking(CostLedger()):
            frozen_ingest_prepared(mirror, PreparedBatch(np.arange(100)))
        assert np.array_equal(ops["cms"].table, mirror.table)


class TestArenaAndMetrics:
    def test_steady_state_allocates_nothing(self):
        arena = BatchArena()
        ops = _pipeline()
        fusion = FusedIngestPlan(ops, arena=arena)
        batch = np.random.default_rng(5).integers(0, 4_000, size=2_048)
        with tracking(CostLedger()):
            fusion.execute(PreparedBatch(batch))
        warm_misses = arena.misses
        with tracking(CostLedger()):
            for _ in range(5):
                fusion.execute(PreparedBatch(batch))
        assert arena.misses == warm_misses  # zero new allocations
        assert arena.reuse_ratio > 0.5
        assert arena.nbytes > 0

    def test_fused_metrics_flow_through_both_exporters(self):
        ops = _pipeline()
        fusion = FusedIngestPlan(ops)
        with tracking(CostLedger()):
            fusion.execute(PreparedBatch(np.arange(512)))
        before = REGISTRY.get("repro_fused_batches_total").value()
        with tracking(CostLedger()):
            fusion.execute(PreparedBatch(np.arange(512)))
        assert REGISTRY.get("repro_fused_batches_total").value() == before + 1
        assert REGISTRY.get("repro_arena_bytes").value() > 0
        assert 0.0 <= REGISTRY.get("repro_arena_reuse_ratio").value() <= 1.0
        prom = to_prometheus_text(REGISTRY)
        as_json = to_json(REGISTRY)
        json_names = {m["name"] for m in as_json["metrics"]}
        for name in (
            "repro_fused_batches_total",
            "repro_arena_bytes",
            "repro_arena_reuse_ratio",
        ):
            assert name in prom
            assert name in json_names


class TestWiring:
    def test_driver_auto_enables_fusion(self):
        """The driver always fuses: every batch is one fused execute,
        even with a plain operator (no ``ingest_prepared``) in the mix."""
        ops = _pipeline()
        ops["plain"] = _PlainCounter()
        driver = MinibatchDriver(ops)
        assert sorted(driver._step.fusion.fused_names) == ["cms", "cms2", "csk"]
        before = REGISTRY.get("repro_fused_batches_total").value()
        stream = zipf_stream(4_096, 2_000, 1.2, rng=21)
        driver.run(stream, 1_024)
        assert REGISTRY.get("repro_fused_batches_total").value() == before + 4
        mirror_ops, _ = _run_serial(minibatches(stream, 1_024))
        assert np.array_equal(
            driver.operators["cms"].table, mirror_ops["cms"].table
        )
        assert ops["plain"].seen == 4_096


class _PlainCounter:
    """An operator with only ``ingest`` — the fused pass's plain row."""

    def __init__(self) -> None:
        self.seen = 0

    def ingest(self, batch) -> None:
        self.seen += len(batch)


class TestHashKernelEquivalence:
    """The division-free fused hash machinery equals the serial hash."""

    @pytest.mark.parametrize("k", [1, 2, 4, 12])
    def test_eval_folded_matches_call(self, k, rng):
        from repro.pram.hashing import KWiseHash

        h = KWiseHash(k, 10_007, rng)
        xs = rng.integers(0, 1 << 62, size=2_000)
        led_a, led_b = CostLedger(), CostLedger()
        with tracking(led_a):
            direct = h(xs)
        with tracking(led_b):
            folded = h.eval_folded(xs)
        np.testing.assert_array_equal(direct, folded)
        assert (led_a.work, led_a.depth) == (led_b.work, led_b.depth)

    def test_eval_cost_matches_charged_eval(self, rng):
        from repro.pram.hashing import KWiseHash

        h = KWiseHash(4, 997, rng)
        xs = rng.integers(0, 1 << 40, size=513)
        ledger = CostLedger()
        with tracking(ledger):
            h(xs)
        assert (ledger.work, ledger.depth) == h.eval_cost(xs.size)

    def test_fold_schedule_matches_exact_mod(self, rng):
        from repro.pram.hashing import MERSENNE_P, fold_schedule

        # The schedule's fold counts must keep every Horner intermediate
        # below 2**64; spot-check via object-dtype exact arithmetic.
        for k in (2, 5, 8, 12):
            schedule = fold_schedule(k)
            assert len(schedule) == k - 1
            assert all(f >= 0 for f in schedule)
        h_small = fold_schedule(2)
        assert isinstance(h_small, tuple)
        assert MERSENNE_P == (1 << 31) - 1
