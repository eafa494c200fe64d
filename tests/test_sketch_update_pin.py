"""Count-Min / Count-Sketch's one table update, pinned to the update it
replaced.

Plain Count-Min and Count-Sketch change their tables only through the
fused scatter (``ingest_fused``): ``ingest``, ``ingest_prepared``,
``update``, the driver's step and the concurrent buffers all run it.
Below is a frozen copy of the per-row ``bincount`` update both used
before, with its charges.  Over hypothesis-drawn batchings (empty and
1-item batches, string items, interleaved ``update`` calls), canonical
``state_dict`` bytes and ledger ``(work, depth)`` must equal it under
``ingest``, ``ingest_prepared`` and a multi-operator plan.

The same path rejects a negative integer key with the point queries'
``ValueError`` before any operator of the batch changes state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import MisraGriesSummary, ParallelCountMin, ParallelCountSketch
from repro.engine.fusion import FusedIngestPlan
from repro.pram.backend import SerialBackend
from repro.pram.cost import charge, parallel, tracking
from repro.pram.plan import PreparedBatch, fold_key
from repro.pram.primitives import log2ceil
from repro.resilience.state import dumps
from repro.stream.minibatch import MinibatchDriver


# ----------------------------------------------------------------------
# The frozen per-row bincount update.
# ----------------------------------------------------------------------
def _frozen_rows(op, keys, freqs, hash_of) -> None:
    """One strand per row: hash the distinct keys, then gather
    same-column (signed) frequencies with one dense ``bincount``."""
    p = keys.size
    with parallel() as par:
        for i in range(op.depth):

            def strand(i: int = i) -> None:
                if isinstance(op, ParallelCountMin):
                    cols, weights = hash_of(op.hashes[i], keys), freqs
                else:
                    cols = hash_of(op.bucket_hashes[i], keys)
                    signs = 2 * hash_of(op.sign_hashes[i], keys) - 1
                    weights = signs * freqs
                charge(
                    work=max(1, p + op.width),
                    depth=1 + log2ceil(max(2, p + op.width)),
                )
                op.table[i] += np.bincount(
                    cols, weights=weights, minlength=op.width
                ).astype(np.int64)

            par.run(strand)


def frozen_ingest_prepared(op, plan: PreparedBatch) -> None:
    """The retired ``ingest_prepared`` of plain Count-Min and
    Count-Sketch; any other operator runs its own ``ingest_prepared``."""
    if getattr(op, "fused_gathers", lambda: None)() is None:
        op.ingest_prepared(plan)
    elif plan.size:
        keys, freqs = plan.sketch_hist()
        _frozen_rows(op, keys, freqs, plan.hash_columns)
        op.stream_length += plan.size


def frozen_update(op, item, count: int) -> None:
    """The retired single-item ``update`` of both sketches."""
    key = fold_key(item)
    if isinstance(op, ParallelCountMin):
        keys = np.array([key], dtype=np.int64)
        _frozen_rows(op, keys, np.array([count]), lambda h, k: h(k))
    else:
        charge(work=op.depth, depth=1 + log2ceil(max(2, op.depth)))
        for i in range(op.depth):
            sign = 2 * op.sign_hashes[i](key) - 1
            op.table[i, op.bucket_hashes[i](key)] += sign * count
    op.stream_length += count


# ----------------------------------------------------------------------
# The pin
# ----------------------------------------------------------------------
def _sketches() -> dict:
    """Two Count-Min geometries (narrow/shallow, wide/deep) and one
    Count-Sketch."""
    return {
        "cms-narrow": ParallelCountMin(0.2, 0.2, rng=np.random.default_rng(1)),
        "cms-wide": ParallelCountMin(0.005, 0.01, rng=np.random.default_rng(2)),
        "csk": ParallelCountSketch(0.1, 0.05, rng=np.random.default_rng(3)),
    }


def _ingest(ops):
    return lambda batch: [op.ingest(batch) for op in ops.values()]


def _ingest_prepared(ops):
    return lambda batch: [
        op.ingest_prepared(PreparedBatch(batch)) for op in ops.values()
    ]


def _plan(ops):
    fusion = FusedIngestPlan(ops)
    return lambda batch: fusion.execute(PreparedBatch(batch))


def _frozen(ops):
    def run(batch) -> None:
        plan = PreparedBatch(batch)
        for op in ops.values():
            frozen_ingest_prepared(op, plan)

    return run


_keys = st.integers(0, 3_000) | st.integers(0, 1 << 62)
_batch = st.lists(_keys, max_size=300).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
) | st.lists(st.text(max_size=3) | st.integers(0, 50), max_size=40)
_steps = st.lists(
    st.tuples(st.just("batch"), _batch)
    | st.tuples(st.just("update"), _keys | st.text(max_size=3), st.integers(0, 1_000)),
    max_size=8,
).map(  # empty and 1-item batches ride along on every example
    lambda steps: [("batch", np.empty(0, dtype=np.int64)), *steps,
                   ("batch", np.array([7], dtype=np.int64))]
)


def _run(steps, ingest, update):
    """Canonical state bytes per sketch and the ledger's (work, depth)."""
    ops = _sketches()
    batch_step = ingest(ops)
    with tracking() as ledger:
        for kind, *args in steps:
            if kind == "batch":
                batch_step(args[0])
            else:
                for op in ops.values():
                    update(op, *args)
    states = {name: dumps(op.state_dict()) for name, op in ops.items()}
    return states, (ledger.work, ledger.depth)


@pytest.mark.parametrize("ingest", [_ingest, _ingest_prepared, _plan])
@given(steps=_steps)
def test_one_table_update_matches_frozen(ingest, steps):
    live = _run(steps, ingest, lambda op, item, count: op.update(item, count))
    assert live == _run(steps, _frozen, frozen_update)


# ----------------------------------------------------------------------
# Negative keys
# ----------------------------------------------------------------------
@pytest.mark.parametrize("conservative", [False, True])
def test_negative_keys_rejected_before_any_state_change(conservative):
    ops = _sketches()
    ops["cms-narrow"] = ParallelCountMin(0.2, 0.2, conservative=conservative)
    for op in ops.values():
        op.ingest(np.arange(50))
        before = dumps(op.state_dict())
        with pytest.raises(ValueError) as query_err:
            op.point_query(-5)
        for bad in (
            lambda: op.ingest(np.array([-1, -1, -5])),
            lambda: op.ingest_prepared(PreparedBatch(np.array([3, -5]))),
            lambda: op.ingest([-5, "a"]),
            lambda: op.update(-5),
        ):
            with pytest.raises(ValueError) as err:
                bad()
            assert str(err.value) == str(query_err.value)
        assert dumps(op.state_dict()) == before


def test_unsigned_keys_above_int64_are_not_negative():
    top = (1 << 64) - 1
    for op in _sketches().values():
        op.ingest(np.array([top, top], dtype=np.uint64))
        assert op.point_query(top) == 2


@pytest.mark.parametrize("backend", [None, SerialBackend()], ids=["fused", "serial"])
def test_driver_step_rejects_before_earlier_operators(backend):
    ops = {
        "mg": MisraGriesSummary(capacity=8),
        "cms": ParallelCountMin(0.1, 0.1, rng=np.random.default_rng(5)),
    }
    driver = MinibatchDriver(ops, engine_backend=backend)
    driver.run(np.arange(100), batch_size=50)
    before = {name: dumps(op.state_dict()) for name, op in ops.items()}
    with pytest.raises(ValueError, match="nonnegative integers, got -3"):
        driver.run(np.array([1, 2, -3, 4]), batch_size=4)
    assert {name: dumps(op.state_dict()) for name, op in ops.items()} == before
