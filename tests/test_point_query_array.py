"""Array point queries for Count-Min, Count-Sketch and the dyadic stack.

``point_query`` takes one item or a 1-D integer key array.  The array
form must answer exactly what the per-key scalar loop answers, as
Python ints after ``.tolist()``, and charge the ledger exactly what
that loop charges: the same ``(work, depth)`` and the same recorded
fork-join trace.  Both forms share one body, so each is also held to
a pinned copy of the per-key scalar query (one ``KWiseHash`` call per
row, then the min or median), which the sketches answered with before
the array form existed.  The fuzz oracles keep checking the scalar
path on its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.countmin import DyadicCountMin, ParallelCountMin
from repro.core.countsketch import ParallelCountSketch
from repro.engine import registry
from repro.observability.spans import span_tracing
from repro.pram.cost import CostLedger, charge, tracking
from repro.pram.plan import fold_key
from repro.pram.primitives import log2ceil, reduce_min

UNIVERSE_BITS = 9
KEY_MAX = (1 << UNIVERSE_BITS) - 1

FACTORIES = {
    "cms": lambda: ParallelCountMin(0.05, 0.05, np.random.default_rng(11)),
    "cms-conservative": lambda: ParallelCountMin(
        0.05, 0.05, np.random.default_rng(12), conservative=True
    ),
    "csk": lambda: ParallelCountSketch(0.2, 0.05, np.random.default_rng(13)),
    "dyadic": lambda: DyadicCountMin(
        0.1, 0.1, UNIVERSE_BITS, np.random.default_rng(14)
    ),
}


def pinned_cms_query(op: ParallelCountMin, item) -> int:
    key = fold_key(item)
    cells = np.array(
        [op.table[i, h(key)] for i, h in enumerate(op.hashes)], dtype=np.int64
    )
    return int(reduce_min(cells))


def pinned_csk_query(op: ParallelCountSketch, item) -> int:
    key = fold_key(item)
    estimates = np.empty(op.depth, dtype=np.int64)
    for i in range(op.depth):
        sign = 2 * op.sign_hashes[i](key) - 1
        estimates[i] = sign * op.table[i, op.bucket_hashes[i](key)]
    charge(work=op.depth, depth=1 + log2ceil(max(2, op.depth)))
    return int(np.median(estimates))


PINNED = {
    "cms": pinned_cms_query,
    "cms-conservative": pinned_cms_query,
    "csk": pinned_csk_query,
    "dyadic": lambda op, item: pinned_cms_query(op.levels[0], int(item)),
}

streams = st.lists(st.integers(0, KEY_MAX), max_size=300)
key_lists = st.lists(st.integers(0, KEY_MAX), max_size=24)


def built(kind: str, stream: list[int]):
    op = FACTORIES[kind]()
    if stream:
        op.ingest(np.array(stream, dtype=np.int64))
    return op


def charged(fn) -> tuple[tuple[int, int], list]:
    with tracking(CostLedger(record=True)) as ledger:
        fn()
    return (ledger.work, ledger.depth), ledger.trace


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@given(stream=streams, keys=key_lists, dtype=st.sampled_from([np.int64, np.uint64]))
@example(stream=[3, 3, 7], keys=[], dtype=np.int64)
@example(stream=[3, 3, 7], keys=[3], dtype=np.int64)
@example(stream=[3, 3, 7, 9], keys=[7, 3, 7, 7, 0, 3], dtype=np.uint64)
def test_array_answers_and_charges_match_scalar_loop(kind, stream, keys, dtype):
    op = built(kind, stream)
    arr = np.array(keys, dtype=dtype)

    answers = op.point_query(arr)
    assert isinstance(answers, np.ndarray) and answers.shape == (len(keys),)
    as_list = answers.tolist()
    assert all(type(a) is int for a in as_list)
    scalar = [op.point_query(k) for k in keys]
    assert all(type(a) is int for a in scalar)
    pinned = PINNED[kind]
    assert as_list == scalar == [pinned(op, k) for k in keys]

    array_charges = charged(lambda: op.point_query(arr))
    assert array_charges == charged(lambda: [op.point_query(k) for k in keys])
    assert array_charges == charged(lambda: [pinned(op, k) for k in keys])


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_span_attributed_trace_matches_scalar_loop(kind):
    """Under span tracing every charge carries its span label; the
    array form must reproduce the loop's labels entry for entry."""
    op = built(kind, [1, 2, 2, 5, 5, 5, 300])
    keys = [5, 0, 5, 300]

    def traced(fn):
        with span_tracing():
            return charged(fn)

    assert traced(lambda: op.point_query(np.array(keys))) == traced(
        lambda: [op.point_query(k) for k in keys]
    )


@pytest.mark.parametrize(
    "name", ["ParallelCountMin", "ParallelCountSketch", "DyadicCountMin"]
)
def test_registry_probe_returns_python_ints(name):
    spec = registry.get(name)
    op = spec.build()
    op.ingest(np.random.default_rng(5).integers(0, 64, size=2_000))
    answer = spec.probe(op)
    assert all(type(a) is int for a in answer)
    assert answer[:64] == [op.point_query(i) for i in range(64)]


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_negative_and_non_integer_keys_rejected_in_both_forms(kind):
    op = built(kind, [1, 2, 3])
    with pytest.raises(ValueError) as scalar_err:
        op.point_query(-1)
    with pytest.raises(ValueError) as array_err:
        op.point_query(np.array([3, -1]))
    assert str(scalar_err.value) == str(array_err.value)
    for bad in (np.array([1.0, 2.0]), np.array([True]), np.array([[1, 2]])):
        with pytest.raises(ValueError, match="nonnegative integers"):
            op.point_query(bad)


@pytest.mark.parametrize("kind", ["cms", "csk"])
def test_scalar_keys_outside_uint64_rejected(kind):
    op = built(kind, [1])
    with pytest.raises(ValueError, match="nonnegative integers"):
        op.point_query(1 << 64)
    # The top of the uint64 range and hashed non-integer items still work.
    assert op.point_query((1 << 64) - 1) == op.point_query(
        np.array([(1 << 64) - 1], dtype=np.uint64)
    ).tolist()[0]
    assert isinstance(op.point_query("x"), int)
