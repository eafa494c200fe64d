"""Pin the one-sort-per-batch ``buildHist`` to the frozen code it replaced.

``tests/frozen_histogram.py`` holds the earlier ``build_hist_arrays``
(hash every item, then sort every item) and the plan's second argsort in
``sorted_hist_arrays``.  Over empty, one-item, negative, >= 2^62,
uint64 >= 2^63 and string batches, with the default hash and an explicit
``rng=``, the live code must return the same arrays, charge the same
``(work, depth)`` and record the same ledger trace and ``by_operator``
attribution (charges are labeled by span, so a tracer is installed).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.spans import span_tracing
from repro.pram.cost import tracking
from repro.pram.histogram import build_hist_arrays
from repro.pram.plan import PreparedBatch
from tests import frozen_histogram as frozen

small = st.integers(0, 300)
#: Integer batches: empty, one item, short, and long enough for crowded
#: buckets; small keys, negative keys and keys at or above 2^62 (past
#: the old combined-key argsort's range).
int_items = st.one_of(
    st.just([]),
    st.lists(small, min_size=1, max_size=1),
    st.lists(small, max_size=40),
    st.lists(st.integers(-50, 50), min_size=1, max_size=200),
    st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1, max_size=80),
    st.lists(st.integers((1 << 62) - 8, (1 << 62) + 8), min_size=1, max_size=80),
    st.lists(st.integers(0, 20), min_size=100, max_size=600),
)
#: uint64 batches reaching past 2^63 (their int64 codes wrap negative).
uint_items = st.lists(
    st.one_of(small, st.integers((1 << 63) - 4, (1 << 64) - 1)),
    min_size=1,
    max_size=80,
)
str_items = st.lists(st.sampled_from(["a", "b", "c", "dd", "", "é"]), max_size=60)


def _batch(kind: str, items: list):
    if kind == "int":
        return np.asarray(items, dtype=np.int64)
    if kind == "uint":
        return np.asarray(items, dtype=np.uint64)
    return list(items)


batches = st.one_of(
    st.tuples(st.just("int"), int_items),
    st.tuples(st.just("uint"), uint_items),
    st.tuples(st.just("str"), str_items),
)
seeds = st.one_of(st.none(), st.integers(0, 2**32 - 1))


class Raised(str):
    """The message of a ``ValueError`` a run raised, as its value."""


def _measure(run):
    """(value, (work, depth), trace, by_operator) of ``run()`` under a
    recording ledger and a span tracer; an exception is the value."""
    with span_tracing(), tracking(record=True) as led:
        try:
            value = run()
        except ValueError as exc:
            value = Raised(exc)
    return value, (led.work, led.depth), led.trace, led.by_operator


def _same(live, old) -> None:
    (v_live, *cost_live), (v_old, *cost_old) = live, old
    assert cost_live == cost_old
    assert type(v_live) is type(v_old)
    if isinstance(v_old, Raised):
        assert v_live == v_old
        return
    assert len(v_live) == len(v_old)
    for a, b in zip(v_live, v_old):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


@settings(max_examples=150, deadline=None)
@given(batches, seeds)
def test_build_hist_arrays_matches_frozen(batch_spec, seed):
    batch = _batch(*batch_spec)

    def run(fn):
        rng = None if seed is None else np.random.default_rng(seed)
        return lambda: fn(batch, rng)

    _same(_measure(run(build_hist_arrays)), _measure(run(frozen.build_hist_arrays)))


#: Plan access sequences: the first access computes, repeats replay.
ACCESSES = [
    ("hist_arrays",),
    ("sorted_hist_arrays",),
    ("sketch_hist",),
    ("hist_arrays", "sorted_hist_arrays", "sorted_hist_arrays"),
    ("sorted_hist_arrays", "hist_arrays", "sketch_hist"),
    ("sketch_hist", "sorted_hist_arrays", "hist_arrays", "sketch_hist"),
]


@settings(max_examples=150, deadline=None)
@given(batches, st.sampled_from(ACCESSES))
def test_plan_products_match_frozen(batch_spec, accesses):
    batch = _batch(*batch_spec)

    def run(cls):
        def go():
            plan = cls(batch)
            return tuple(getattr(plan, name)() for name in accesses)

        return go

    live = _measure(run(PreparedBatch))
    old = _measure(run(frozen.FrozenPreparedBatch))
    (v_live, *cost_live), (v_old, *cost_old) = live, old
    assert cost_live == cost_old
    if isinstance(v_old, Raised):
        assert type(v_live) is Raised and v_live == v_old
        return
    for product_live, product_old in zip(v_live, v_old):
        _same((product_live, None), (product_old, None))


@pytest.mark.parametrize(
    "batch",
    [
        np.empty(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.array([-5, 3, -5, 2**62 + 1, 3], dtype=np.int64),
        np.array([2**63, 2**64 - 1, 1, 2**63], dtype=np.uint64),
        ["x", "y", "x", "z"],
    ],
    ids=["empty", "one", "negative-and-huge", "uint64-high", "strings"],
)
def test_edge_batches_match_frozen(batch):
    for seed in (None, 11):
        rng = (lambda: None) if seed is None else (lambda: np.random.default_rng(seed))
        _same(
            _measure(lambda: build_hist_arrays(batch, rng())),
            _measure(lambda: frozen.build_hist_arrays(batch, rng())),
        )
