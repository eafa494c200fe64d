"""ingest_prepared parity: shared batch plans change wall-clock, nothing else.

Three contracts, one per test class:

* sharing — one :class:`PreparedBatch` handed to several operators
  leaves each in the bit-identical state (and charges the identical
  ledger totals) as operators that prepared the batch privately;
* per-item equivalence — the vectorized kernels match the per-item
  reference loops exactly where the algorithm is per-item defined
  (Misra-Gries Algorithm 1) or linear (Count-Min / Count-Sketch);
* the histogram-augment kernels — the integer fast path
  (``mg_augment_arrays``) agrees bit-for-bit with the classic dict path
  (``mg_augment``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BasicSlidingFrequency,
    InfiniteHeavyHitters,
    MisraGriesSummary,
    ParallelBasicCounter,
    ParallelCountMin,
    ParallelCountSketch,
    ParallelFrequencyEstimator,
    ParallelWindowedMean,
    ParallelWindowedSum,
    SlidingHeavyHitters,
    SpaceEfficientSlidingFrequency,
    WindowedCountMin,
    WindowedHistogram,
    WindowedLpNorm,
    WindowedVariance,
    WorkEfficientSlidingFrequency,
)
from repro.core.misra_gries import mg_augment, mg_augment_arrays
from repro.pram.cost import tracking
from repro.pram.plan import PreparedBatch
from repro.resilience.state import dumps
from repro.stream.generators import zipf_stream

# ----------------------------------------------------------------------
# Factories: (name, constructor, batch maker).  Every core synopsis with
# an ingest_prepared fast path appears here; each factory seeds its own
# rng so repeated construction is bit-reproducible.
# ----------------------------------------------------------------------


def _items(n: int, seed: int = 7) -> np.ndarray:
    return zipf_stream(n, 200, 1.3, rng=seed)


def _bits(n: int, seed: int = 8) -> np.ndarray:
    return (np.random.default_rng(seed).random(n) < 0.4).astype(np.int64)


FACTORIES = [
    ("countmin", lambda: ParallelCountMin(eps=0.01, delta=0.01,
                                          rng=np.random.default_rng(1)), _items),
    ("countsketch", lambda: ParallelCountSketch(eps=0.05, delta=0.05,
                                                rng=np.random.default_rng(2)), _items),
    ("misra_gries", lambda: MisraGriesSummary(eps=0.02), _items),
    ("freq_infinite", lambda: ParallelFrequencyEstimator(eps=0.02), _items),
    ("freq_basic", lambda: BasicSlidingFrequency(window=600, eps=0.05), _items),
    ("freq_space", lambda: SpaceEfficientSlidingFrequency(window=600, eps=0.05),
     _items),
    ("freq_work", lambda: WorkEfficientSlidingFrequency(
        window=600, eps=0.05, rng=np.random.default_rng(3)), _items),
    ("hh_infinite", lambda: InfiniteHeavyHitters(phi=0.05, eps=0.02), _items),
    ("hh_sliding", lambda: SlidingHeavyHitters(window=600, phi=0.1, eps=0.05),
     _items),
    ("windowed_cms", lambda: WindowedCountMin(
        window=500, eps=0.05, delta=0.1, rng=np.random.default_rng(4)), _items),
    ("basic_counter", lambda: ParallelBasicCounter(window=400, eps=0.1), _bits),
    ("windowed_sum", lambda: ParallelWindowedSum(window=400, eps=0.1, max_value=7),
     lambda n, seed=9: np.random.default_rng(seed).integers(0, 8, size=n)),
    ("windowed_mean", lambda: ParallelWindowedMean(window=400, eps=0.1, max_value=7),
     lambda n, seed=9: np.random.default_rng(seed).integers(0, 8, size=n)),
    ("windowed_lp", lambda: WindowedLpNorm(window=400, eps=0.1, max_value=7, p=2),
     lambda n, seed=9: np.random.default_rng(seed).integers(0, 8, size=n)),
    ("windowed_var", lambda: WindowedVariance(window=400, eps=0.1, max_value=7),
     lambda n, seed=9: np.random.default_rng(seed).integers(0, 8, size=n)),
    ("windowed_hist", lambda: WindowedHistogram(
        window=400, eps=0.1, edges=np.array([0.0, 2.0, 4.0, 8.0])),
     lambda n, seed=9: np.random.default_rng(seed).integers(0, 8, size=n).astype(float)),
]

IDS = [name for name, _, _ in FACTORIES]


def _state(op) -> bytes:
    return dumps(op.state_dict())


@pytest.mark.parametrize("name,make,make_batch", FACTORIES, ids=IDS)
class TestSharedPlanParity:
    def test_shared_plan_matches_private_ingest(self, name, make, make_batch):
        """One plan, many consumers: states and charges identical to
        operators that each prepared the batch themselves."""
        shared_a, shared_b, private = make(), make(), make()
        batches = [make_batch(256, seed) for seed in (11, 12, 13)]
        for batch in batches:
            plan = PreparedBatch(batch)
            with tracking() as first:
                shared_a.ingest_prepared(plan)
            with tracking() as replayed:
                shared_b.ingest_prepared(plan)
            with tracking() as fresh:
                private.ingest(batch)
            # The second consumer replays cached charges; totals must
            # equal a private (compute-everything) ingest exactly.
            assert (replayed.work, replayed.depth) == (fresh.work, fresh.depth)
            assert (first.work, first.depth) == (fresh.work, fresh.depth)
        assert _state(shared_a) == _state(shared_b) == _state(private)
        shared_a.check_invariants()
        private.check_invariants()

    def test_driver_sized_batches_roundtrip(self, name, make, make_batch):
        """Plan sharing holds across many small batches too (the
        driver's actual access pattern), including empty batches."""
        shared, private = make(), make()
        stream = make_batch(700, 21)
        for start in range(0, len(stream), 64):
            chunk = stream[start : start + 64]
            plan = PreparedBatch(chunk)
            shared.ingest_prepared(plan)
            private.ingest(chunk)
        shared.ingest_prepared(PreparedBatch(np.asarray([], dtype=np.int64)))
        assert _state(shared) == _state(private)
        shared.check_invariants()


class TestMisraGriesPerItem:
    """The vectorized MG kernel is bit-identical to Algorithm 1 run
    item-at-a-time — same counters, same counts, every batch shape."""

    @given(
        batch=st.lists(st.integers(min_value=0, max_value=12),
                       min_size=0, max_size=400),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_update_loop(self, batch, capacity):
        eps = 1.0 / (capacity + 1)
        vectorized = MisraGriesSummary(eps=eps)
        reference = MisraGriesSummary(eps=eps)
        arr = np.asarray(batch, dtype=np.int64)
        vectorized.ingest_prepared(PreparedBatch(arr))
        for item in batch:
            reference.update(item)
        assert vectorized.counters == reference.counters
        assert vectorized.stream_length == reference.stream_length
        vectorized.check_invariants()
        reference.check_invariants()

    @given(
        batch=st.lists(st.sampled_from("abcdef"), min_size=0, max_size=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_kernel_matches_update_loop_objects(self, batch):
        vectorized = MisraGriesSummary(eps=0.25)
        reference = MisraGriesSummary(eps=0.25)
        vectorized.ingest_prepared(PreparedBatch(np.asarray(batch, dtype=object)))
        for item in batch:
            reference.update(item)
        assert vectorized.counters == reference.counters

    def test_many_batches_equal_one_item_stream(self):
        stream = _items(3_000, seed=31)
        vectorized = MisraGriesSummary(eps=0.01)
        reference = MisraGriesSummary(eps=0.01)
        for start in range(0, len(stream), 128):
            vectorized.ingest(stream[start : start + 128])
        for item in stream:
            reference.update(item)
        assert vectorized.counters == reference.counters
        vectorized.check_invariants()


class TestLinearSketchPerItem:
    """Count-Min / Count-Sketch are linear: batch ingest must equal the
    sum of single-item ingests, cell for cell."""

    @pytest.mark.parametrize("make", [
        lambda: ParallelCountMin(eps=0.02, delta=0.05,
                                 rng=np.random.default_rng(41)),
        lambda: ParallelCountSketch(eps=0.1, delta=0.1,
                                    rng=np.random.default_rng(42)),
    ], ids=["countmin", "countsketch"])
    def test_batch_equals_item_loop(self, make):
        batched, itemized = make(), make()
        stream = _items(800, seed=43)
        batched.ingest(stream)
        for item in stream:
            itemized.ingest(np.asarray([item]))
        np.testing.assert_array_equal(batched.table, itemized.table)
        assert batched.stream_length == itemized.stream_length
        batched.check_invariants()


class TestAugmentKernels:
    """mg_augment_arrays (int64 fast path) == mg_augment (dict path)."""

    @given(
        pairs=st.lists(
            st.tuples(st.integers(min_value=0, max_value=30),
                      st.integers(min_value=1, max_value=50)),
            min_size=0, max_size=40,
        ),
        summary=st.dictionaries(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=1, max_value=20),
            max_size=6,
        ),
        capacity=st.integers(min_value=6, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_path_matches_dict_path(self, pairs, summary, capacity):
        if len(summary) > capacity:
            summary = dict(list(summary.items())[:capacity])
        hist = {}
        for key, freq in pairs:
            hist[key] = hist.get(key, 0) + freq
        keys = np.fromiter(hist.keys(), dtype=np.int64, count=len(hist))
        freqs = np.fromiter(hist.values(), dtype=np.int64, count=len(hist))
        with tracking() as led_dict:
            via_dict = mg_augment(dict(summary), hist, capacity)
        with tracking() as led_arr:
            via_arrays = mg_augment_arrays(dict(summary), keys, freqs, capacity)
        assert via_arrays == via_dict
        assert (led_arr.work, led_arr.depth) == (led_dict.work, led_dict.depth)

    def test_freq_estimator_integer_and_object_paths_agree(self):
        stream = _items(2_000, seed=51)
        fast = ParallelFrequencyEstimator(eps=0.02)
        slow = ParallelFrequencyEstimator(eps=0.02)
        for start in range(0, len(stream), 256):
            chunk = stream[start : start + 256]
            fast.ingest(chunk)                     # integer fast path
            slow.ingest([int(x) for x in chunk])   # dict path via object batch
        assert fast.counters == slow.counters
        assert fast.stream_length == slow.stream_length
        fast.check_invariants()
        slow.check_invariants()
