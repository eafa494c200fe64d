"""Pin the one shard-and-fold path to the frozen code it replaced.

``tests/frozen_mergetree.py`` holds the earlier leaf (one pickled
``fresh_clone`` unpickled inside every strand), the standalone tree fold
and the elastic ingestor's own unsupervised leaf.  For Count-Min,
Count-Sketch and the frequency estimator, over empty, one-item and
S > len(batch) batches, S in 1..64, arity in 2..8 and Serial / Thread
backends, the live code must leave the same state bytes, charge the same
``(work, depth)`` and record the same ledger trace.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParallelCountMin, ParallelCountSketch, ParallelFrequencyEstimator
from repro.engine import mergetree
from repro.pram.backend import SerialBackend, ThreadBackend
from repro.pram.cost import tracking
from repro.resilience.reshard import ElasticShardedIngestor
from repro.resilience.state import dumps
from tests import frozen_mergetree as frozen

OPS = {
    "cms": lambda: ParallelCountMin(0.05, 0.05, np.random.default_rng(3)),
    "csk": lambda: ParallelCountSketch(0.2, 0.1, np.random.default_rng(4)),
    "pfe": lambda: ParallelFrequencyEstimator(0.05, np.random.default_rng(5)),
}
BACKENDS = {
    "serial": SerialBackend,
    "thread": lambda: ThreadBackend(max_workers=2),
}

ops = st.sampled_from(sorted(OPS))
backends = st.sampled_from(sorted(BACKENDS))
shards = st.integers(1, 64)
arities = st.integers(2, 8)
#: Empty, one-item and short batches (S > len(batch) for most S) up to
#: batches long enough that every shard gets a slice.
batches = st.one_of(
    st.just([]),
    st.lists(st.integers(0, 300), min_size=1, max_size=1),
    st.lists(st.integers(0, 300), max_size=24),
    st.lists(st.integers(0, 300), min_size=64, max_size=160),
)


def _measure(run):
    """(state bytes, (work, depth), trace) of ``run()``'s returned op."""
    with tracking(record=True) as led:
        op = run()
    return dumps(op.state_dict()), (led.work, led.depth), led.trace


def _array(items):
    return np.asarray(items, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(ops, batches, shards, arities, backends)
def test_merge_tree_ingest_matches_frozen(name, items, s, arity, backend):
    batch = _array(items)
    live = _measure(
        lambda: mergetree.merge_tree_ingest(
            OPS[name](), batch, shards=s, arity=arity, backend=BACKENDS[backend]()
        )
    )
    old = _measure(
        lambda: frozen.merge_tree_ingest(
            OPS[name](), batch, shards=s, arity=arity, backend=BACKENDS[backend]()
        )
    )
    assert live == old


@settings(max_examples=40, deadline=None)
@given(ops, batches, shards, arities, backends)
def test_leaf_and_fold_match_frozen(name, items, s, arity, backend):
    """The leaf over S fresh clones runs the frozen leaf's strands (one
    per non-empty slice), and the fold of those partials matches the
    frozen fold."""
    batch = _array(items)

    def live():
        op = OPS[name]()
        clones = [op.fresh_clone() for _ in range(s)]
        parts = mergetree.shard_partials(clones, batch, backend=BACKENDS[backend]())
        parts = [p for p in parts if p.stream_length]
        return mergetree.merge_partials(
            op, parts, arity=arity, backend=BACKENDS[backend]()
        )

    def old():
        op = OPS[name]()
        parts = frozen.shard_partials(op, batch, shards=s, backend=BACKENDS[backend]())
        return frozen.merge_partials(
            op, parts, arity=arity, backend=BACKENDS[backend]()
        )

    assert _measure(live) == _measure(old)


@settings(max_examples=40, deadline=None)
@given(
    ops,
    st.lists(batches, min_size=1, max_size=3),
    st.lists(batches, max_size=2),
    shards,
    shards,
    arities,
    backends,
)
def test_elastic_ingest_rescale_sync_matches_frozen(
    name, before, after, s, s_new, arity, backend
):
    """Unsupervised elastic ingest → ``rescale`` → ingest → ``sync``."""

    def run(cls):
        def go():
            ing = cls(
                OPS[name](), shards=s, arity=arity, backend=BACKENDS[backend](),
                label=name,
            )
            for items in before:
                ing.ingest(_array(items))
            ing.rescale(s_new)
            for items in after:
                ing.ingest(_array(items))
            return ing.sync()

        return _measure(go)

    assert run(ElasticShardedIngestor) == run(frozen.FrozenElasticIngestor)
