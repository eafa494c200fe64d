"""E17 — k-ary merge tree: logarithmic fold depth over shard partials.

Sharded ingest splits a minibatch into S slices, ingests each into a
fresh clone (:func:`repro.engine.mergetree.shard_partials`), and folds
the partial synopses back into the parent.  A flat left fold — S
sequential ``merge`` calls, charged depth Θ(S·d) for per-merge depth d
— caps the useful shard count: past a point, adding shards *raises* the
critical path.  The engine's one fold,
:func:`repro.engine.mergetree.merge_partials`, folds the same partials
through a k-ary tree (⌈log_k S⌉ fork-join rounds of group merges), so
fold depth grows logarithmically in S while total work is unchanged.
The flat fold lives on only here, inline, as the depth reference.

The sweep runs shards × arity over a Count-Min sketch and asserts:

* **state parity** — tree-folded tables are cell-for-cell identical to
  the flat fold *and* to single-pass serial ingest (merge order is free
  for mergeable summaries), at every point of the sweep;
* **work parity** — the tree charges exactly the flat fold's work
  (same merges, different association);
* **logarithmic depth shape** — measured fold depth matches the
  ⌈log_k S⌉·(k−1)·d + d closed form exactly, stays within the bound at
  every sweep point, and at S=64 the binary tree's fold is at least 8x
  shallower than the flat fold's.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from benchmarks._harness import bench_rng, bench_seed, emit_table, reset_results
from repro.core import ParallelCountMin
from repro.engine.mergetree import merge_partials, shard_partials
from repro.pram.cost import tracking
from repro.stream.generators import zipf_stream

EXPERIMENT = "E17"
N = 1 << 14
UNIVERSE = 1 << 12
SHARD_SWEEP = (2, 4, 8, 16, 32, 64)
ARITY_SWEEP = (2, 4, 8)


def _cms() -> ParallelCountMin:
    return ParallelCountMin(0.01, 0.01, rng=bench_rng(17))


def _leaves(batch, shards):
    """S partials: one fresh clone per slice, ingested in one leaf region."""
    op = _cms()
    return shard_partials([op.fresh_clone() for _ in range(shards)], batch)


def _copies(partials):
    return [pickle.loads(pickle.dumps(p)) for p in partials]


def _fold_cost(fold) -> tuple:
    """(work, depth, folded op) charged by one fold closure."""
    op = _cms()
    with tracking() as ledger:
        fold(op)
    return ledger.work, ledger.depth, op


@pytest.mark.benchmark(group="E17-mergetree")
def test_e17_fold_depth_sweep(benchmark):
    reset_results(EXPERIMENT)
    batch = zipf_stream(N, UNIVERSE, 1.2, rng=bench_seed(3))
    serial = _cms()
    serial.ingest(batch)

    rows = []
    depths: dict[tuple[int, int], int] = {}
    flat_depths: dict[int, int] = {}
    for shards in SHARD_SWEEP:
        partials = _leaves(batch, shards)

        def flat_fold(op, partials=partials):
            for part in _copies(partials):
                op.merge(part)

        flat_work, flat_depth, flat_op = _fold_cost(flat_fold)
        flat_depths[shards] = flat_depth
        assert np.array_equal(flat_op.table, serial.table), (
            f"S={shards}: flat fold diverged from serial ingest"
        )
        per_merge = flat_depth // shards  # every CMS merge is equal-depth

        for arity in ARITY_SWEEP:

            def tree_fold(op, partials=partials, arity=arity):
                merge_partials(op, _copies(partials), arity=arity)

            work, depth, tree_op = _fold_cost(tree_fold)
            depths[(shards, arity)] = depth

            # State parity: zero divergence, cell for cell.
            assert np.array_equal(tree_op.table, serial.table), (
                f"S={shards} k={arity}: tree fold diverged from serial ingest"
            )
            # Work parity: same merges, different association.
            assert work == flat_work, (
                f"S={shards} k={arity}: tree work {work} != flat {flat_work}"
            )
            # Closed-form depth: each round r folds ⌈S_r/k⌉ groups, the
            # largest doing (group size − 1) sequential merges; the
            # final adoption merge adds one more d.
            expected_rounds = 0
            remaining = shards
            while remaining > 1:
                groups = [
                    min(arity, remaining - i) for i in range(0, remaining, arity)
                ]
                expected_rounds += max(g - 1 for g in groups)
                remaining = len(groups)
            expected = (expected_rounds + 1) * per_merge
            assert depth == expected, (
                f"S={shards} k={arity}: fold depth {depth} != closed form "
                f"{expected}"
            )
            # Logarithmic bound.
            bound = ((arity - 1) * math.ceil(math.log(shards, arity)) + 1)
            assert depth <= bound * per_merge, (
                f"S={shards} k={arity}: depth {depth} exceeds "
                f"log-bound {bound * per_merge}"
            )
            rows.append([
                shards,
                arity,
                flat_depth,
                depth,
                round(flat_depth / depth, 2),
                work,
            ])

    # Depth shape across the sweep: the flat fold grows linearly in S,
    # the binary tree logarithmically — by S=64 the gap is >= 8x.
    assert flat_depths[64] / depths[(64, 2)] >= 8.0, (
        f"flat {flat_depths[64]} vs tree {depths[(64, 2)]}"
    )
    # Monotone in S for fixed arity (sanity of the log curve).
    assert depths[(64, 2)] > depths[(8, 2)] > depths[(2, 2)]

    emit_table(
        EXPERIMENT,
        "k-ary merge-tree fold vs flat fold (Count-Min, shard sweep)",
        ["shards", "arity", "flat fold depth", "tree fold depth",
         "depth ratio", "fold work"],
        rows,
        notes=(
            f"N={N}, universe={UNIVERSE}; fold work is identical flat vs "
            "tree (asserted), states are cell-identical to single-pass "
            "serial ingest at every sweep point (asserted)"
        ),
    )

    partials = _leaves(batch, 16)
    benchmark(lambda: merge_partials(_cms(), _copies(partials), arity=2))
