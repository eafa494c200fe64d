"""The one shard-and-fold path over mergeable summaries.

Sharding is sound only because the synopsis is mergeable ([ACH+13]):
:func:`shard_partials` ingests one slice of the batch into each of S
partials as one fork-join region, and :func:`merge_partials` folds the
partials back — the base ⊕ partials construction of Rinberg et al.'s
concurrent sketches (PAPERS.md).  One-shot :func:`merge_tree_ingest` and
:class:`repro.resilience.reshard.ElasticShardedIngestor` both run on
these two calls.

Merge-order freedom licenses any fold order, so the fold is a k-ary
tree: each round merges groups of k partials as parallel strands.  With
per-merge depth d, folding S partials charges

    flat fold:   depth ≈ S · d
    k-ary tree:  depth ≈ ⌈log_k S⌉ · (k−1) · d  + d (final adoption)

with identical work and cell-identical states, both verified by
``benchmarks/bench_e17_mergetree.py`` (which keeps the flat fold inline
as its depth reference).  Partials travel as pickled operators, so any
synopsis with ``fresh_clone`` + ``merge`` qualifies, codec or not.
"""

from __future__ import annotations

import pickle
from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.pram.backend import Backend, fork_join

__all__ = [
    "mergeable",
    "require_mergeable",
    "shard_partials",
    "merge_partials",
    "merge_tree_ingest",
]


def mergeable(op: Any) -> bool:
    """Whether ``op`` is a mergeable summary: ``fresh_clone()`` builds
    an empty partial, ``merge(other)`` folds one in."""
    return callable(getattr(op, "fresh_clone", None)) and callable(
        getattr(op, "merge", None)
    )


def require_mergeable(op: Any, caller: str) -> None:
    """Raise :class:`TypeError` unless ``op`` is :func:`mergeable`."""
    if not mergeable(op):
        raise TypeError(
            f"{type(op).__name__} is not mergeable; {caller} needs a "
            "mergeable synopsis (fresh_clone + merge)"
        )


def _ingest_into(op: Any, part: np.ndarray) -> Any:
    """Leaf strand: ingest one slice into its partial and return it
    (module-level so it pickles into a process worker, where the
    returned object — not the argument — carries the new state)."""
    op.ingest(part)
    return op


def _merge_group(group: Sequence[Any]) -> Any:
    """Merge strand: fold one group of partials into its head.

    The k−1 merges run sequentially *within* the strand — that is the
    (k−1)·d per-round depth in the tree bound — while groups of the
    same round run as parallel strands."""
    head = group[0]
    for other in group[1:]:
        head.merge(other)
    return head


def shard_partials(
    partials: Sequence[Any],
    batch: np.ndarray,
    *,
    backend: Backend | None = None,
    label: str | None = None,
) -> list[Any]:
    """Split ``batch`` into ``len(partials)`` contiguous slices and
    ingest slice i into ``partials[i]`` — one fork-join region, one
    strand per non-empty slice (empty slices get no strand).

    Returns every partial in order; under a process backend a worker's
    copy replaces the partial it ingested.  One-shot callers pass fresh
    clones, long-lived callers their per-shard accumulators.  With
    ``label``, strand i is labelled ``f"{label}:s{i}"`` so a
    :class:`~repro.pram.backend.WorkerCrashError` names it."""
    parts = list(partials)
    slices = np.array_split(np.asarray(batch), len(parts))
    active = [i for i, part in enumerate(slices) if part.size]
    tasks = []
    for i in active:
        task = partial(_ingest_into, parts[i], slices[i])
        if label is not None:
            task.label = f"{label}:s{i}"
        tasks.append(task)
    for i, result in zip(active, fork_join(tasks, backend)):
        parts[i] = result
    return parts


def merge_partials(
    op: Any,
    partials: Sequence[Any],
    *,
    arity: int = 2,
    backend: Backend | None = None,
) -> Any:
    """Fold ``partials`` into ``op`` through a k-ary merge tree.

    Each round partitions the surviving partials into groups of
    ``arity`` and merges every group as one strand of a fork-join
    region; rounds repeat until one partial remains, which ``op``
    adopts with a final ``merge``.  Charged fold depth is
    O(log_arity S) rounds × (arity−1) merges, vs Θ(S) for the flat
    fold.  The partials may differ in history (fresh leaves of one
    batch, long-lived shard accumulators, or a mix): merge-order
    freedom makes the fold valid regardless.  No partials, no merges.
    Returns ``op``."""
    require_mergeable(op, "merge_partials")
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    parts = list(partials)
    if not parts:
        return op
    while len(parts) > 1:
        groups = [parts[i : i + arity] for i in range(0, len(parts), arity)]
        parts = fork_join([partial(_merge_group, g) for g in groups], backend)
    op.merge(parts[0])
    return op


def merge_tree_ingest(
    op: Any,
    batch: np.ndarray,
    *,
    shards: int,
    arity: int = 2,
    backend: Backend | None = None,
) -> Any:
    """Sharded ingest of ``batch`` into ``op``: :func:`shard_partials`
    over ``shards`` fresh clones, then :func:`merge_partials`.

    ``shards`` is capped at ``len(batch)`` and an empty batch returns
    ``op`` untouched, so no empty partial is ever built or folded.  The
    result is merge-equivalent to single-pass ingest — a sharded
    Count-Min equals the sum of its shard sketches, bit-identical across
    backends and shard counts — and differs only in the ledger's shape.
    Returns ``op``."""
    require_mergeable(op, "merge_tree_ingest")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    batch = np.asarray(batch)
    if batch.size == 0:
        return op
    # fresh_clone pickles the populated op: take one, copy it S times.
    blob = pickle.dumps(op.fresh_clone())
    clones = [pickle.loads(blob) for _ in range(min(shards, int(batch.size)))]
    parts = shard_partials(clones, batch, backend=backend)
    return merge_partials(op, parts, arity=arity, backend=backend)
