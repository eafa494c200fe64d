"""Frozen copies of the shard-and-fold code that the one-leaf, one-fold
``repro.engine.mergetree`` replaced.

Copies, code verbatim and docstrings dropped, of the leaf phase
(``shard_partials`` pickling one ``fresh_clone`` and unpickling it
inside every strand), the standalone
tree fold ``refold_partials`` with ``merge_partials`` adopting its head,
``merge_tree_ingest`` as their composition, and the unsupervised path of
``ElasticShardedIngestor`` (its own per-shard leaf strand, then
``refold_partials`` on ``rescale`` / ``sync``).  The pin tests in
``tests/test_mergetree_pin.py`` hold the live code to these: the same
state bytes, the same ``(work, depth)`` and the same ledger trace.
"""

from __future__ import annotations

import pickle
from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.pram.backend import Backend, fork_join

__all__ = [
    "FrozenElasticIngestor",
    "merge_partials",
    "merge_tree_ingest",
    "refold_partials",
    "shard_partials",
]


def _leaf_task(clone_blob: bytes, shard: np.ndarray) -> Any:
    op = pickle.loads(clone_blob)
    op.ingest(shard)
    return op


def _merge_group(group: Sequence[Any]) -> Any:
    head = group[0]
    for other in group[1:]:
        head.merge(other)
    return head


def _require_mergeable(op: Any, caller: str) -> None:
    for required in ("fresh_clone", "merge"):
        if not hasattr(op, required):
            raise TypeError(
                f"{type(op).__name__} has no {required}(); {caller} needs "
                "a mergeable synopsis (fresh_clone + merge)"
            )


def shard_partials(
    op: Any,
    batch: np.ndarray,
    *,
    shards: int,
    backend: Backend | None = None,
) -> list[Any]:
    _require_mergeable(op, "shard_partials")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    batch = np.asarray(batch)
    clone_blob = pickle.dumps(op.fresh_clone())
    parts = [part for part in np.array_split(batch, shards) if part.size]
    tasks = [partial(_leaf_task, clone_blob, part) for part in parts]
    return fork_join(tasks, backend)


def refold_partials(
    partials: Sequence[Any],
    *,
    arity: int = 2,
    backend: Backend | None = None,
) -> Any:
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    parts = list(partials)
    if not parts:
        return None
    while len(parts) > 1:
        groups = [parts[i : i + arity] for i in range(0, len(parts), arity)]
        tasks = [partial(_merge_group, group) for group in groups]
        parts = fork_join(tasks, backend)
    return parts[0]


def merge_partials(
    op: Any,
    partials: Sequence[Any],
    *,
    arity: int = 2,
    backend: Backend | None = None,
) -> Any:
    _require_mergeable(op, "merge_partials")
    head = refold_partials(partials, arity=arity, backend=backend)
    if head is not None:
        op.merge(head)
    return op


def merge_tree_ingest(
    op: Any,
    batch: np.ndarray,
    *,
    shards: int,
    arity: int = 2,
    backend: Backend | None = None,
) -> Any:
    parts = shard_partials(op, batch, shards=shards, backend=backend)
    return merge_partials(op, parts, arity=arity, backend=backend)


def _shard_task_fast(op: Any, shard: np.ndarray) -> Any:
    op.ingest(shard)
    return op


class FrozenElasticIngestor:
    """The unsupervised ingest → ``rescale`` → ``sync`` sequence of the
    elastic sharded ingestor, without metrics, events or supervision."""

    def __init__(
        self,
        op: Any,
        *,
        shards: int,
        backend: Backend | None = None,
        arity: int = 2,
        label: str | None = None,
    ) -> None:
        self.op = op
        self.backend = backend
        self.arity = int(arity)
        self.label = label or type(op).__name__
        self._partials: list[Any] = [op.fresh_clone() for _ in range(shards)]
        self._dirty = False
        self.batches = 0

    def ingest(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch)
        bid = self.batches
        self.batches += 1
        if batch.size == 0:
            return
        slices = np.array_split(batch, len(self._partials))
        active = [i for i, part in enumerate(slices) if part.size]
        if not active:
            return
        self._dirty = True
        tasks = []
        for i in active:
            task = partial(_shard_task_fast, self._partials[i], slices[i])
            task.label = f"{self.label}:b{bid}:s{i}"
            tasks.append(task)
        results = fork_join(tasks, self.backend)
        for i, result in zip(active, results):
            self._partials[i] = result

    def rescale(self, new_shards: int) -> None:
        if new_shards == len(self._partials):
            return
        self._fold()
        self._partials = [self.op.fresh_clone() for _ in range(new_shards)]

    def _fold(self) -> int:
        if not self._dirty:
            return 0
        head = refold_partials(self._partials, arity=self.arity, backend=self.backend)
        if head is not None:
            self.op.merge(head)
        folded = len(self._partials)
        self._partials = [self.op.fresh_clone() for _ in range(folded)]
        self._dirty = False
        return folded

    def sync(self) -> Any:
        self._fold()
        return self.op
