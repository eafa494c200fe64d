"""Execution backends for fork-join task sets.

The cost model (``repro.pram.cost``) is backend-independent: a set of
strands charged sum-work / max-depth regardless of *where* they run.
This module supplies two ways to actually execute them:

* :class:`SerialBackend` — run strands in program order on the calling
  thread.  This is the default everywhere.  It is also the fastest
  vehicle on the two-CPU host the benchmarks run on: threads contend
  for CPython's GIL, and the process pool pays a fork and a pickle of
  every strand's arguments per call.
* :class:`ThreadBackend` — run strands on a ``ThreadPoolExecutor``.
  Useful when strands release the GIL (large NumPy kernels) or on a
  true multicore host; provided so the task graph demonstrably *is*
  parallelizable, per DESIGN.md's substitution note.
* :class:`ProcessPoolBackend` — run strands on a
  ``ProcessPoolExecutor``: a real GIL-free vehicle on multicore hosts.
  Tasks must be picklable (``functools.partial`` over module-level
  functions — closures won't cross the process boundary); each worker
  runs its task under a private ledger and ships the
  :class:`~repro.pram.cost.Cost` back with the result.

All backends produce identical results and identical ledger charges.

Sharded ingest of a mergeable synopsis is built on top, in
:mod:`repro.engine.mergetree`: one fork-join region of leaf strands
over the shard partials, then a k-ary tree fold of the partials.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Protocol, Sequence

from repro.observability.metrics import REGISTRY
from repro.pram.cost import (
    _LEDGER,
    Cost,
    CostLedger,
    current_label,
    current_ledger,
    labeled,
    tracking,
)

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessPoolBackend",
    "WorkerCrashError",
    "fork_join",
]

Task = Callable[[], Any]

# Shard/worker failure accounting (catalog: docs/observability.md).
# Shared with repro.resilience.reshard, which records the supervised
# shard-level kinds ("shard_crash"/"shard_stall") into the same family.
_M_SHARD_FAILURES = REGISTRY.counter(
    "repro_shard_failures_total",
    "Shard/worker task failures seen by backends and shard supervision",
    labels=("kind",),
)


class WorkerCrashError(RuntimeError):
    """A process-pool worker died mid-task (``BrokenProcessPool``).

    The bare ``concurrent.futures`` traceback says nothing about *which*
    strand was lost; this wrapper carries the failing tasks' labels (set
    by callers via ``task.label``) and positional indices so supervisors
    like :class:`repro.resilience.reshard.ElasticShardedIngestor` can
    replay exactly the lost work.
    """

    def __init__(self, labels: Sequence[str], cause: BaseException) -> None:
        self.labels = tuple(labels)
        self.cause = cause
        lost = ", ".join(self.labels)
        super().__init__(
            f"process worker died; {len(self.labels)} task(s) lost: {lost} "
            f"({type(cause).__name__}: {cause})"
        )


def task_label(task: Task, index: int) -> str:
    """The human-readable label of a strand: ``task.label`` when the
    caller attached one, positional otherwise."""
    return str(getattr(task, "label", None) or f"task {index}")


def _run_with_child_ledger(task: Task) -> tuple[Any, Cost]:
    child = CostLedger()
    token = _LEDGER.set(child)
    try:
        result = task()
    finally:
        _LEDGER.reset(token)
    return result, child.snapshot()


def _run_strand(task: Task, record: bool, label: str | None) -> tuple[Any, CostLedger]:
    """One :func:`fork_join` strand: ``task`` under a fresh ledger
    (recording when ``record``) and the forking context's operator
    ``label``.  Returns the result and that ledger, which pickles back
    from a process worker; the backend's own child ledger sees nothing."""
    with tracking(CostLedger(record=record)) as child, labeled(label):
        result = task()
    return result, child


class Backend(Protocol):
    """Anything that can execute a batch of independent strands."""

    def run_all(self, tasks: Sequence[Task]) -> list[tuple[Any, Cost]]:
        """Execute every task; return (result, cost) per task."""
        ...


class SerialBackend:
    """Run strands sequentially on the calling thread."""

    def run_all(self, tasks: Sequence[Task]) -> list[tuple[Any, Cost]]:
        return [_run_with_child_ledger(t) for t in tasks]


class ThreadBackend:
    """Run strands on a shared thread pool.

    Each strand gets its own :class:`CostLedger` installed in its
    thread's context, so charges never race; the fork-join merge happens
    on the caller's thread afterwards.

    The default mode spins up a fresh ``ThreadPoolExecutor`` per
    :meth:`run_all` call — simple and leak-proof for one-shot fork-join
    batches.  **Buffered mode** (``persistent=True``) keeps one
    long-lived pool across calls, which is what the thread-local
    buffered ingest path (:class:`repro.concurrent.ConcurrentIngestor`)
    wants: the same worker threads service every minibatch, so buffer
    strands aren't paying thread spawn/teardown on each batch.  A
    persistent backend must be :meth:`close`\\ d (or used as a context
    manager) when its owner is done.
    """

    def __init__(self, max_workers: int = 4, persistent: bool = False) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.persistent = persistent
        self._pool: ThreadPoolExecutor | None = None

    def run_all(self, tasks: Sequence[Task]) -> list[tuple[Any, Cost]]:
        if not tasks:
            return []
        if self.persistent:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            return list(self._pool.map(_run_with_child_ledger, tasks))
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(_run_with_child_ledger, tasks))

    def close(self) -> None:
        """Shut down the persistent pool, if one was ever started.
        No-op (and safe to call repeatedly) otherwise."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ThreadBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class ProcessPoolBackend:
    """Run strands on a process pool (true parallelism, no GIL).

    Every task is executed in a worker process under a private
    :class:`CostLedger` (installed by :func:`_run_with_child_ledger`,
    which pickles over together with the task), so the returned costs
    are exactly what the strand charged — bit-identical to running the
    same task under :class:`SerialBackend`.

    Tasks must be picklable.  A single task runs inline: there is
    nothing to parallelize, and skipping the pool spares the fork.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers

    def run_all(self, tasks: Sequence[Task]) -> list[tuple[Any, Cost]]:
        if not tasks:
            return []
        if len(tasks) == 1:
            return [_run_with_child_ledger(tasks[0])]
        workers = self.max_workers or len(tasks)
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(_run_with_child_ledger, t) for t in tasks]
            results: list[tuple[Any, Cost]] = []
            lost: list[str] = []
            cause: BaseException | None = None
            for i, future in enumerate(futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    # A dead worker breaks the whole pool: every not-yet
                    # -finished future raises the same bare error.  Keep
                    # walking so the wrapper names *all* lost strands.
                    lost.append(task_label(tasks[i], i))
                    cause = exc
            if lost:
                for _ in lost:
                    _M_SHARD_FAILURES.inc(kind="worker_lost")
                raise WorkerCrashError(lost, cause)  # type: ignore[arg-type]
            return results


def fork_join(tasks: Sequence[Task], backend: Backend | None = None) -> list[Any]:
    """Execute independent zero-arg strands and fold them into the
    ambient ledger as a ``parallel()`` region would: sum work, max
    depth, each strand's operator attribution and, when the ledger
    records, one strand trace per task.

    >>> from repro.pram.cost import tracking, charge
    >>> with tracking() as led:
    ...     out = fork_join([lambda: charge(3, 5), lambda: charge(4, 2)])
    >>> (led.work, led.depth)
    (7, 5)
    """
    backend = backend if backend is not None else SerialBackend()
    parent = current_ledger()
    record, label = parent is not None and parent.recording, current_label()
    strands = []
    for i, task in enumerate(tasks):
        strand = partial(_run_strand, task, record, label)
        strand.label = task_label(task, i)  # type: ignore[attr-defined]
        strands.append(strand)
    outcomes = [result for result, _ in backend.run_all(strands)]
    if parent is not None:
        parent.merge_strands([child for _, child in outcomes])
    return [result for result, _ in outcomes]
