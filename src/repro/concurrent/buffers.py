"""Thread-local buffer sketches with bounded-staleness snapshots.

The concurrent-sketch fast path in the style of Fast Concurrent Data
Sketches (Rinberg et al., PAPERS.md): instead of serializing every
update into one shared synopsis, each ingest strand folds its slice of
the minibatch into a **private buffer sketch** (an ``op.fresh_clone()``
taken once per buffer — the same mergeable-summaries property that
licenses sharded ingest and the k-ary merge tree), through the same
fused ingest step the minibatch driver runs
(:class:`~repro.engine.fusion.FusedIngestPlan`).  A buffer that reaches
its fill mark is **flushed**: merged into the global operator under a
short lock and reset in place to its empty state, after which a fresh
epoch is published to a shared
:class:`~repro.concurrent.epoch.SnapshotStore`.  Queries read published
snapshots only, so they never block the ingest path and never observe a
half-merged buffer.

The price of never blocking is **bounded staleness** instead of
batch-boundary exactness (docs/architecture.md, "Consistency model"):

* with ``buffer_items=B`` and ``threads=T``, every buffer flushes at
  ``max(1, B // T)`` pending items and strands slice their input so a
  buffer never overshoots that mark, so the *total* unflushed backlog
  never exceeds B items;
* every published snapshot therefore reflects every ingested item
  except at most B buffered ones — the ε-staleness envelope the
  fuzzer's ``staleness`` relation checks (the answer must lie within
  the oracle envelope of the flushed multiset, which trails the full
  stream by at most B items);
* :meth:`ConcurrentIngestor.sync` flushes every buffer and publishes,
  after which the global state *is* the exact fold of everything
  ingested — bit-identical to serial ingest for the linear sketches
  (CMS/CSK), envelope-equivalent for the MG family, exactly as in the
  merge algebra (tests/test_merge_algebra.py).

Strand execution rides the fork-join machinery of
:mod:`repro.pram.backend`: a persistent
:class:`~repro.pram.backend.ThreadBackend` by default (buffered mode —
one long-lived pool, one strand per buffer), or any other backend; a
:class:`~repro.pram.backend.SerialBackend` makes the whole schedule
deterministic, which is what the fuzz relation and the charged-work
columns of benchmark E19 run under.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.concurrent.epoch import Snapshot, SnapshotStore
from repro.engine.fusion import FusedIngestPlan
from repro.observability.metrics import REGISTRY
from repro.pram.backend import Backend, ThreadBackend, fork_join
from repro.pram.plan import PreparedBatch

__all__ = ["LocalBuffer", "ConcurrentIngestor"]

# Buffer-flush metrics (catalog: docs/observability.md).
_M_FLUSHES = REGISTRY.counter(
    "repro_buffer_flush_total",
    "Thread-local buffer sketches flushed into global state",
    labels=("reason",),
)
_M_FLUSH_ITEMS = REGISTRY.counter(
    "repro_buffer_flush_items_total",
    "Stream items carried by flushed buffer sketches",
)


class LocalBuffer:
    """One strand's private buffer: its own operator copies, the one
    fused ingest step over them, and the pending-item count since the
    last flush.

    The copies are ``fresh_clone()`` results taken once, at construction,
    and kept for the buffer's lifetime.  Once a flush has merged them
    into the global operators, :meth:`reset` restores each in place to
    the empty state captured at construction (``load_state``).  Equal
    hashes and the RNG are kept across that restore, so the
    :class:`~repro.engine.fusion.FusedIngestPlan` over the copies never
    restacks its kernel.

    Buffers are single-owner by construction — strand ``i`` is the only
    writer of buffer ``i`` — so local ingest takes no lock at all; only
    the flush (merge into the global operators) synchronizes.
    """

    def __init__(self, operators: Mapping[str, Any], record: bool = False) -> None:
        self._record = record
        self.ops = {name: op.fresh_clone() for name, op in operators.items()}
        self._empty = {name: op.state_dict() for name, op in self.ops.items()}
        self._plan = FusedIngestPlan(self.ops)
        self.pending = 0
        #: Items this buffer has flushed over its lifetime.
        self.flushed = 0
        #: The buffered slices, in arrival order (``record`` only).
        self.slices: list[np.ndarray] = []
        # Starting from a restore means the captured empty states share
        # no array with the copies that will ingest.
        self._restore_empty()

    def _restore_empty(self) -> None:
        for name, op in self.ops.items():
            op.load_state(self._empty[name])

    def ingest(self, part: np.ndarray) -> None:
        """Fold one slice into every buffer sketch: one
        :class:`~repro.pram.plan.PreparedBatch`, one fused step."""
        if part.size == 0:
            return
        self._plan.execute(PreparedBatch(part))
        if self._record:
            self.slices.append(part)
        self.pending += int(part.size)

    def drain(self) -> np.ndarray:
        """The buffered items as one array (``record`` only) — what a
        flush is about to hand the global state."""
        if not self.slices:
            return np.empty(0, dtype=np.int64)
        return self.slices[0] if len(self.slices) == 1 else np.concatenate(self.slices)

    def reset(self) -> None:
        """Empty the operator copies in place, zero pending — called
        after a flush adopted this buffer's state."""
        self._restore_empty()
        self.flushed += self.pending
        self.pending = 0
        self.slices = []


class ConcurrentIngestor:
    """Per-strand buffer sketches over a shared global operator set.

    Parameters
    ----------
    operators:
        Named *mergeable* operators with a state codec
        (``fresh_clone`` + ``merge`` + ``state_dict``/``load_state``) —
        exactly the registry's ``concurrent`` capability
        (docs/architecture.md).  These are the live global objects
        queries must never block.
    buffer_items:
        The staleness bound B: total unflushed items across all
        buffers never exceeds B, so every published snapshot trails
        the ingested stream by at most B items.
    threads:
        Number of buffer strands (clamped to ``buffer_items`` so the
        bound survives tiny B).  Each strand owns one
        :class:`LocalBuffer` with fill mark
        ``max(1, buffer_items // threads)``.
    backend:
        Fork-join backend for the ingest strands.  Default: one
        persistent :class:`~repro.pram.backend.ThreadBackend` sized to
        ``threads`` (buffered mode).  Pass a
        :class:`~repro.pram.backend.SerialBackend` for a fully
        deterministic schedule (fuzzing, charged-work benchmarking).
    snapshots:
        The shared :class:`~repro.concurrent.epoch.SnapshotStore` to
        publish into; built over ``operators`` when omitted.
    record_flushes:
        Keep the flushed slices (in flush order) so a checker can
        reconstruct exactly which multiset each epoch covers — the
        fuzz ``staleness`` relation and E19's envelope audit turn this
        on; production ingest leaves it off.
    """

    def __init__(
        self,
        operators: Mapping[str, Any],
        *,
        buffer_items: int,
        threads: int = 2,
        backend: Backend | None = None,
        snapshots: SnapshotStore | None = None,
        record_flushes: bool = False,
    ) -> None:
        if not operators:
            raise ValueError("need at least one operator")
        if buffer_items < 1:
            raise ValueError(f"buffer_items must be >= 1, got {buffer_items}")
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        for name, op in operators.items():
            for required in ("fresh_clone", "merge", "state_dict", "load_state"):
                if not hasattr(op, required):
                    raise TypeError(
                        f"operator {name!r} ({type(op).__name__}) has no "
                        f"{required}(); buffered concurrent ingest needs "
                        "mergeable synopses with a state codec (the "
                        "registry's 'concurrent' capability)"
                    )
        self.operators = dict(operators)
        self.buffer_items = int(buffer_items)
        self.threads = min(int(threads), self.buffer_items)
        #: Per-buffer fill mark; T buffers at this mark keep the total
        #: unflushed backlog at or below B.
        self.fill_mark = max(1, self.buffer_items // self.threads)
        self.backend = (
            backend
            if backend is not None
            else ThreadBackend(max_workers=self.threads, persistent=True)
        )
        self.snapshots = (
            snapshots if snapshots is not None else SnapshotStore(self.operators)
        )
        self._record = bool(record_flushes)
        self._buffers = [
            LocalBuffer(self.operators, record=self._record)
            for _ in range(self.threads)
        ]
        #: Serializes flushes (and the publish that follows a batch of
        #: them) against each other; local buffer ingest never takes it.
        self._flush_lock = threading.Lock()
        self.items_ingested = 0
        self.items_flushed = 0
        #: ``items_flushed`` as of the latest publish — what the
        #: current snapshot covers.
        self.published_items = 0
        self.flushes = 0
        self._flush_log: list[np.ndarray] = []

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.snapshots.epoch

    def pending_items(self) -> int:
        """Unflushed items across every buffer — always <= B."""
        return sum(buf.pending for buf in self._buffers)

    def flushed_stream(self) -> np.ndarray:
        """The flushed slices concatenated in flush order (requires
        ``record_flushes=True``) — the multiset the latest publishable
        state covers."""
        if not self._record:
            raise ValueError("construct with record_flushes=True")
        if not self._flush_log:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self._flush_log)

    # ------------------------------------------------------------------
    def _flush(self, buf: LocalBuffer, reason: str) -> None:
        """Merge one buffer into the global operators and reset it.
        Runs under the flush lock; callers are ingest strands (reason
        ``full``) or :meth:`sync` (reason ``sync``)."""
        if buf.pending == 0:
            return
        items = buf.pending
        with self._flush_lock:
            for name, op in self.operators.items():
                op.merge(buf.ops[name])
            if self._record:
                self._flush_log.append(buf.drain())
            self.items_flushed += items
            self.flushes += 1
        _M_FLUSHES.inc(reason=reason)
        _M_FLUSH_ITEMS.inc(items)
        buf.reset()

    def _strand(self, buf: LocalBuffer, part: np.ndarray) -> int:
        """One ingest strand: slice ``part`` so the buffer flushes the
        moment it reaches the fill mark — pending never overshoots, so
        the B-item staleness bound is an invariant, not an average."""
        done = 0
        while done < len(part):
            room = self.fill_mark - buf.pending
            take = part[done : done + room]
            buf.ingest(take)
            done += len(take)
            if buf.pending >= self.fill_mark:
                self._flush(buf, "full")
        return done

    def ingest(self, batch: np.ndarray | Sequence[int]) -> None:
        """Partition ``batch`` across the buffer strands, flushing any
        buffer that fills, then publish one fresh epoch if anything
        flushed.  Ingest never waits on readers; readers never see a
        half-merged flush (they hold published snapshots only)."""
        batch = np.asarray(batch)
        if batch.size == 0:
            return
        parts = [p for p in np.array_split(batch, self.threads) if p.size]
        before = self.flushes
        tasks = [
            (lambda b=buf, p=part: self._strand(b, p))
            for buf, part in zip(self._buffers, parts)
        ]
        fork_join(tasks, self.backend)
        self.items_ingested += int(batch.size)
        if self.flushes != before:
            self._publish()

    def _publish(self) -> int:
        with self._flush_lock:
            covered = self.items_flushed
            epoch = self.snapshots.publish(items=covered)
            self.published_items = covered
        return epoch

    def sync(self) -> int:
        """Flush every buffer and publish: the resulting epoch covers
        *everything* ingested so far — the exact serial fold by the
        merge algebra (bit-identical for linear sketches).  Must not
        run concurrently with :meth:`ingest` (both are coordinator
        verbs; the strands inside one ``ingest`` call are the only
        true concurrency).  Returns the new epoch."""
        for buf in self._buffers:
            self._flush(buf, "sync")
        return self._publish()

    # ------------------------------------------------------------------
    def read(self) -> Snapshot:
        return self.snapshots.read()

    def query(self, fn: Callable[[Snapshot], Any]) -> tuple[int, Any]:
        """Seqlock query against the latest published snapshot — see
        :meth:`repro.concurrent.epoch.SnapshotStore.query`."""
        return self.snapshots.query(fn)

    def close(self) -> None:
        """Release the persistent thread pool, if this ingestor owns
        one."""
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()
