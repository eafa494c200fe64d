"""Elastic resharding with live state migration and shard supervision.

Sharded ingest (:mod:`repro.engine.mergetree`) made ingest parallel and
the merge algebra made the shard count a *mathematical* free variable
(merge-order freedom); this module makes it an *operational* one: a
supervised, fault-tolerant, runtime quantity.
:class:`ElasticShardedIngestor` owns a base synopsis plus one
long-lived partial synopsis per shard, so that at any instant

    total state  =  base  ⊕  partial_0 ⊕ … ⊕ partial_{S−1}

(⊕ = ``merge``).  Every protocol step below is just a re-association of
that expression, which mergeable summaries license unconditionally
([ACH+13]; the QPOPSS partitioning and Gulisano et al.'s live multiway
aggregation in PAPERS.md motivate doing it *without* stopping ingest).

**Rescale protocol** (``rescale(S_new)``): coordinated checkpoint of the
current partials → k-ary fold into the base through
:func:`repro.engine.mergetree.merge_partials` (O(log_k S) depth, the one
tree fold) → repartition into ``S_new`` fresh clones → resume.
Unsupervised ingest is :func:`repro.engine.mergetree.shard_partials`
over the live partials.  State-equivalent to never having
rescaled; the ``reshard`` differential relation in ``repro.fuzz``
audits exactly this against a fixed-shard run for every mergeable
operator.

**Shard supervision**: when a :class:`~repro.resilience.faults.FaultInjector`
or a timeout is attached, each shard task runs against a *pickled blob*
of its partial — the blob is the shard's per-batch checkpoint.  A task
that crashes (``shard_crash``), hangs past its timeout (``shard_stall``),
or dies with its worker (``WorkerCrashError``) loses only its private
copy: the supervisor replays the same blob + slice under the
:class:`~repro.resilience.faults.RetryPolicy`.  A shard that exhausts
its retries is *degraded*, never aborted: its slice is re-ingested
unsharded into the base (zero data loss), its last-good partial folds
into the base, the shard retires (down to ``min_shards``), and the
event is recorded as a metric + an accounting-only dead-letter record.

Stall detection is post-hoc — the task measures its own elapsed time
and the supervisor compares it to ``timeout`` after the join — so it
works identically on Serial / Thread / Process backends; it models the
"answer arrived too late to use" failure rather than preemption.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from repro.engine.mergetree import merge_partials, require_mergeable, shard_partials
from repro.observability.metrics import REGISTRY
from repro.observability.spans import span
from repro.pram.backend import Backend, WorkerCrashError, fork_join
from repro.resilience.faults import (
    DeadLetterQueue,
    FaultInjector,
    RetryPolicy,
)
from repro.resilience.state import StateError, expect, header

__all__ = [
    "ElasticShardedIngestor",
    "ReshardEvent",
    "ShardCrashError",
    "ShardFailure",
    "ShardStallError",
]

# Reshard metrics (catalog: docs/observability.md).  The failures
# counter is the same family ProcessPoolBackend records "worker_lost"
# into — get-or-create registration returns the shared instance.
_M_RESHARDS = REGISTRY.counter(
    "repro_reshards_total",
    "Completed shard-count transitions",
    labels=("reason",),
)
_M_RESHARD_SECONDS = REGISTRY.histogram(
    "repro_reshard_seconds", "Wall-clock latency of rescale transitions"
)
_M_SHARDS_CURRENT = REGISTRY.gauge(
    "repro_shards_current", "Current shard count of elastic ingestors"
)
_M_SHARD_FAILURES = REGISTRY.counter(
    "repro_shard_failures_total",
    "Shard/worker task failures seen by backends and shard supervision",
    labels=("kind",),
)


class ShardCrashError(RuntimeError):
    """Injected hard crash inside a shard task (half-ingested state is
    discarded with the task's private clone)."""


class ShardStallError(RuntimeError):
    """A shard task's result arrived after its timeout and was voided."""


@dataclass(frozen=True)
class ReshardEvent:
    """One completed shard-count transition."""

    batch_index: int | None
    old_shards: int
    new_shards: int
    seconds: float
    reason: str  # "requested" | "degraded"
    folded: int  # partials folded into the base during the transition


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard-task attempt, and what the supervisor did."""

    batch_index: int
    shard: int
    kind: str  # "shard_crash" | "shard_stall" | "worker_lost" | "error"
    attempt: int
    action: str  # "replay" | "degrade"
    detail: str


def _shard_task(
    blob: bytes,
    shard: np.ndarray,
    injected_fault: str | None,
    stall_seconds: float,
) -> dict[str, Any]:
    """Supervised strand: replay-safe ingest of one slice against a
    pickled partial checkpoint.

    Never raises — crashes (injected or real) are reported in-band so
    the supervisor can tell *which* shard failed even on backends whose
    exceptions lose task identity.  The measured ``elapsed`` is what
    post-hoc stall detection compares against the timeout."""
    start = time.perf_counter()
    try:
        op = pickle.loads(blob)
        if injected_fault == "shard_stall" and stall_seconds > 0:
            time.sleep(stall_seconds)
        if injected_fault == "shard_crash":
            # Die mid-slice: half the items are ingested into the
            # private copy, then the task keels over.  The supervisor
            # discards this attempt wholesale — the blob still holds the
            # pre-batch state, so the replay double-counts nothing.
            half = max(1, len(shard) // 2)
            op.ingest(np.asarray(shard)[:half])
            raise ShardCrashError("injected shard crash mid-ingest")
        op.ingest(shard)
    except Exception as exc:  # noqa: BLE001 — report in-band, see docstring
        kind = "shard_crash" if isinstance(exc, ShardCrashError) else "error"
        return {
            "ok": False,
            "kind": kind,
            "detail": f"{type(exc).__name__}: {exc}",
            "elapsed": time.perf_counter() - start,
        }
    return {"ok": True, "op": op, "elapsed": time.perf_counter() - start}


class ElasticShardedIngestor:
    """Sharded ingest whose shard count is a supervised runtime quantity.

    Parameters
    ----------
    op:
        A mergeable synopsis (``fresh_clone`` + ``merge``); it becomes
        the *base* that owns all folded state.  Queries against ``op``
        are only total after :meth:`sync`.
    shards:
        Initial shard count (>= 1).
    backend / arity:
        Execution backend for the fork-join regions and fold arity for
        the k-ary re-fold (both per-batch and rescale folds).
    retry:
        :class:`RetryPolicy` bounding shard-task replays; defaults to
        ``RetryPolicy()`` (3 attempts).
    timeout:
        Post-hoc stall threshold in seconds; ``None`` disables stall
        detection.  Setting it (or ``injector``) switches ingest to the
        supervised checkpoint-blob path.
    injector:
        Optional :class:`FaultInjector` supplying seeded
        ``shard_crash`` / ``shard_stall`` plans.
    dead_letter:
        DLQ receiving accounting-only records of degraded shards
        (payload is empty — the data was re-ingested, not dropped).
        Created lazily on first degrade when omitted.
    min_shards:
        Degradation floor: the shard count never drops below this.
    """

    def __init__(
        self,
        op: Any,
        *,
        shards: int,
        backend: Backend | None = None,
        arity: int = 2,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        injector: FaultInjector | None = None,
        dead_letter: DeadLetterQueue | None = None,
        min_shards: int = 1,
        label: str | None = None,
    ) -> None:
        require_mergeable(op, "elastic sharded ingest")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if min_shards < 1 or min_shards > shards:
            raise ValueError(
                f"need 1 <= min_shards <= shards, got {min_shards}/{shards}"
            )
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.op = op
        self.backend = backend
        self.arity = int(arity)
        self.retry = retry or RetryPolicy()
        self.timeout = timeout
        self.injector = injector
        self.dead_letter = dead_letter
        self.min_shards = int(min_shards)
        self.label = label or type(op).__name__
        self._reset(shards)
        self.batches = 0
        self.degraded_slices = 0
        #: Completed transitions / failed attempts, in order; drained by
        #: the driver's reshard hooks (cursor-based, never cleared here).
        self.events: list[ReshardEvent] = []
        self.failures: list[ShardFailure] = []

    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self._partials)

    @property
    def supervised(self) -> bool:
        """Whether ingest runs on the checkpoint-blob replay path."""
        return self.injector is not None or self.timeout is not None

    # ------------------------------------------------------------------
    def ingest(self, batch: np.ndarray, *, batch_id: int | None = None) -> None:
        """Shard ``batch`` across the current partials (one fork-join
        region) under supervision when enabled."""
        batch = np.asarray(batch)
        bid = self.batches if batch_id is None else int(batch_id)
        self.batches += 1
        if batch.size == 0:  # degenerate: nothing to shard, no strands
            return
        self._dirty = True
        if not self.supervised:
            self._partials = shard_partials(
                self._partials,
                batch,
                backend=self.backend,
                label=f"{self.label}:b{bid}",
            )
            return
        # Slices stay aligned to shard indices; S > len(batch) leaves
        # trailing slices empty and those shards idle this batch.
        slices = np.array_split(batch, len(self._partials))
        active = [i for i, part in enumerate(slices) if part.size]
        self._ingest_supervised(bid, slices, active)

    def _ingest_supervised(
        self, bid: int, slices: list[np.ndarray], active: list[int]
    ) -> None:
        """Checkpoint-blob path: each active shard's partial is pickled
        once per batch; every attempt (first try and replays alike) runs
        against that blob, so a failed attempt loses nothing."""
        blobs = {i: pickle.dumps(self._partials[i]) for i in active}
        pending = list(active)
        attempt = 0
        while pending and attempt < self.retry.max_attempts:
            tasks = []
            for i in pending:
                fault = (
                    self.injector.shard_fault(bid, i, attempt)
                    if self.injector is not None
                    else None
                )
                stall = self.injector.stall_seconds if self.injector else 0.0
                task = partial(_shard_task, blobs[i], slices[i], fault, stall)
                task.label = f"{self.label}:b{bid}:s{i}"
                tasks.append(task)
            try:
                outs = fork_join(tasks, self.backend)
            except WorkerCrashError as exc:
                # The pool is gone and per-task outcomes with it: every
                # pending shard counts as lost and replays from its blob.
                # (run_all already bumped the worker_lost counter.)
                for i in pending:
                    self._record_failure(bid, i, "worker_lost", attempt, str(exc))
                attempt += 1
                self.retry.backoff(attempt - 1)
                continue
            still_pending: list[int] = []
            for i, out in zip(pending, outs):
                if out["ok"] and (
                    self.timeout is None or out["elapsed"] <= self.timeout
                ):
                    self._partials[i] = out["op"]
                    continue
                if out["ok"]:
                    kind = "shard_stall"
                    detail = (
                        f"result after {out['elapsed']:.4f}s > "
                        f"timeout {self.timeout:.4f}s; voided"
                    )
                else:
                    kind, detail = out["kind"], out["detail"]
                _M_SHARD_FAILURES.inc(kind=kind)
                self._record_failure(bid, i, kind, attempt, detail)
                still_pending.append(i)
            pending = still_pending
            attempt += 1
            if pending and attempt < self.retry.max_attempts:
                self.retry.backoff(attempt - 1)
        if pending:
            self._degrade(bid, slices, pending, attempt)

    def _record_failure(
        self, bid: int, shard: int, kind: str, attempt: int, detail: str
    ) -> None:
        action = "replay" if attempt + 1 < self.retry.max_attempts else "degrade"
        self.failures.append(
            ShardFailure(
                batch_index=bid,
                shard=shard,
                kind=kind,
                attempt=attempt,
                action=action,
                detail=detail,
            )
        )

    def _degrade(
        self, bid: int, slices: list[np.ndarray], failed: list[int], attempts: int
    ) -> None:
        """Retries exhausted: absorb each failed shard instead of
        aborting the batch.  The slice is re-ingested unsharded into the
        base (zero data loss — only the parallelism is lost), the
        shard's last-good partial folds into the base, and the shard
        retires down to ``min_shards``."""
        start = time.perf_counter()
        old = len(self._partials)
        if self.dead_letter is None:
            self.dead_letter = DeadLetterQueue()
        # Descending index order so retirements never shift a pending
        # index out from under us.
        for i in sorted(failed, reverse=True):
            self.op.ingest(slices[i])
            self.degraded_slices += 1
            last_kind = next(
                (f.kind for f in reversed(self.failures) if f.shard == i), "?"
            )
            if len(self._partials) > self.min_shards:
                self.op.merge(self._partials[i])
                del self._partials[i]
                note = "shard retired"
            else:
                note = f"at min_shards={self.min_shards}, shard kept"
            # Accounting-only record: payload is empty because the slice
            # was re-ingested above, not dropped.
            self.dead_letter.push(
                bid,
                np.empty(0, dtype=np.int64),
                reason=(
                    f"shard {i} degraded after {attempts} attempt(s) "
                    f"({last_kind}); slice of {len(slices[i])} item(s) "
                    f"re-ingested unsharded; {note}"
                ),
                attempts=attempts,
            )
        seconds = time.perf_counter() - start
        self.events.append(
            ReshardEvent(
                batch_index=bid,
                old_shards=old,
                new_shards=len(self._partials),
                seconds=seconds,
                reason="degraded",
                folded=old - len(self._partials),
            )
        )
        _M_RESHARDS.inc(reason="degraded")
        _M_RESHARD_SECONDS.observe(seconds)
        _M_SHARDS_CURRENT.set(len(self._partials))

    # ------------------------------------------------------------------
    def rescale(
        self,
        new_shards: int,
        *,
        reason: str = "requested",
        batch_index: int | None = None,
    ) -> ReshardEvent | None:
        """Transition to ``new_shards``: checkpoint → k-ary re-fold →
        repartition → resume.

        The current partials fold into the base through
        :func:`merge_partials` (the coordinated checkpoint is the
        folded base itself — after this line the whole state lives in
        one synopsis), then ``new_shards`` fresh clones take over.
        No-op when the count is unchanged.  Returns the recorded
        :class:`ReshardEvent`, or ``None`` for the no-op."""
        if new_shards < 1:
            raise ValueError(f"new_shards must be >= 1, got {new_shards}")
        new_shards = int(new_shards)
        if new_shards == len(self._partials):
            return None
        with span("reshard.rescale", "resilience"):
            start = time.perf_counter()
            old = len(self._partials)
            folded = self._fold()
            self.min_shards = min(self.min_shards, new_shards)
            self._reset(new_shards)
            seconds = time.perf_counter() - start
        event = ReshardEvent(
            batch_index=batch_index,
            old_shards=old,
            new_shards=new_shards,
            seconds=seconds,
            reason=reason,
            folded=folded,
        )
        self.events.append(event)
        _M_RESHARDS.inc(reason=reason)
        _M_RESHARD_SECONDS.observe(seconds)
        return event

    def _fold(self) -> int:
        """Fold every dirty partial into the base; returns how many
        partials carried state into the fold."""
        if not self._dirty:
            return 0
        merge_partials(self.op, self._partials, arity=self.arity, backend=self.backend)
        folded = len(self._partials)
        self._reset(folded)
        return folded

    def _reset(self, shards: int) -> None:
        """Install ``shards`` empty partials; nothing is outstanding."""
        self._partials = [self.op.fresh_clone() for _ in range(shards)]
        self._dirty = False
        _M_SHARDS_CURRENT.set(shards)

    def sync(self) -> Any:
        """Fold outstanding partial state into the base so queries see
        the total; the shard count is unchanged.  Returns the base."""
        self._fold()
        return self.op

    def discard_partials(self) -> None:
        """Drop unfolded per-shard state *without* folding it — rollback
        support for drivers that restore the base from a pre-attempt
        snapshot and must not let a half-applied batch's partials leak
        back in."""
        self._reset(len(self._partials))

    def set_shards(self, shards: int) -> None:
        """Restore-time repartition: install ``shards`` fresh partials
        *without* folding — the base is assumed to already hold the
        total state (as after :meth:`load_state`)."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._fold()
        self._reset(int(shards))
        self.min_shards = min(self.min_shards, int(shards))

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Serializable snapshot: the synced base plus shard topology.

        Partials are always folded first, so the snapshot never needs to
        carry per-shard state — restore repartitions fresh."""
        self.sync()
        if not hasattr(self.op, "state_dict"):
            raise TypeError(
                f"{type(self.op).__name__} has no state_dict(); cannot "
                "checkpoint an elastic ingestor over it"
            )
        return {
            **header("elastic_sharded_ingestor"),
            "shards": len(self._partials),
            "min_shards": self.min_shards,
            "batches": self.batches,
            "degraded_slices": self.degraded_slices,
            "op": self.op.state_dict(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot; a topology the
        constructor would reject (``shards < 1`` or ``min_shards``
        outside ``[1, shards]``) raises :class:`StateError` before
        anything is touched."""
        expect(state, "elastic_sharded_ingestor")
        shards, min_shards = int(state["shards"]), int(state["min_shards"])
        if not 1 <= min_shards <= shards:
            raise StateError(
                f"corrupt shard topology: need 1 <= min_shards <= shards, "
                f"got {min_shards}/{shards}"
            )
        self.op.load_state(state["op"])
        self.batches = int(state["batches"])
        self.degraded_slices = int(state["degraded_slices"])
        self.min_shards = min_shards
        self._reset(shards)
