"""Discretized-stream (minibatch) pipeline driver.

Section 1: the system divides the input stream into minibatches; the
algorithm processes each minibatch (in parallel, with no sequential
ingestion bottleneck) and updates a single shared data structure;
queries can be answered after any minibatch.

:class:`MinibatchDriver` wires a stream to one or more operators,
tracks the work/depth charged per batch on a fresh ledger, and records
wall-clock throughput — the numbers benchmark E14 reports.

Every batch goes through one per-batch step,
:class:`repro.engine.graph.DataflowGraph`: one shared
:class:`~repro.pram.plan.PreparedBatch` feeds the fused multi-operator
kernel (:mod:`repro.engine.fusion`), whose states and charges equal a
per-operator ``ingest_prepared``/``ingest`` loop in mapping order
(asserted against a hand-written reference in
``tests/test_engine_graph.py``).  Handing the driver an
``engine_backend`` instead fans the operators out as fork-join strands
over Serial/Thread/Process backends — charged sum-work / max-depth, so
per-batch depth reflects the parallel schedule rather than the
sequential visit order.

Resilience (docs/resilience.md): the driver optionally runs under a
fault-tolerant regime — a seeded :class:`~repro.resilience.FaultInjector`
mutates deliveries (duplicates are deduplicated by batch id, poisoned
payloads and retry-exhausted batches land in a bounded dead-letter
queue, crashes surface as :class:`~repro.resilience.InjectedCrash`), a
:class:`~repro.resilience.CheckpointManager` snapshots the full
driver/operator/ledger state every K processed batches, and per-sketch
invariant audits gate every recovery (and, with ``audit_every``, every
few batches), rolling back to the last checkpoint when they fail.

Elastic sharding (docs/resilience.md): constructed with ``shards=S``,
the driver routes every *mergeable* operator's ingest through an
:class:`~repro.resilience.ElasticShardedIngestor` — S parallel shard
strands per batch, folded on demand — and the shard count becomes a
runtime quantity: :meth:`rescale` (or a ``rescale_at`` schedule)
transitions it between batches via the checkpoint → k-ary re-fold →
repartition → resume protocol, and shard faults are replayed or
degraded per the ingestor's supervision rules.  Reshard hooks observe
every transition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.concurrent.epoch import Snapshot, SnapshotStore
from repro.engine.graph import DataflowGraph
from repro.observability.metrics import REGISTRY
from repro.observability.spans import span
from repro.pram.backend import Backend
from repro.pram.cost import CostLedger, current_ledger, tracking
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import (
    DeadLetterQueue,
    Delivery,
    FaultInjector,
    InjectedCrash,
    PoisonBatchError,
    RetryPolicy,
    TransientIngestError,
    validate_batch,
)
from repro.resilience.invariants import InvariantViolation, audit_operators
from repro.resilience.reshard import ElasticShardedIngestor, ReshardEvent
from repro.resilience.state import expect, header

__all__ = [
    "StreamOperator",
    "BatchReport",
    "MinibatchDriver",
    "QuarantineEvent",
]

# Driver metrics (catalog: docs/observability.md).
_M_BATCHES = REGISTRY.counter(
    "repro_batches_processed_total", "Minibatches fully processed"
)
_M_ITEMS = REGISTRY.counter(
    "repro_items_ingested_total", "Stream elements ingested across operators"
)
_M_WORK = REGISTRY.counter(
    "repro_work_charged_total", "Ledger work charged while processing batches"
)
_M_BATCH_SECONDS = REGISTRY.histogram(
    "repro_batch_seconds", "Wall-clock seconds per processed minibatch"
)
_M_BATCH_DEPTH = REGISTRY.gauge(
    "repro_batch_depth_last", "Ledger depth charged by the most recent batch"
)
_M_RETRIES = REGISTRY.counter(
    "repro_retries_total", "Transient ingest failures that were retried"
)
_M_DUPLICATES = REGISTRY.counter(
    "repro_duplicates_skipped_total", "Duplicate deliveries dropped by batch id"
)
_M_QUARANTINES = REGISTRY.counter(
    "repro_quarantines_total", "Audit failures that forced a rollback"
)
_M_RECOVERIES = REGISTRY.counter(
    "repro_recoveries_total", "Checkpoint recoveries performed"
)


class StreamOperator(Protocol):
    """Anything that can absorb a minibatch of stream elements.

    Every operator in :mod:`repro.core` and :mod:`repro.baselines`
    satisfies this protocol; core operators additionally expose
    ``ingest_prepared(plan)``, the shared-prework fast path the driver
    prefers (see :mod:`repro.pram.plan`).
    """

    def ingest(self, batch: np.ndarray) -> None:
        """Incorporate one minibatch into the operator's state."""
        ...

    def extend(self, batch: np.ndarray) -> None:
        """Alias of :meth:`ingest` (sequential-API compatibility)."""
        ...


@dataclass
class BatchReport:
    """Per-minibatch accounting produced by the driver."""

    index: int
    size: int
    work: int
    depth: int
    seconds: float
    query_results: dict[str, Any] = field(default_factory=dict)
    #: Source batch id (resilient runs; equals ``index`` otherwise).
    batch_id: int | None = None
    #: Fault the delivery carried, if any ("duplicate", "truncate", …).
    fault: str | None = None
    #: Ingest attempts it took (> 1 means transient failures + retries).
    attempts: int = 1

    @property
    def work_per_item(self) -> float:
        return self.work / self.size if self.size else 0.0


@dataclass(frozen=True)
class QuarantineEvent:
    """One audit failure that forced a rollback to the last checkpoint."""

    batch_index: int
    trigger_batch_id: int
    detail: str
    replayed: int


class MinibatchDriver:
    """Run a stream through operators, one minibatch at a time.

    Parameters
    ----------
    operators:
        Named operators; all receive every minibatch (a fan-out
        pipeline, like registering several continuous queries).
    query_every:
        If set, ``queries`` callbacks run after every ``query_every``
        batches — modelling the paper's interleaved updates/queries.
    queries:
        Named zero-arg callables evaluated at query points; results land
        in the corresponding :class:`BatchReport`.
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector`; its faulty
        delivery sequence replaces the pristine one.
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy` for transient
        ingest failures; operator state is rolled back between attempts.
    dead_letter:
        Bounded :class:`~repro.resilience.DeadLetterQueue` for batches
        that are poison or exhaust their retries.  Auto-created when a
        fault injector or retry policy is supplied.
    checkpoint_manager:
        Optional :class:`~repro.resilience.CheckpointManager`; driver +
        operator + ledger state is snapshotted every ``manager.every``
        processed batches, and :meth:`recover` restores from it.
    audit_every:
        If set, run every operator's ``check_invariants()`` after each
        ``audit_every`` processed batches; a violation quarantines the
        offending batch and rolls back to the last checkpoint.
    engine_backend:
        Optional :class:`~repro.pram.backend.Backend`.  Without one,
        each batch runs through one fused
        :class:`~repro.engine.fusion.FusedIngestPlan` pass.  With one,
        the per-batch step runs every operator as one fork-join strand,
        so per-batch depth is the max over operator strands instead of
        their sum.  Process backends require every operator to
        round-trip ``pickle`` (the worker's mutated copy is re-adopted
        via ``state_dict``/``load_state`` when available, by
        replacement otherwise).
    shards:
        If set, route every mergeable operator (``fresh_clone`` +
        ``merge``) through an
        :class:`~repro.resilience.ElasticShardedIngestor` with this
        initial shard count; the remaining operators go through the
        per-batch step.  At least one operator must be mergeable.
    shard_backend / shard_arity / shard_timeout / shard_retry:
        Forwarded to each ingestor (execution backend, fold arity,
        post-hoc stall threshold, replay policy).  A ``fault_injector``
        with ``shard_crash``/``shard_stall`` rates is shared with the
        ingestors automatically.
    rescale_at:
        ``{batch_index: new_shards}`` schedule applied at the start of
        the matching batch — the declarative form of :meth:`rescale`.
    min_shards:
        Degradation floor forwarded to each ingestor.
    concurrent_queries:
        When True, the driver owns a
        :class:`~repro.concurrent.epoch.SnapshotStore` and publishes a
        fresh epoch on every batch boundary — the point where operator
        state is the exact serial fold of everything ingested
        (docs/architecture.md, "Consistency model").  Readers on other
        threads use :meth:`snapshot` / :attr:`epoch` and never block
        the ingest path.  Incompatible with ``shards=``: shard partials
        fold lazily (at query/audit points), so mid-stream batch
        boundaries there do not carry total state.
    """

    def __init__(
        self,
        operators: Mapping[str, StreamOperator],
        *,
        query_every: int | None = None,
        queries: Mapping[str, Callable[[], Any]] | None = None,
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        dead_letter: DeadLetterQueue | None = None,
        checkpoint_manager: CheckpointManager | None = None,
        audit_every: int | None = None,
        engine_backend: Backend | None = None,
        shards: int | None = None,
        shard_backend: Backend | None = None,
        shard_arity: int = 2,
        shard_timeout: float | None = None,
        shard_retry: RetryPolicy | None = None,
        rescale_at: Mapping[int, int] | None = None,
        min_shards: int = 1,
        concurrent_queries: bool = False,
    ) -> None:
        if not operators:
            raise ValueError("need at least one operator")
        if query_every is not None and query_every < 1:
            raise ValueError("query_every must be >= 1")
        if audit_every is not None and audit_every < 1:
            raise ValueError("audit_every must be >= 1")
        self.operators = dict(operators)
        self.query_every = query_every
        self.queries = dict(queries or {})
        self.reports: list[BatchReport] = []
        self._batch_index = 0
        #: Cumulative charged cost across all processed batches —
        #: checkpointed and restored with the rest of the driver state.
        self.ledger = CostLedger()

        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        if dead_letter is None and (fault_injector or retry_policy):
            dead_letter = DeadLetterQueue()
        self.dead_letter = dead_letter
        self.checkpoint_manager = checkpoint_manager
        self.audit_every = audit_every

        if concurrent_queries and shards is not None:
            raise ValueError(
                "concurrent_queries=True is incompatible with shards= "
                "(shard partials fold lazily, so batch boundaries do not "
                "carry total state)"
            )
        #: Items folded across all processed batches — the prefix length
        #: each published epoch covers.
        self._items_seen = 0
        self.snapshots = (
            SnapshotStore(self.operators, name="driver")
            if concurrent_queries
            else None
        )

        self._processed_ids: set[int] = set()
        #: After-batch observers (see :meth:`add_hook`) — runtime-only
        #: probes, deliberately excluded from :meth:`state_dict`.
        self._hooks: list[Callable[["MinibatchDriver", BatchReport], None]] = []
        self._since_checkpoint: list[tuple[int, np.ndarray]] = []
        self.duplicates_skipped = 0
        self.retries = 0
        self.quarantines: list[QuarantineEvent] = []
        self.recoveries = 0

        # ---- elastic sharding --------------------------------------
        self.rescale_at = {int(k): int(v) for k, v in (rescale_at or {}).items()}
        if any(v < 1 for v in self.rescale_at.values()):
            raise ValueError("rescale_at shard counts must be >= 1")
        self._pending_shards: int | None = None
        self._shard_ingestors: dict[str, ElasticShardedIngestor] = {}
        self._reshard_hooks: list[
            Callable[["MinibatchDriver", str, ReshardEvent], None]
        ] = []
        #: Every (operator name, transition) observed, in batch order.
        self.reshard_events: list[tuple[str, ReshardEvent]] = []
        self._event_cursors: dict[str, int] = {}
        if shards is None:
            if self.rescale_at:
                raise ValueError("rescale_at requires shards=")
        else:
            if shards < 1:
                raise ValueError(f"shards must be >= 1, got {shards}")
            mergeable = {
                name: op
                for name, op in self.operators.items()
                if hasattr(op, "fresh_clone") and hasattr(op, "merge")
            }
            if not mergeable:
                raise ValueError(
                    "shards= needs at least one mergeable operator "
                    "(fresh_clone + merge); got none"
                )
            supervised = fault_injector is not None or shard_timeout is not None
            if self.dead_letter is None and supervised:
                self.dead_letter = DeadLetterQueue()
            for name, op in mergeable.items():
                self._shard_ingestors[name] = ElasticShardedIngestor(
                    op,
                    shards=shards,
                    backend=shard_backend,
                    arity=shard_arity,
                    retry=shard_retry,
                    timeout=shard_timeout,
                    injector=fault_injector,
                    dead_letter=self.dead_letter,
                    min_shards=min_shards,
                    label=name,
                )
                self._event_cursors[name] = 0
        #: The per-batch step over every operator not sharded above.
        rest = {
            name: op
            for name, op in self.operators.items()
            if name not in self._shard_ingestors
        }
        self._step = DataflowGraph(
            rest if self._shard_ingestors else self.operators,
            backend=engine_backend,
        )

    def add_hook(
        self, hook: Callable[["MinibatchDriver", BatchReport], None]
    ) -> None:
        """Register an after-batch observer.

        Hooks run synchronously after each fully processed minibatch,
        as ``hook(driver, report)`` — the point where operator state is
        consistent, so a hook may snapshot ``state_dict()`` mid-stream
        (the fuzzer's checkpoint/restore probes, docs/testing.md).
        Hooks are runtime wiring, not state: they are not captured by
        :meth:`state_dict` and survive :meth:`load_state` untouched.
        """
        self._hooks.append(hook)

    # ------------------------------------------------------------------
    # Concurrent-query mode
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The latest published epoch (0 until the first batch lands).
        Requires ``concurrent_queries=True``."""
        if self.snapshots is None:
            raise ValueError(
                "driver has no snapshot store; construct with "
                "concurrent_queries=True"
            )
        return self.snapshots.epoch

    def snapshot(self) -> Snapshot:
        """The latest published batch-boundary snapshot — safe to probe
        from any thread while the driver keeps ingesting.  Requires
        ``concurrent_queries=True``."""
        if self.snapshots is None:
            raise ValueError(
                "driver has no snapshot store; construct with "
                "concurrent_queries=True"
            )
        return self.snapshots.read()

    def add_reshard_hook(
        self, hook: Callable[["MinibatchDriver", str, ReshardEvent], None]
    ) -> None:
        """Register a reshard observer, called as ``hook(driver, name,
        event)`` once per operator transition (requested rescales and
        degradations alike), after the batch that triggered it.  Like
        batch hooks, reshard hooks are runtime wiring, not state."""
        self._reshard_hooks.append(hook)

    # ------------------------------------------------------------------
    # Elastic sharding
    # ------------------------------------------------------------------
    @property
    def sharded(self) -> bool:
        return bool(self._shard_ingestors)

    def shard_counts(self) -> dict[str, int]:
        """Current shard count per sharded operator."""
        return {name: ing.shards for name, ing in self._shard_ingestors.items()}

    def rescale(self, new_shards: int) -> None:
        """Request a transition to ``new_shards``, applied at the start
        of the *next* processed batch (shard count only ever changes on
        a batch boundary, so every batch runs under one topology)."""
        if not self._shard_ingestors:
            raise ValueError("driver is not sharded; construct with shards=")
        if new_shards < 1:
            raise ValueError(f"new_shards must be >= 1, got {new_shards}")
        self._pending_shards = int(new_shards)

    def _apply_pending_rescale(self) -> None:
        target, reason = self._pending_shards, "requested"
        if target is None:
            target = self.rescale_at.get(self._batch_index)
            reason = "scheduled"
        if target is None:
            return
        self._pending_shards = None
        for ing in self._shard_ingestors.values():
            ing.rescale(target, reason=reason, batch_index=self._batch_index)

    def _sync_shards(self) -> None:
        """Fold outstanding per-shard state into every base operator so
        queries / audits / snapshots see totals.  Fold costs charge the
        cumulative ledger."""
        if not self._shard_ingestors:
            return
        with tracking(self.ledger):
            for ing in self._shard_ingestors.values():
                ing.sync()

    def _drain_reshard_events(self) -> None:
        for name, ing in self._shard_ingestors.items():
            cursor = self._event_cursors[name]
            for event in ing.events[cursor:]:
                self.reshard_events.append((name, event))
                for hook in self._reshard_hooks:
                    hook(self, name, event)
            self._event_cursors[name] = len(ing.events)

    @property
    def _resilient(self) -> bool:
        return (
            self.fault_injector is not None
            or self.retry_policy is not None
            or self.dead_letter is not None
            or self.checkpoint_manager is not None
            or self.audit_every is not None
        )

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------
    def run(
        self,
        stream: np.ndarray | Sequence[Any],
        batch_size: int,
        *,
        max_batches: int | None = None,
    ) -> list[BatchReport]:
        """Feed ``stream`` through all operators in ``batch_size`` chunks.

        Returns the per-batch reports (also appended to ``.reports``).
        In resilient mode batch ids are ``start // batch_size``, already
        -processed ids are skipped (exactly-once across crash/replay),
        and faults from the injector are handled as documented above.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        stream = np.asarray(stream)
        chunks = (
            (start // batch_size, stream[start : start + batch_size])
            for start in range(0, len(stream), batch_size)
        )
        if not self._resilient:
            new_reports: list[BatchReport] = []
            for _, batch in chunks:
                if max_batches is not None and len(new_reports) >= max_batches:
                    break
                new_reports.append(self._process(batch))
            self.reports.extend(new_reports)
            self._sync_shards()
            return new_reports
        return self._run_resilient(chunks, max_batches)

    def _run_resilient(
        self,
        chunks,
        max_batches: int | None,
    ) -> list[BatchReport]:
        deliveries = (
            self.fault_injector.deliveries(chunks)
            if self.fault_injector is not None
            else (Delivery(batch_id, payload) for batch_id, payload in chunks)
        )
        new_reports: list[BatchReport] = []
        for delivery in deliveries:
            if max_batches is not None and len(new_reports) >= max_batches:
                break
            if delivery.fault == "crash":
                raise InjectedCrash(delivery.batch_id)
            if delivery.batch_id in self._processed_ids:
                self.duplicates_skipped += 1
                _M_DUPLICATES.inc()
                continue
            try:
                validate_batch(delivery.payload)
            except PoisonBatchError as exc:
                self._to_dead_letter(delivery, f"poison: {exc}", attempts=0)
                continue

            report = self._ingest_with_retries(delivery)
            if report is None:
                continue  # exhausted retries; already dead-lettered
            new_reports.append(report)
            self._processed_ids.add(delivery.batch_id)
            self.reports.append(report)
            self._since_checkpoint.append((delivery.batch_id, delivery.payload))

            if self.audit_every and self._batch_index % self.audit_every == 0:
                self._audit_or_quarantine(delivery)
            if self.checkpoint_manager is not None:
                saved = self.checkpoint_manager.maybe_save(
                    self.state_dict(), self._batch_index
                )
                if saved is not None:
                    self._since_checkpoint = []
        self._sync_shards()
        return new_reports

    # ------------------------------------------------------------------
    def _process(self, batch: np.ndarray, delivery: Delivery | None = None) -> BatchReport:
        # Charge into the caller's ambient ledger when one is installed
        # (so profiling/measuring a whole run sees the driver's work and
        # per-operator attribution); fall back to a private per-batch
        # ledger otherwise.  Either way the report carries this batch's
        # delta.
        ledger = current_ledger() or CostLedger()
        work0, depth0 = ledger.work, ledger.depth
        t0 = time.perf_counter()
        with tracking(ledger), span("driver.batch", "driver"):
            if self._shard_ingestors:
                # Pending rescales apply on the boundary, then mergeable
                # operators ingest through their (supervised when
                # configured) shard ingestors.
                self._apply_pending_rescale()
                for ing in self._shard_ingestors.values():
                    ing.ingest(batch, batch_id=self._batch_index)
            self._adopt_folded(self._step.execute(batch))
            if self.query_every and (self._batch_index + 1) % self.query_every == 0:
                # Queries run right after this block; fold shards now so
                # they see total state (and charge this batch).
                for ing in self._shard_ingestors.values():
                    ing.sync()
        elapsed = time.perf_counter() - t0
        work, depth = ledger.work - work0, ledger.depth - depth0
        _M_BATCHES.inc()
        _M_ITEMS.inc(int(len(batch)))
        _M_WORK.inc(work)
        _M_BATCH_SECONDS.observe(elapsed)
        _M_BATCH_DEPTH.set(depth)
        report = BatchReport(
            index=self._batch_index,
            size=int(len(batch)),
            work=work,
            depth=depth,
            seconds=elapsed,
            batch_id=delivery.batch_id if delivery else None,
            fault=delivery.fault if delivery else None,
        )
        self.ledger.charge(ledger.work, ledger.depth)
        if self.query_every and (self._batch_index + 1) % self.query_every == 0:
            report.query_results = {name: q() for name, q in self.queries.items()}
        self._batch_index += 1
        self._items_seen += int(len(batch))
        if self.snapshots is not None:
            # Batch boundary: operator state is the exact fold of the
            # first `_items_seen` items, so the published snapshot is
            # bit-identical to a serial fold of that prefix.
            self.snapshots.publish(items=self._items_seen)
        self._drain_reshard_events()
        for hook in self._hooks:
            hook(self, report)
        return report

    def _adopt_folded(self, folded: Mapping[str, Any]) -> None:
        """Re-adopt operators returned by the per-batch step.

        In-process execution mutates the driver's own operator objects
        (nothing to do); a process backend returns the worker's mutated
        copies, whose state is copied back — or, for operators without
        the state codec, swapped in wholesale (the step and the
        snapshot store read the same mapping, so both follow)."""
        for name, result in folded.items():
            op = self.operators[name]
            if result is op:
                continue
            if hasattr(op, "load_state") and hasattr(result, "state_dict"):
                op.load_state(result.state_dict())
            else:
                self.operators[name] = self._step.operators[name] = result

    def _ingest_with_retries(self, delivery: Delivery) -> BatchReport | None:
        """Process one delivery under the retry policy; ``None`` means the
        batch exhausted its retries and went to the dead-letter queue."""
        policy = self.retry_policy
        attempts_allowed = policy.max_attempts if policy else 1
        # Roll back operator state between attempts so a failed ingest
        # can never leave a half-applied batch behind.
        baseline = self._operator_states() if attempts_allowed > 1 else None
        last_error: Exception | None = None
        for attempt in range(attempts_allowed):
            try:
                if self.fault_injector is not None and (
                    self.fault_injector.should_fail_transiently(
                        delivery.batch_id, attempt
                    )
                ):
                    raise TransientIngestError(
                        f"injected transient failure, batch {delivery.batch_id} "
                        f"attempt {attempt}"
                    )
                report = self._process(delivery.payload, delivery)
                report.attempts = attempt + 1
                return report
            except InvariantViolation:
                raise
            except Exception as exc:  # noqa: BLE001 - retry boundary
                last_error = exc
                if baseline is not None:
                    self._restore_operator_states(baseline)
                if attempt + 1 < attempts_allowed:
                    self.retries += 1
                    _M_RETRIES.inc()
                    if policy is not None:
                        policy.backoff(attempt)
        self._to_dead_letter(
            delivery,
            f"retries exhausted: {last_error}",
            attempts=attempts_allowed,
        )
        return None

    def _to_dead_letter(self, delivery: Delivery, reason: str, attempts: int) -> None:
        if self.dead_letter is None:
            self.dead_letter = DeadLetterQueue()
        self.dead_letter.push(delivery.batch_id, delivery.payload, reason, attempts)

    # ------------------------------------------------------------------
    # Audits, quarantine, recovery
    # ------------------------------------------------------------------
    def audit(self) -> list[str]:
        """Run every operator's invariant check; raises
        :class:`~repro.resilience.InvariantViolation` on failure.
        Sharded operators fold first so the audit sees total state."""
        self._sync_shards()
        return audit_operators(self.operators)

    def _audit_or_quarantine(self, delivery: Delivery) -> None:
        try:
            self.audit()
            return
        except InvariantViolation as violation:
            manager = self.checkpoint_manager
            latest = manager.load_latest() if manager is not None else None
            if latest is None:
                raise  # fail-stop: nothing safe to roll back to
            # Quarantine the triggering batch; replay the rest of the
            # post-checkpoint suffix on top of the restored state.
            replay = [
                (bid, payload)
                for bid, payload in self._since_checkpoint
                if bid != delivery.batch_id
            ]
            quarantined = delivery
            self.load_state(latest["state"])
            self._to_dead_letter(quarantined, f"quarantined: {violation}", attempts=1)
            replayed = 0
            for bid, payload in replay:
                if bid in self._processed_ids:
                    continue
                report = self._process(payload, Delivery(bid, payload))
                self.reports.append(report)
                self._processed_ids.add(bid)
                self._since_checkpoint.append((bid, payload))
                replayed += 1
            _M_QUARANTINES.inc()
            self.quarantines.append(
                QuarantineEvent(
                    batch_index=self._batch_index,
                    trigger_batch_id=delivery.batch_id,
                    detail=str(violation),
                    replayed=replayed,
                )
            )
            self.audit()  # replay must restore a healthy state

    def recover(self, manager: CheckpointManager | None = None) -> int | None:
        """Restore driver + operator + ledger state from the latest
        intact checkpoint and audit every operator.

        Returns the batch index the checkpoint was taken at, or ``None``
        when no checkpoint exists (state untouched).  Rerunning ``run``
        over the same stream afterwards skips already-processed batch
        ids, so recovery is replay-safe.
        """
        manager = manager or self.checkpoint_manager
        if manager is None:
            raise ValueError("no checkpoint manager to recover from")
        latest = manager.load_latest()
        if latest is None:
            return None
        self.load_state(latest["state"])
        self.recoveries += 1
        _M_RECOVERIES.inc()
        self.audit()
        return int(latest["batch_index"])

    # ------------------------------------------------------------------
    # Checkpoint/restore
    # ------------------------------------------------------------------
    def _operator_states(self) -> dict[str, dict] | None:
        # Partials fold first so a base operator's state *is* its total
        # state — snapshots and rollback baselines stay self-contained.
        self._sync_shards()
        states: dict[str, dict] = {}
        for name, op in self.operators.items():
            save = getattr(op, "state_dict", None)
            if save is None:
                return None  # an opaque operator: no rollback possible
            states[name] = save()
        return states

    def _restore_operator_states(self, states: dict[str, dict]) -> None:
        for name, state in states.items():
            self.operators[name].load_state(state)
            ing = self._shard_ingestors.get(name)
            if ing is not None:
                # The snapshot holds the synced total; any partials
                # accumulated since (e.g. by a half-applied attempt)
                # must not fold back in on top of it.
                ing.discard_partials()

    def state_dict(self) -> dict:
        """Full driver snapshot: progress, reports, cumulative ledger,
        every operator's state, and the dead-letter queue."""
        operators = self._operator_states()
        if operators is None:
            missing = [
                name
                for name, op in self.operators.items()
                if not hasattr(op, "state_dict")
            ]
            raise TypeError(
                f"operators {missing} do not support state_dict(); "
                "checkpointing needs every operator to be serializable"
            )
        return {
            **header("minibatch_driver"),
            "batch_index": self._batch_index,
            "processed_ids": sorted(self._processed_ids),
            "duplicates_skipped": self.duplicates_skipped,
            "retries": self.retries,
            "ledger": self.ledger.state_dict(),
            "reports": [
                {
                    "index": r.index,
                    "size": r.size,
                    "work": r.work,
                    "depth": r.depth,
                    "seconds": r.seconds,
                    "query_results": r.query_results,
                    "batch_id": r.batch_id,
                    "fault": r.fault,
                    "attempts": r.attempts,
                }
                for r in self.reports
            ],
            "operators": operators,
            "dead_letter": self.dead_letter.state_dict() if self.dead_letter else None,
            "shards": (
                {name: ing.shards for name, ing in self._shard_ingestors.items()}
                if self._shard_ingestors
                else None
            ),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        expect(state, "minibatch_driver")
        self._batch_index = int(state["batch_index"])
        self._processed_ids = {int(i) for i in state["processed_ids"]}
        self.duplicates_skipped = int(state["duplicates_skipped"])
        self.retries = int(state["retries"])
        self.ledger.load_state(state["ledger"])
        self.reports = [
            BatchReport(
                index=int(r["index"]),
                size=int(r["size"]),
                work=int(r["work"]),
                depth=int(r["depth"]),
                seconds=float(r["seconds"]),
                query_results=dict(r["query_results"]),
                batch_id=None if r["batch_id"] is None else int(r["batch_id"]),
                fault=r["fault"],
                attempts=int(r["attempts"]),
            )
            for r in state["reports"]
        ]
        saved_ops = state["operators"]
        if saved_ops.keys() != self.operators.keys():
            raise ValueError(
                f"checkpoint operators {sorted(saved_ops)} do not match "
                f"driver operators {sorted(self.operators)}"
            )
        self._restore_operator_states(saved_ops)
        if state["dead_letter"] is not None:
            if self.dead_letter is None:
                self.dead_letter = DeadLetterQueue()
            self.dead_letter.load_state(state["dead_letter"])
        # Pre-elastic snapshots have no "shards" key; current drivers
        # restore each ingestor's topology (the bases were restored with
        # total state above, so repartitioning is fresh-clone only).
        shard_counts = state.get("shards") or {}
        for name, ing in self._shard_ingestors.items():
            ing.discard_partials()
            if name in shard_counts:
                ing.set_shards(int(shard_counts[name]))
        self._since_checkpoint = []
        self._items_seen = sum(r.size for r in self.reports)
        if self.snapshots is not None:
            # Concurrent readers must never see pre-restore state again.
            self.snapshots.publish(items=self._items_seen)

    # ------------------------------------------------------------------
    # Aggregate statistics over all processed batches.
    # ------------------------------------------------------------------
    def total_items(self) -> int:
        return sum(r.size for r in self.reports)

    def total_work(self) -> int:
        return sum(r.work for r in self.reports)

    def max_depth(self) -> int:
        return max((r.depth for r in self.reports), default=0)

    def mean_work_per_item(self) -> float:
        items = self.total_items()
        return self.total_work() / items if items else 0.0

    def throughput_items_per_sec(self) -> float:
        secs = sum(r.seconds for r in self.reports)
        return self.total_items() / secs if secs > 0 else float("inf")
