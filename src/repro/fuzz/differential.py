"""The differential executor: one fuzz case, every applicable relation.

Given a registry spec, a :class:`~repro.fuzz.plan.ScenarioPlan`, and
its synthesized stream, :func:`run_case` runs the operator through

``oracle``
    the reference run (plan batching, plain ingest) against
    brute-force ground truth (:mod:`repro.fuzz.oracles`);
``rebatch``
    split-batch vs one-batch — probe-identical for most operators,
    envelope-bounded for the block/ensemble summaries whose internal
    boundaries move with batching;
``prepared``
    shared-prework ingest (``ingest_prepared`` over one
    :class:`~repro.pram.plan.PreparedBatch` per batch) vs plain
    ``ingest`` — exact, for every preparable operator;
``fused``
    the stacked multi-operator kernel
    (:class:`~repro.engine.fusion.FusedIngestPlan` over the same
    per-batch plans) vs the serial ``ingest_prepared`` mirror —
    state-exact *and* ledger-exact: both runs execute under tracking
    ledgers and their (work, depth) totals must be identical, for
    every operator with the ``fused`` capability;
``mergetree``
    shard + k-ary merge-tree fold vs serial ingest — state-exact for
    linear sketches, probe-exact for exact counters, envelope-bounded
    for the capacity-bounded (MG/Space-Saving) family, per the
    merge-algebra rules (tests/test_merge_algebra.py);
``reshard``
    elastic sharded ingest through
    :class:`~repro.resilience.ElasticShardedIngestor` under a seeded
    2→64→4 rescale schedule (checkpoint → k-ary re-fold → repartition
    at two batch boundaries) vs the fixed reference run — and, on
    fault-bearing plans, with seeded ``shard_crash``/``shard_stall``
    supervision (replay + degrade) active; exactness follows the same
    mergeable classification as ``mergetree``;
``checkpoint``
    a mid-stream driver hook snapshots ``state_dict`` after the plan's
    checkpoint batch, round-trips it through the canonical state codec,
    restores into a fresh build, and replays the suffix — must land
    bit-identically on the full run's state;
``faults``
    the resilient :class:`~repro.stream.minibatch.MinibatchDriver`
    under the plan's seeded fault schedule vs a mirror that replays the
    injector's *effective* delivery sequence (dedup by batch id, poison
    dead-lettered, transients retried) — the faulty path must converge
    to the clean path's state;
``staleness``
    the thread-local buffered concurrent ingest path
    (:class:`~repro.concurrent.ConcurrentIngestor`, B derived from the
    plan's batch size) vs the bounded-staleness contract: after every
    batch the published snapshot must cover all but at most B ingested
    items, snapshot answers must lie within the oracle envelope of the
    covered (≤ B items stale) multiset, and after a final ``sync()``
    the global state must match the reference — bit-identically for
    the linear sketches (``STALENESS_SYNC_EXACT``), within the oracle
    envelope for the rest of the mergeable family.

Which relations apply is driven by the spec's capability flags
(``mergeable`` → mergetree, ``preparable`` → prepared, ``state_dict``
presence → checkpoint, ``concurrent`` → staleness) plus the exactness
classification below.  The classification is keyed by registry *name*;
an unknown name falls back to envelope checks — conservative, never
vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.concurrent.buffers import ConcurrentIngestor
from repro.engine.fusion import FusedIngestPlan
from repro.engine.mergetree import merge_tree_ingest
from repro.pram.backend import SerialBackend
from repro.pram.cost import CostLedger, tracking
from repro.pram.plan import PreparedBatch
from repro.resilience.faults import (
    FaultInjector,
    PoisonBatchError,
    RetryPolicy,
    validate_batch,
)
from repro.resilience.reshard import ElasticShardedIngestor
from repro.resilience.state import dumps, loads
from repro.stream.minibatch import MinibatchDriver

from .oracles import check_oracle
from .plan import ScenarioPlan

__all__ = [
    "Violation",
    "run_case",
    "classify_like",
    "REBATCH_ENVELOPE",
    "REBATCH_STATE_EXACT",
    "SHARD_PROBE_EXACT",
    "SHARD_STATE_EXACT",
    "STALENESS_SYNC_EXACT",
    "RELATIONS",
]


#: Operators whose answers legitimately depend on batch boundaries:
#: every windowed synopsis whose internal block structure follows the
#: minibatch grid (a whole-stream batch larger than the window takes
#: the reset-and-replay path), plus the per-processor MG ensembles and
#: ensemble-fed heavy hitters.  For these the rebatch relation holds
#: only up to the accuracy envelope.  Everything else must answer
#: probe-identically under any batching.
REBATCH_ENVELOPE = {
    "BasicSlidingFrequency",
    "DDMDriftDetector",
    "EWMADriftDetector",
    "IndependentMGEnsemble",
    "InfiniteHeavyHitters",
    "ParallelBasicCounter",
    "ParallelFrequencyEstimator",
    "ParallelWindowedMean",
    "ParallelWindowedSum",
    "SlidingHeavyHitters",
    "SpaceEfficientSlidingFrequency",
    "WindowedCountMin",
    "WindowedHistogram",
    "WindowedLpNorm",
    "WindowedVariance",
    "WorkEfficientSlidingFrequency",
}

#: Rebatch-probe-exact operators whose *canonical state* is also
#: independent of batching (no batch-boundary bookkeeping at all).
REBATCH_STATE_EXACT = {
    "DyadicCountMin",
    "ExponentialHistogramMean",
    "ExponentialHistogramVariance",
    "MisraGriesSummary",
    "ParallelCountMin",
    "ParallelCountSketch",
    "SBBC",
    "SequentialMisraGries",
}

#: Mergeable operators whose shard + merge-tree fold answers exactly
#: like serial ingest (linear sketches and exact counters); the rest of
#: the mergeable family (MG/Space-Saving) re-applies eviction at merge
#: time and is only envelope-equivalent.
SHARD_PROBE_EXACT = {
    "ExactCounters",
    "ParallelCountMin",
    "ParallelCountSketch",
    "SequentialCountMin",
}

#: Shard-probe-exact operators that are additionally state-exact
#: (cell-wise-additive merges over identical geometry).
SHARD_STATE_EXACT = {
    "ParallelCountMin",
    "ParallelCountSketch",
}

#: Concurrent-capable operators whose post-``sync()`` global state must
#: be bit-identical to the serial fold (cell-wise-additive merges over
#: identical geometry — the same family as ``SHARD_STATE_EXACT``); the
#: MG family re-applies eviction at merge time and is checked against
#: the oracle envelope instead.
STALENESS_SYNC_EXACT = {
    "ParallelCountMin",
    "ParallelCountSketch",
}

_CLASSIFICATIONS = (
    REBATCH_ENVELOPE,
    REBATCH_STATE_EXACT,
    SHARD_PROBE_EXACT,
    SHARD_STATE_EXACT,
    STALENESS_SYNC_EXACT,
)

#: Every relation :func:`run_case` can run (the valid values for its
#: ``relations`` filter and the CLI's ``--relations``).
RELATIONS = (
    "oracle",
    "rebatch",
    "prepared",
    "fused",
    "mergetree",
    "reshard",
    "checkpoint",
    "faults",
    "staleness",
)


def classify_like(name: str, like: str) -> None:
    """Give ``name`` the exactness classification of operator ``like``
    in every relation — how the mutation smoke tests make a deliberately
    broken subclass face the same assertions as its parent."""
    for bucket in _CLASSIFICATIONS:
        if like in bucket:
            bucket.add(name)
        else:
            bucket.discard(name)


def declassify(name: str) -> None:
    """Remove ``name`` from every exactness classification (test cleanup)."""
    for bucket in _CLASSIFICATIONS:
        bucket.discard(name)


@dataclass(frozen=True)
class Violation:
    """One relation the operator failed on this case."""

    relation: str
    detail: str


def _batches(stream: np.ndarray, batch_size: int) -> list[np.ndarray]:
    return [
        stream[start : start + batch_size]
        for start in range(0, len(stream), batch_size)
    ]


def _mirror_ingest(op, batches) -> None:
    """Replay the driver's per-batch ingest path: one shared
    :class:`PreparedBatch` for preparable operators, plain ``ingest``
    otherwise (the driver's fused step is state- and charge-identical
    to this)."""
    prepared = hasattr(op, "ingest_prepared")
    for batch in batches:
        if prepared:
            op.ingest_prepared(PreparedBatch(batch))
        else:
            op.ingest(batch)


def _state(op) -> bytes | None:
    if hasattr(op, "state_dict"):
        return dumps(op.state_dict())
    return None


def _probe(spec, op):
    return spec.probe(op) if spec.probe is not None else None


@dataclass(frozen=True)
class _Run:
    """An operator plus its canonical state *as of the end of ingest*.

    The state snapshot is taken before any probing, because queries may
    legitimately mutate internal bookkeeping (lazy window expiry);
    comparing post-probe states would flag that as a divergence.
    """

    op: object
    state: bytes | None

    @classmethod
    def of(cls, op) -> "_Run":
        return cls(op, _state(op))


def _compare(
    spec, relation: str, reference: _Run, variant: _Run, *, state_exact: bool
) -> list[Violation]:
    out: list[Violation] = []
    if state_exact and reference.state != variant.state:
        out.append(Violation(relation, "canonical state bytes differ"))
    ref_probe, var_probe = _probe(spec, reference.op), _probe(spec, variant.op)
    if ref_probe != var_probe:
        out.append(
            Violation(
                relation,
                f"probe mismatch: reference {ref_probe!r} vs variant {var_probe!r}",
            )
        )
    return out


def _envelope(spec, relation: str, variant, stream, plan) -> list[Violation]:
    return [Violation(relation, msg) for msg in check_oracle(spec, variant, stream, plan)]


# ----------------------------------------------------------------------
# Relations
# ----------------------------------------------------------------------
def _relation_rebatch(spec, plan, stream, reference: _Run) -> list[Violation]:
    one = spec.build()
    one.ingest(stream)
    if spec.name in REBATCH_ENVELOPE:
        return _envelope(spec, "rebatch", one, stream, plan)
    return _compare(
        spec, "rebatch", reference, _Run.of(one),
        state_exact=spec.name in REBATCH_STATE_EXACT,
    )


def _relation_prepared(spec, plan, stream, reference: _Run) -> list[Violation]:
    prepped = spec.build()
    for batch in _batches(stream, plan.batch_size):
        prepped.ingest_prepared(PreparedBatch(batch))
    # Shared prework is a pure wall-clock optimization: state (when
    # serializable) and answers must match plain ingest exactly.
    return _compare(
        spec, "prepared", reference, _Run.of(prepped),
        state_exact=hasattr(prepped, "state_dict"),
    )


def _relation_fused(spec, plan, stream, reference: _Run) -> list[Violation]:
    """Fused kernel vs serial shared-prework mirror, state- and
    ledger-exact.

    Both runs execute under their own tracking ledger; fusion is a pure
    wall-clock optimization, so the charged (work, depth) totals must
    match bit-for-bit alongside the canonical state and probes."""
    fused_op = spec.build()
    fusion = FusedIngestPlan({spec.name: fused_op})
    fused_ledger = CostLedger()
    with tracking(fused_ledger):
        for batch in _batches(stream, plan.batch_size):
            fusion.execute(PreparedBatch(batch))
    serial_op = spec.build()
    serial_ledger = CostLedger()
    with tracking(serial_ledger):
        for batch in _batches(stream, plan.batch_size):
            serial_op.ingest_prepared(PreparedBatch(batch))
    out = _compare(
        spec, "fused", _Run.of(serial_op), _Run.of(fused_op),
        state_exact=hasattr(fused_op, "state_dict"),
    )
    fused_cost = (fused_ledger.work, fused_ledger.depth)
    serial_cost = (serial_ledger.work, serial_ledger.depth)
    if fused_cost != serial_cost:
        out.append(
            Violation(
                "fused",
                f"ledger totals diverge: fused {fused_cost} "
                f"vs serial {serial_cost}",
            )
        )
    return out


def _relation_mergetree(spec, plan, stream, reference: _Run) -> list[Violation]:
    tree = merge_tree_ingest(
        spec.build(), stream, shards=plan.shards, arity=plan.arity
    )
    if spec.name in SHARD_PROBE_EXACT:
        return _compare(
            spec, "mergetree", reference, _Run.of(tree),
            state_exact=spec.name in SHARD_STATE_EXACT,
        )
    return _envelope(spec, "mergetree", tree, stream, plan)


#: The elastic schedule every reshard case runs: scale far out, then
#: back in, exercising both the fold-heavy shrink and the fan-out grow.
_RESHARD_SCHEDULE = (2, 64, 4)


def _relation_reshard(spec, plan, stream, reference: _Run) -> list[Violation]:
    batches = _batches(stream, plan.batch_size)
    start, wide, narrow = _RESHARD_SCHEDULE
    # Supervision (blob-checkpointed shard tasks, replay, degrade) costs
    # a pickle per active shard per batch, so it rides only on plans
    # that already pay for fault handling; rescale equivalence itself is
    # checked on every mergeable case.  stall_seconds > timeout so an
    # injected stall is always caught; a *false* stall (healthy task on
    # a slow machine) only triggers replay/degrade, which preserves the
    # same exactness class.
    injector = timeout = None
    if plan.faults.any():
        injector = FaultInjector(
            plan.fault_seed,
            shard_crash=0.06,
            shard_stall=0.03,
            stall_seconds=0.004,
        )
        timeout = 0.002
    elastic = spec.build()
    ingestor = ElasticShardedIngestor(
        elastic,
        shards=start,
        arity=plan.arity,
        retry=RetryPolicy(max_attempts=3),
        timeout=timeout,
        injector=injector,
        label=spec.name,
    )
    n = len(batches)
    up_at, down_at = n // 3, max(n // 3 + 1, (2 * n) // 3)
    for i, batch in enumerate(batches):
        if i == up_at:
            ingestor.rescale(wide, batch_index=i)
        if i == down_at:
            ingestor.rescale(narrow, batch_index=i)
        ingestor.ingest(batch, batch_id=i)
    # Short streams still execute the whole schedule (the transitions
    # themselves must be harmless on empty/absent suffixes).
    if n <= up_at:
        ingestor.rescale(wide)
    if n <= down_at:
        ingestor.rescale(narrow)
    ingestor.sync()
    if spec.name in SHARD_PROBE_EXACT:
        return _compare(
            spec, "reshard", reference, _Run.of(elastic),
            state_exact=spec.name in SHARD_STATE_EXACT,
        )
    return _envelope(spec, "reshard", elastic, stream, plan)


def _relation_checkpoint(spec, plan, stream) -> list[Violation]:
    batches = _batches(stream, plan.batch_size)
    ck = min(plan.checkpoint_at, len(batches) - 1)
    full = spec.build()
    driver = MinibatchDriver({spec.name: full})
    snapshot: dict[str, bytes] = {}

    def probe_hook(drv: MinibatchDriver, report) -> None:
        if report.index == ck:
            snapshot["state"] = dumps(full.state_dict())

    driver.add_hook(probe_hook)
    driver.run(stream, plan.batch_size)
    if "state" not in snapshot:
        return [Violation("checkpoint", f"hook never fired at batch {ck}")]

    restored = spec.build()
    restored.load_state(loads(snapshot["state"]))
    _mirror_ingest(restored, batches[ck + 1 :])
    return _compare(
        spec, "checkpoint", _Run.of(full), _Run.of(restored), state_exact=True
    )


def _rates(plan: ScenarioPlan) -> dict[str, float]:
    return plan.faults.to_dict()


def _effective_payloads(plan: ScenarioPlan, stream: np.ndarray) -> list[np.ndarray]:
    """The payload sequence a correct driver actually ingests under the
    plan's fault schedule: the injector's delivery order, minus
    duplicate batch ids and poisoned payloads (transient failures are
    retried to success, so their payloads stay)."""
    injector = FaultInjector(plan.fault_seed, **_rates(plan))
    chunks = (
        (start // plan.batch_size, stream[start : start + plan.batch_size])
        for start in range(0, len(stream), plan.batch_size)
    )
    seen: set[int] = set()
    payloads: list[np.ndarray] = []
    for delivery in injector.deliveries(chunks):
        if delivery.batch_id in seen:
            continue
        try:
            validate_batch(delivery.payload)
        except PoisonBatchError:
            continue
        seen.add(delivery.batch_id)
        payloads.append(delivery.payload)
    return payloads


def _relation_faults(spec, plan, stream) -> list[Violation]:
    faulty_op = spec.build()
    driver = MinibatchDriver(
        {spec.name: faulty_op},
        fault_injector=FaultInjector(plan.fault_seed, **_rates(plan)),
        # transient_failures defaults to 2; 4 attempts always win.
        retry_policy=RetryPolicy(max_attempts=4),
    )
    driver.run(stream, plan.batch_size)

    mirror = spec.build()
    _mirror_ingest(mirror, _effective_payloads(plan, stream))
    return _compare(
        spec, "faults", _Run.of(mirror), _Run.of(faulty_op),
        state_exact=hasattr(mirror, "state_dict"),
    )


def _staleness_params(plan: ScenarioPlan) -> tuple[int, int]:
    """B (staleness bound) and T (buffer strands) for a plan — derived
    from existing plan fields, so replay files stay compatible."""
    return max(4, plan.batch_size), 2 + plan.case % 3


def _relation_staleness(spec, plan, stream, reference: _Run) -> list[Violation]:
    """Buffered concurrent ingest against the bounded-staleness
    contract.

    Runs under :class:`~repro.pram.backend.SerialBackend` so the strand
    schedule (and therefore the flush order) is deterministic and the
    case replays exactly.  The contract itself is
    schedule-independent — what is checked never depends on *which*
    interleaving produced the flush log:

    * after every batch, the unflushed backlog and the published
      snapshot's lag are both at most B items;
    * the snapshot's answers lie within the oracle envelope of the
      covered multiset (the ingested stream minus the at-most-B
      buffered items) — probed at the first, middle, and last batch to
      keep the brute-force oracle affordable;
    * after a final ``sync()`` the global state equals the reference
      fold: state-bytes-identical for ``STALENESS_SYNC_EXACT``,
      envelope-bounded otherwise.
    """
    stale_b, threads = _staleness_params(plan)
    op = spec.build()
    ingestor = ConcurrentIngestor(
        {spec.name: op},
        buffer_items=stale_b,
        threads=threads,
        backend=SerialBackend(),
        record_flushes=True,
    )
    out: list[Violation] = []
    batches = _batches(stream, plan.batch_size)
    probe_at = {0, len(batches) // 2, len(batches) - 1}
    for i, batch in enumerate(batches):
        ingestor.ingest(batch)
        pending = ingestor.pending_items()
        lag = ingestor.items_ingested - ingestor.published_items
        if pending > stale_b:
            out.append(
                Violation(
                    "staleness",
                    f"batch {i}: {pending} unflushed items exceed B={stale_b}",
                )
            )
        if lag > stale_b:
            out.append(
                Violation(
                    "staleness",
                    f"batch {i}: snapshot lags ingest by {lag} items "
                    f"(> B={stale_b})",
                )
            )
        snap = ingestor.read()
        covered = ingestor.flushed_stream()
        if snap.items != len(covered):
            out.append(
                Violation(
                    "staleness",
                    f"batch {i}: snapshot claims {snap.items} items but "
                    f"the flush log holds {len(covered)}",
                )
            )
        if i in probe_at and len(covered):
            out += [
                Violation("staleness", f"batch {i} snapshot: {msg}")
                for msg in check_oracle(spec, snap[spec.name], covered, plan)
            ]
    ingestor.sync()
    ingestor.close()
    if spec.name in STALENESS_SYNC_EXACT:
        return out + _compare(
            spec, "staleness", reference, _Run.of(op), state_exact=True
        )
    return out + _envelope(spec, "staleness", op, stream, plan)


def run_case(
    spec,
    plan: ScenarioPlan,
    stream: np.ndarray,
    *,
    relations: frozenset[str] | set[str] | None = None,
) -> list[Violation]:
    """Run every relation the spec's capabilities select; returns all
    violations found (empty = the case passed).

    ``relations`` narrows the sweep to the named subset (values from
    :data:`RELATIONS`) — capability gating still applies, so asking for
    ``staleness`` on a non-concurrent operator runs nothing.
    """
    if len(stream) == 0:
        return []
    if relations is not None:
        unknown = set(relations) - set(RELATIONS)
        if unknown:
            raise ValueError(
                f"unknown relations {sorted(unknown)}; valid: {RELATIONS}"
            )

    def want(name: str) -> bool:
        return relations is None or name in relations

    reference_op = spec.build()
    for batch in _batches(stream, plan.batch_size):
        reference_op.ingest(batch)
    # Snapshot canonical state before the oracle phase probes anything.
    reference = _Run.of(reference_op)

    violations: list[Violation] = []
    if want("oracle"):
        violations += _envelope(spec, "oracle", reference_op, stream, plan)
    if want("rebatch"):
        violations += _relation_rebatch(spec, plan, stream, reference)
    if spec.caps.preparable and want("prepared"):
        violations += _relation_prepared(spec, plan, stream, reference)
    if spec.caps.fused and want("fused"):
        violations += _relation_fused(spec, plan, stream, reference)
    if spec.caps.mergeable:
        if want("mergetree"):
            violations += _relation_mergetree(spec, plan, stream, reference)
        if want("reshard"):
            violations += _relation_reshard(spec, plan, stream, reference)
    if spec.caps.concurrent and want("staleness"):
        violations += _relation_staleness(spec, plan, stream, reference)
    if hasattr(reference_op, "state_dict") and want("checkpoint"):
        violations += _relation_checkpoint(spec, plan, stream)
    if plan.faults.any() and want("faults"):
        violations += _relation_faults(spec, plan, stream)
    return violations
