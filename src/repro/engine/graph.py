"""The driver's per-batch step: source → prepare → operators → fold.

In the paper's Section 1 model every minibatch goes through one
parallel pass that updates the shared structures.  :class:`DataflowGraph`
is that pass, fixed in shape: feed the batch's one
:class:`~repro.pram.plan.PreparedBatch` to every operator, and return
the name → operator mapping that absorbed the batch.

Without a backend the operators run through one
:class:`~repro.engine.fusion.FusedIngestPlan`: fusable Count-Min /
Count-Sketch rows in one stacked kernel, every other operator through
its own ``ingest_prepared`` (or ``ingest``), all in mapping order.
With a :class:`~repro.pram.backend.Backend` each operator is one
fork-join strand, charged sum-work / max-depth.  Strands are
:func:`functools.partial` over a module-level function so they pickle
into :class:`~repro.pram.backend.ProcessPoolBackend` workers; a process
worker returns its mutated copy, which the caller re-adopts.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Mapping

from repro.engine.fusion import FusedIngestPlan
from repro.pram.backend import Backend, fork_join
from repro.pram.plan import PreparedBatch

__all__ = ["DataflowGraph", "check_sketch_keys"]


def check_sketch_keys(operators: Mapping[str, Any], plan: PreparedBatch) -> None:
    """Reject, before any operator ingests, a batch whose negative key
    a sketch among ``operators`` would reject mid-step (the fused pass
    rejects it before its first operator; fork-join strands and shard
    ingestors run independently).  Uncharged host bookkeeping."""
    if any(hasattr(op, "fused_gathers") for op in operators.values()):
        plan.check_sketch_keys()


def _ingest_strand(op: Any, plan: PreparedBatch) -> Any:
    if hasattr(op, "ingest_prepared"):
        op.ingest_prepared(plan)
    else:
        op.ingest(plan.raw)
    return op


class DataflowGraph:
    """One minibatch through every operator: the driver's per-batch step.

    ``operators`` is held by reference, so replacing an entry is
    observed on the next batch.  ``backend=None`` runs the fused serial
    pass; a backend fans the operators out as fork-join strands.
    """

    def __init__(
        self, operators: Mapping[str, Any], *, backend: Backend | None = None
    ) -> None:
        self.operators = operators
        self.backend = backend
        self.fusion = FusedIngestPlan(operators) if backend is None else None

    def execute(self, plan: PreparedBatch) -> Mapping[str, Any]:
        """Ingest the batch behind ``plan``; return name → the operator
        that absorbed it (the worker's copy under a process backend)."""
        if self.fusion is not None:
            self.fusion.execute(plan)
            return self.operators
        check_sketch_keys(self.operators, plan)
        tasks = [partial(_ingest_strand, op, plan) for op in self.operators.values()]
        return dict(zip(self.operators, fork_join(tasks, self.backend)))
