"""repro.engine — the unified synopsis engine (registry + per-batch step).

Three coordinated pieces, one contract:

``repro.engine.registry``
    a runtime-checkable :class:`~repro.engine.registry.Synopsis`
    protocol with per-operator capability flags, plus a declarative
    registry of factories covering every operator `repro.core` and
    `repro.baselines` export.  The CLI, conformance sweeps, checkpoint
    audits, span catalog, and profiler all iterate it instead of
    hard-coding operator lists.
``repro.engine.graph``
    the driver's fixed per-batch step (source → prepare → operators →
    fold): one shared ``PreparedBatch`` through the fused kernel, or
    one fork-join strand per operator over a Serial / Thread / Process
    backend.
``repro.engine.mergetree``
    the one shard-and-fold path over mergeable summaries: one leaf
    region over S partials, then a k-ary tree fold at O(log_k S)
    charged depth instead of Θ(S).

See ``docs/architecture.md`` for how the engine sits between the PRAM
substrate and the streaming/tooling layers.
"""

from repro.engine import registry
from repro.engine.graph import DataflowGraph
from repro.engine.mergetree import (
    merge_partials,
    merge_tree_ingest,
    mergeable,
    shard_partials,
)
from repro.engine.registry import Capabilities, Synopsis, SynopsisSpec

__all__ = [
    "registry",
    "Synopsis",
    "Capabilities",
    "SynopsisSpec",
    "DataflowGraph",
    "mergeable",
    "shard_partials",
    "merge_partials",
    "merge_tree_ingest",
]
