"""Work-depth (PRAM) parallel runtime substrate.

This package provides the execution substrate the SPAA'14 paper assumes:
a CRCW-style machine whose algorithms are analyzed in the *work-depth*
model.  Every primitive here performs its real (NumPy-vectorized) data
movement and simultaneously charges an explicit cost ledger with
fork-join semantics — sequential composition adds depth, parallel
composition takes the max depth and the sum of work.  Benchmarks verify
the measured work/depth against the paper's theorems.

Modules
-------
arena       high-water scratch buffers reused across minibatches
cost        fork-join work/depth ledger and ambient-ledger plumbing
primitives  map / reduce / scan / pack / concat data-parallel kernels
sort        linear-work stable integer sort (Theorem 2.2 stand-in)
hashing     k-wise independent polynomial hash families
histogram   buildHist (Theorem 2.3)
css         compacted stream segments (Lemma 2.1) and sift (Lemma 5.9)
select      parallel rank selection (prune cutoff, Lemma 5.3)
backend     serial and thread-pool fork-join execution backends

Every primitive is additionally wrapped in a named observability span
(``pram.<primitive>``, see docs/observability.md): when a
:class:`~repro.observability.spans.SpanTracer` is active, each call
records its ledger work/depth delta alongside measured wall-clock, and
installs its name as the ambient charge label so the ledger's
``by_operator`` attribution stays exact.  With no tracer the wrapper
is a single ContextVar read.
"""

from repro.pram.arena import BatchArena
from repro.pram.backend import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
    fork_join,
)
from repro.pram.cost import (
    Cost,
    CostLedger,
    charge,
    current_ledger,
    measured,
    parallel,
    tracking,
)
from repro.pram.css import CSS, css_of_bits, css_concat, sift
from repro.pram.hashing import KWiseHash, MERSENNE_P
from repro.pram.histogram import (
    HistArrays,
    build_hist,
    build_hist_arrays,
    build_hist_collectbin,
    build_hist_vectorized,
)
from repro.pram.plan import HASH_MEMO_CAP, PreparedBatch, fold_key, query_keys
from repro.pram.primitives import (
    pack,
    par_concat,
    par_filter,
    par_map,
    prefix_sum,
    reduce_add,
    reduce_max,
    reduce_min,
)
from repro.pram.schedule import simulate, speedup_curve, trace_summary
from repro.pram.select import rank_select, prune_cutoff
from repro.pram.sort import int_sort, int_sort_by_key

__all__ = [
    "BatchArena",
    "Cost",
    "CostLedger",
    "charge",
    "current_ledger",
    "measured",
    "parallel",
    "tracking",
    "CSS",
    "css_of_bits",
    "css_concat",
    "sift",
    "KWiseHash",
    "MERSENNE_P",
    "HistArrays",
    "build_hist",
    "build_hist_arrays",
    "build_hist_collectbin",
    "build_hist_vectorized",
    "HASH_MEMO_CAP",
    "PreparedBatch",
    "fold_key",
    "query_keys",
    "SerialBackend",
    "ThreadBackend",
    "ProcessPoolBackend",
    "fork_join",
    "pack",
    "par_concat",
    "par_filter",
    "par_map",
    "prefix_sum",
    "reduce_add",
    "reduce_max",
    "reduce_min",
    "simulate",
    "speedup_curve",
    "trace_summary",
    "rank_select",
    "prune_cutoff",
    "int_sort",
    "int_sort_by_key",
]
