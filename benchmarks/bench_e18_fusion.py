"""E18 — fused multi-operator ingest kernels with arena reuse.

The tentpole claim: once every operator in a pipeline shares one
:class:`~repro.pram.plan.PreparedBatch` (E16), the remaining per-batch
cost is N separate sketch kernels, each re-evaluating its own k-wise
hashes and re-allocating its own scratch.  A
:class:`~repro.engine.fusion.FusedIngestPlan` stacks every CMS/CSK
hash row into one coefficient matrix, runs a single vectorized
mod-Mersenne pass per batch, scatters all rows from one flat index
vector, and serves every intermediate from a preallocated
:class:`~repro.pram.arena.BatchArena` that is reused across
minibatches.  Three pipelines race on the E16 8-operator pipeline:

* **pr3** — the shared-plan path as it stood when the planner landed
  (PR 3), reimplemented here verbatim: per-batch histogram with a
  fresh ``KWiseHash`` (division Horner, ``np.lexsort`` bucketing),
  the ``np.unique``-merge Misra-Gries augment with per-element
  ``int()`` materialization, and the per-row dense ``bincount`` sketch
  kernel (shared with E16's naive path);
* **planned** — today's per-operator ``op.ingest_prepared(plan)`` loop
  (combined-key argsort, sorted-merge MG, a one-operator fused plan
  per sketch);
* **fused** — one ``FusedIngestPlan.execute`` per batch.

Asserted: all three paths charge *bit-identical* ledger totals (the
fused kernel replays each operator's recorded charges; fusion changes
wall-clock, never charges), all three land every operator in an
identical state, and fused clears >= 2x items/sec over the PR 3
planned path on both streams.  The fused-vs-planned column is
informational: it isolates stacking every sketch into one kernel from
the histogram and MG improvements that ride along.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks._harness import emit_table, reset_results
from benchmarks.bench_e16_ingest_fastpath import (
    _FACTORIES,
    MU,
    N,
    STREAMS,
    UNIVERSE,
    _canon,
    _bincount_sketch_rows,
)
from repro.core import InfiniteHeavyHitters, ParallelFrequencyEstimator
from repro.engine.fusion import FusedIngestPlan
from repro.pram.cost import CostLedger, charge, tracking
from repro.pram.hashing import KWiseHash
from repro.pram.histogram import HistArrays, _charge_intsort_equiv, _intern
from repro.pram.plan import PreparedBatch
from repro.pram.primitives import log2ceil
from repro.pram.select import prune_cutoff
from repro.stream.generators import minibatches

EXPERIMENT = "E18"
REPEATS = 5


def _pipeline() -> dict:
    """The full E16 8-operator pipeline (2x {freq, hh-inf, cms, csk})."""
    return {name: make() for name, make in _FACTORIES}


# ----------------------------------------------------------------------
# The PR 3 planned path, preserved verbatim as the reference.
# ----------------------------------------------------------------------
def _pr3_build_hist_arrays(items: np.ndarray) -> HistArrays:
    """The planner-era buildHist: fresh hash per batch, division
    Horner, lexsort bucketing — identical charges to today's kernel."""
    rng = np.random.default_rng(0x5BBC)
    mu = len(items)
    if mu == 0:
        charge(work=1, depth=1)
        empty = np.empty(0, dtype=np.int64)
        return HistArrays(empty, empty.copy(), [])
    codes, universe = _intern(items)
    hash_range = max(1, mu)
    k = max(2, log2ceil(max(2, mu)))
    h = KWiseHash(k, hash_range, rng)
    hashed = np.atleast_1d(np.asarray(h(codes)))
    _charge_intsort_equiv(mu, hash_range)
    order = np.lexsort((codes, hashed))
    sorted_hash = hashed[order]
    sorted_codes = codes[order]
    charge(work=max(1, mu), depth=1 + log2ceil(max(2, mu)))
    change = np.empty(mu, dtype=bool)
    change[0] = True
    np.not_equal(sorted_hash[1:], sorted_hash[:-1], out=change[1:])
    code_change = sorted_codes[1:] != sorted_codes[:-1]
    np.logical_or(change[1:], code_change, out=change[1:])
    group_starts = np.flatnonzero(change)
    group_ends = np.concatenate([group_starts[1:], [mu]])
    group_counts = group_ends - group_starts
    group_codes = sorted_codes[group_starts]
    group_buckets = sorted_hash[group_starts]
    bucket_sizes = np.bincount(sorted_hash, minlength=hash_range)
    distinct_per_bucket = np.bincount(group_buckets, minlength=hash_range)
    occupied = bucket_sizes > 0
    work = int((distinct_per_bucket[occupied] * bucket_sizes[occupied]).sum())
    log_sizes = 1 + np.ceil(np.log2(np.maximum(2, bucket_sizes[occupied])))
    depth = int((distinct_per_bucket[occupied] * log_sizes).max()) if work else 1
    charge(work=max(1, work), depth=max(1, depth))
    charge(work=max(1, group_codes.size), depth=1 + log2ceil(max(2, mu)))
    return HistArrays(
        np.ascontiguousarray(group_codes, dtype=np.int64),
        np.ascontiguousarray(group_counts, dtype=np.int64),
        universe,
    )


class _PR3Plan(PreparedBatch):
    """A shared plan whose histogram is the planner-era pipeline."""

    def hist_arrays(self):
        return self._shared("hist", lambda: _pr3_build_hist_arrays(self.raw))


def _pr3_mg_augment_arrays(summary, keys, freqs, capacity):
    """The planner-era mg_augment_arrays: np.unique merge, per-element
    ``int()`` materialization — identical charges to today's kernel."""
    total = len(summary) + int(keys.size)
    charge(work=max(1, total), depth=1 + log2ceil(max(2, total)) ** 2)
    if np.any(freqs < 0):
        raise ValueError("negative histogram frequency")
    if summary:
        keys = np.concatenate(
            [np.fromiter(summary.keys(), dtype=np.int64, count=len(summary)), keys]
        )
        freqs = np.concatenate(
            [np.fromiter(summary.values(), dtype=np.int64, count=len(summary)), freqs]
        )
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.bincount(inverse, weights=freqs, minlength=uniq.size).astype(np.int64)
    if uniq.size <= capacity:
        return {int(k): int(c) for k, c in zip(uniq, merged)}
    phi = prune_cutoff(merged, capacity)
    charge(work=max(1, uniq.size), depth=1)
    keep = merged > phi
    return {int(k): int(c) for k, c in zip(uniq[keep], merged[keep] - phi)}


def _pr3_mg_ingest(est, plan) -> None:
    if plan.size == 0:
        return
    keys, freqs = plan.hist_arrays()[:2]
    est.counters = _pr3_mg_augment_arrays(est.counters, keys, freqs, est.capacity)
    est.stream_length += plan.size


def _pr3_op_ingest(op, plan) -> None:
    if isinstance(op, InfiniteHeavyHitters):
        _pr3_mg_ingest(op.estimator, plan)
    elif isinstance(op, ParallelFrequencyEstimator):
        _pr3_mg_ingest(op, plan)
    elif plan.size:  # the planner-era per-row bincount sketch kernel
        keys, freqs = plan.sketch_hist()
        _bincount_sketch_rows(op, keys, freqs, plan.hash_columns)
        op.stream_length += plan.size


# ----------------------------------------------------------------------
# The three pipeline passes.
# ----------------------------------------------------------------------
def _run_pr3(stream: np.ndarray):
    ops = _pipeline()
    led = CostLedger()
    t0 = time.perf_counter()
    with tracking(led):
        for chunk in minibatches(stream, MU):
            plan = _PR3Plan(chunk)
            for op in ops.values():
                _pr3_op_ingest(op, plan)
    return time.perf_counter() - t0, led.work, led.depth, ops


def _run_planned(stream: np.ndarray):
    ops = _pipeline()
    led = CostLedger()
    t0 = time.perf_counter()
    with tracking(led):
        for chunk in minibatches(stream, MU):
            plan = PreparedBatch(chunk)
            for op in ops.values():
                op.ingest_prepared(plan)
    return time.perf_counter() - t0, led.work, led.depth, ops


def _make_fused_runner():
    """A steady-state fused harness: one long-lived plan whose arena
    and stacked-hash matrix persist across repeats, with operator
    *states* refreshed per pass (the deployment shape — the driver
    keeps its ``FusedIngestPlan`` for the life of the pipeline)."""
    ops = _pipeline()
    fused = FusedIngestPlan(ops)

    def run(stream: np.ndarray):
        ops.clear()
        ops.update(_pipeline())
        led = CostLedger()
        t0 = time.perf_counter()
        with tracking(led):
            for chunk in minibatches(stream, MU):
                fused.execute(PreparedBatch(chunk))
        return time.perf_counter() - t0, led.work, led.depth, dict(ops)

    return run, fused


def _best(run, stream):
    runs = [run(stream) for _ in range(REPEATS)]
    elapsed = min(r[0] for r in runs)
    _, work, depth, ops = runs[-1]
    return elapsed, work, depth, ops


def _states(ops: dict):
    return {name: _canon(op.state_dict()) for name, op in ops.items()}


@pytest.mark.benchmark(group="E18-fusion")
def test_e18_fused_vs_pr3_planned(benchmark):
    reset_results(EXPERIMENT)
    run_fused, fused_plan = _make_fused_runner()
    rows = []
    speedups: dict[str, float] = {}
    for label, make_stream in STREAMS.items():
        stream = make_stream()
        run_fused(stream)  # warm the arena and stacked-hash matrix
        t_pr3, w_3, d_3, pr3_ops = _best(_run_pr3, stream)
        t_planned, w_p, d_p, planned_ops = _best(_run_planned, stream)
        t_fused, w_f, d_f, fused_ops = _best(run_fused, stream)

        # Cost-model contract: the fused kernel replays every
        # operator's recorded charges — all three paths agree.
        assert (w_3, d_3) == (w_p, d_p) == (w_f, d_f), (
            f"{label}: ledger totals diverge "
            f"pr3=({w_3}, {d_3}) planned=({w_p}, {d_p}) fused=({w_f}, {d_f})"
        )
        # All three paths land every operator in an identical state.
        assert _states(fused_ops) == _states(planned_ops)
        assert _states(fused_ops) == _states(pr3_ops)

        vs_pr3 = t_pr3 / t_fused
        speedups[label] = vs_pr3
        rows.append([
            label,
            len(_FACTORIES),
            w_f,
            d_f,
            f"{N / t_pr3:,.0f}",
            f"{N / t_planned:,.0f}",
            f"{N / t_fused:,.0f}",
            round(t_fused * 1e9 / w_f, 1),
            round(vs_pr3, 2),
            round(t_planned / t_fused, 2),
        ])
    assert sorted(fused_plan.fused_names) == ["cms", "cms2", "csk", "csk2"]
    emit_table(
        EXPERIMENT,
        "fused ingest kernels: fused vs PR 3 planned (8-op pipeline)",
        ["stream", "ops", "work", "depth", "pr3 items/s", "planned items/s",
         "fused items/s", "ns/work (fused)", "vs-pr3", "vs-planned"],
        rows,
        notes=(
            f"N={N}, universe={UNIVERSE}, mu={MU}, best of {REPEATS}; "
            "work/depth are charged totals (bit-identical across all three "
            "paths, asserted); pr3 = shared-plan path as of the E16 "
            "planner PR; vs-planned isolates kernel fusion from the "
            "histogram/MG kernels that ride along"
        ),
    )
    # Acceptance: fused clears 2x over the PR 3 planned path on both
    # streams (zipf: hist/MG-heavy; uniform: high-distinct, hash-heavy).
    assert speedups["zipf"] >= 2.0, speedups
    assert speedups["uniform"] >= 2.0, speedups

    chunk = STREAMS["uniform"]()[:MU]
    run_fused(chunk)  # fresh states sized to one batch

    def one_fused_batch():
        fused_plan.execute(PreparedBatch(chunk))

    benchmark(one_fused_batch)
