"""Parallel Count-Sketch [CCFC02] — the related-work sketch,
parallelized with the same minibatch recipe as Section 6.

The paper's related work contrasts Count-Min with Count-Sketch; the
batched-update technique of Section 6 applies verbatim: all k
occurrences of an item touch the same d cells (with the same ±1 sign
per row), so a minibatch update is buildHist followed by a per-row
signed gather — here one flat ``np.add.at`` scatter, run through
:class:`~repro.engine.fusion.FusedIngestPlan`, the only table update.

Differences from Count-Min worth having in the library:

* **unbiased** — each row's estimate ``s_i(e)·A[i, h_i(e)]`` has
  expectation exactly f_e (CMS is one-sided);
* **median** estimator instead of min, so the error bound is
  ±ε·‖f‖₂ with probability 1−δ — much tighter than εm on skewed
  streams where ‖f‖₂ ≪ ‖f‖₁;
* needs 4-wise independent hash rows for the variance bound (we draw
  k=4 from :class:`repro.pram.hashing.KWiseHash`).

Cost: identical shape to Theorem 6.1 — O(µ + (µ+w)d) work and polylog
depth per minibatch; queries are a parallel median over d cells.
"""

from __future__ import annotations

import math
import pickle
from typing import Hashable, Sequence

import numpy as np

from repro.engine.fusion import FusedIngestPlan
from repro.pram.cost import charge, current_ledger, parallel
from repro.pram.hashing import KWiseHash, restore_hashes, row_columns
from repro.pram.plan import PreparedBatch, query_keys, sketch_key
from repro.pram.primitives import log2ceil
from repro.resilience.invariants import require
from repro.resilience.state import expect, header, restore_rng, rng_state

__all__ = ["ParallelCountSketch"]


class ParallelCountSketch:
    """An (ε, δ) Count-Sketch with minibatch-parallel updates.

    Estimates satisfy ``|est − f_e| <= ε·‖f‖₂`` with probability
    ≥ 1 − δ, where ‖f‖₂ is the L2 norm of the frequency vector.

    Parameters
    ----------
    eps:
        L2 error fraction (width w = ⌈3/ε²⌉).
    delta:
        Failure probability (depth d = ⌈ln(1/δ)⌉ rows, median-combined;
        rounded up to odd so the median is a cell value).
    """

    def __init__(
        self,
        eps: float,
        delta: float,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        rng = rng if rng is not None else np.random.default_rng(0xC5C5)
        self.eps = float(eps)
        self.delta = float(delta)
        self.width = math.ceil(3.0 / (eps * eps))
        depth = max(1, math.ceil(math.log(1.0 / delta)))
        self.depth = depth + (depth % 2 == 0)  # odd for a clean median
        self.table = np.zeros((self.depth, self.width), dtype=np.int64)
        # 4-wise independent bucket hashes; separate 4-wise sign hashes.
        self.bucket_hashes = [KWiseHash(4, self.width, rng) for _ in range(self.depth)]
        self.sign_hashes = [KWiseHash(4, 2, rng) for _ in range(self.depth)]
        self.stream_length = 0
        self._rng = rng

    # ------------------------------------------------------------------
    def ingest(self, batch: Sequence[Hashable] | np.ndarray) -> None:
        """Minibatch update: buildHist, then per-row signed gathers."""
        self.ingest_prepared(PreparedBatch(batch))

    extend = ingest

    def ingest_prepared(self, plan: PreparedBatch) -> None:
        """Array-native path over a (possibly shared) batch plan: a
        one-operator :class:`FusedIngestPlan`, the one table update."""
        FusedIngestPlan({"csk": self}).execute(plan)

    def fused_gathers(self) -> list[tuple[KWiseHash, int, KWiseHash]]:
        """Per-row ``(bucket_hash, width, sign_hash)`` gather descriptors
        for the fused multi-operator kernel (:mod:`repro.engine.fusion`).
        Count-Sketch rows are signed gathers, so every row carries its
        4-wise sign hash alongside the bucket hash."""
        return [
            (self.bucket_hashes[i], self.width, self.sign_hashes[i])
            for i in range(self.depth)
        ]

    def ingest_fused(
        self, plan: PreparedBatch, batched: tuple[np.ndarray, np.ndarray] | None
    ) -> None:
        """Apply the fused kernel's precomputed ``(cols, weights)``.

        Both are ``(depth, |keys|)`` arena views: the *flat* column each
        distinct key hashes to (row-relative bucket plus ``row·width``)
        and its sign-weighted int64 frequency.  Each row's strand hashes
        the distinct keys (bucket, then sign) and adds same-column
        signed frequencies in one shot; one sparse scatter into the
        table's flat view applies every row at once."""
        if plan.size == 0:
            return
        plan.sketch_hist()  # replay the shared-prework charge
        cols, weights = batched  # type: ignore[misc]
        p = cols.shape[1]
        gather_w = max(1, p + self.width)
        gather_d = 1 + log2ceil(max(2, p + self.width))
        with parallel() as par:
            for i in range(self.depth):
                bw, bd = self.bucket_hashes[i].eval_cost(p)
                sw, sd = self.sign_hashes[i].eval_cost(p)
                par.charge_strand(bw + sw + gather_w, bd + sd + gather_d)
        self._scatter(cols, weights)
        self.stream_length += plan.size

    def update(self, item: Hashable, count: int = 1) -> None:
        """Single-item update."""
        if count < 0:
            raise ValueError("count must be >= 0")
        keys = np.array([sketch_key(item)], dtype=np.uint64)
        charge(work=self.depth, depth=1 + log2ceil(max(2, self.depth)))
        for sign_h, bucket_h in zip(self.sign_hashes, self.bucket_hashes):
            sign_h.charge_eval(1)
            bucket_h.charge_eval(1)
        rows = row_columns(self.bucket_hashes + self.sign_hashes, keys)
        cols, bits = np.split(rows, 2)
        cols += np.arange(0, self.table.size, self.width)[:, None]
        self._scatter(cols, (2 * bits - 1) * count)
        self.stream_length += count

    def _scatter(self, cols: np.ndarray, weights: np.ndarray) -> None:
        # Flat 1-D intp index + contiguous values hit ufunc.at's
        # unbuffered fast path (~5x over 2-D indexing).
        np.add.at(self.table.reshape(-1), cols.ravel(), weights.ravel())

    # ------------------------------------------------------------------
    def point_query(self, item: Hashable | np.ndarray) -> int | np.ndarray:
        """median_i ( s_i(e) · A[i, h_i(e)] ) — an unbiased estimate.

        Parallel median: O(d) work, O(log d) depth (the selection
        network over d = O(log 1/δ) values).

        ``item`` is one item (answer: an ``int``) or a 1-D integer array
        of keys (answer: an int64 array; ``.tolist()`` gives ints): each
        row's bucket and sign hashes run once over all keys, one gather
        reads the ``(d, #keys)`` cells, and a median across rows answers
        every key, truncated toward zero like ``int()``.  The ledger is
        charged exactly what querying the keys one at a time charges.
        """
        keys, scalar = query_keys(item)
        rows = row_columns(self.bucket_hashes + self.sign_hashes, keys)
        cols, bits = np.split(rows, 2)
        estimates = (2 * bits - 1) * np.take_along_axis(self.table, cols, axis=1)
        if current_ledger() is not None:
            for _ in range(keys.size):
                for sign_h, bucket_h in zip(self.sign_hashes, self.bucket_hashes):
                    sign_h.charge_eval(1)
                    bucket_h.charge_eval(1)
                charge(work=self.depth, depth=1 + log2ceil(max(2, self.depth)))
        answers = np.median(estimates, axis=0).astype(np.int64)
        return int(answers[0]) if scalar else answers

    estimate = point_query

    def merge(self, other: "ParallelCountSketch") -> None:
        """Fold another sketch built with the *same hash functions* into
        this one: Count-Sketch is a linear sketch, so cell-wise addition
        sketches the concatenated streams exactly."""
        if self.table.shape != other.table.shape:
            raise ValueError("sketches must share dimensions to merge")
        for mine, theirs in zip(
            self.bucket_hashes + self.sign_hashes,
            other.bucket_hashes + other.sign_hashes,
        ):
            if not np.array_equal(mine.coeffs, theirs.coeffs):
                raise ValueError("sketches must share hash functions to merge")
        charge(work=self.table.size, depth=1)
        self.table += other.table
        self.stream_length += other.stream_length

    def fresh_clone(self) -> "ParallelCountSketch":
        """An empty sketch with identical configuration and hash
        functions — the per-shard accumulator for
        :func:`repro.engine.mergetree.shard_partials`."""
        clone = pickle.loads(pickle.dumps(self))
        clone.table[:] = 0
        clone.stream_length = 0
        return clone

    @property
    def space(self) -> int:
        """O(ε⁻² log(1/δ)) words (the L2 guarantee costs ε⁻² width)."""
        return self.table.size + 4 * self.depth

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            **header("countsketch"),
            "eps": self.eps,
            "delta": self.delta,
            "width": self.width,
            "depth": self.depth,
            "table": self.table,
            "bucket_hashes": [h.state_dict() for h in self.bucket_hashes],
            "sign_hashes": [h.state_dict() for h in self.sign_hashes],
            "stream_length": self.stream_length,
            "rng": rng_state(self._rng),
        }

    def load_state(self, state: dict) -> None:
        expect(state, "countsketch")
        self.eps = float(state["eps"])
        self.delta = float(state["delta"])
        self.width = int(state["width"])
        self.depth = int(state["depth"])
        self.table = np.asarray(state["table"], dtype=np.int64).copy()
        self.bucket_hashes = restore_hashes(self.bucket_hashes, state["bucket_hashes"])
        self.sign_hashes = restore_hashes(self.sign_hashes, state["sign_hashes"])
        self.stream_length = int(state["stream_length"])
        self._rng = restore_rng(state["rng"], into=self._rng)

    def check_invariants(self) -> None:
        """Count-Sketch audit: signed cell mass per row cannot exceed
        the total ingested weight (each update moves exactly ``count``
        units of |mass| in one cell per row)."""
        name = "ParallelCountSketch"
        require(self.table.shape == (self.depth, self.width), name, "table shape drifted")
        require(self.depth % 2 == 1, name, "row count must be odd (median estimator)")
        require(
            len(self.bucket_hashes) == self.depth and len(self.sign_hashes) == self.depth,
            name,
            "hash count != depth",
        )
        row_l1 = np.abs(self.table).sum(axis=1)
        require(
            self.table.size == 0 or int(row_l1.max()) <= self.stream_length,
            name,
            f"row ℓ1 mass {row_l1.tolist()} exceeds total weight {self.stream_length}",
        )


# ----------------------------------------------------------------------
from repro.engine.registry import Capabilities, register  # noqa: E402

register(
    ParallelCountSketch,
    summary="minibatch-parallel Count-Sketch, unbiased estimates [CCF02]",
    input="items",
    caps=Capabilities(
        mergeable=True,
        preparable=True,
        invariant_checked=True,
        concurrent=True,
    ),
    build=lambda: ParallelCountSketch(eps=0.1, delta=0.1, rng=np.random.default_rng(3)),
    probe=lambda op: op.point_query(np.arange(64)).tolist(),
)
