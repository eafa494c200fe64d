"""Parallel Count-Min sketch (Section 6, Theorem 6.1) and its classic
applications (point / range / quantile / heavy-hitter queries [CM05]).

The parallel update observes that k occurrences of the same item all
hit the same d cells, so a minibatch is processed by (1) building its
histogram with ``buildHist`` and (2) for every row in parallel,
gathering the histogram entries that hash to the same column and adding
them in one shot — a per-row integer-keyed reduction the paper
implements with parallel integer sort (here: one flat ``np.add.at``
scatter over the distinct keys of every row, charged with the same
O(p + w) per-row cost).  That scatter, run through
:class:`~repro.engine.fusion.FusedIngestPlan`, is the only table update
of plain Count-Min; conservative update keeps its own max-update.

Work per minibatch: O(µ + (µ + w)·d); queries are parallel min-reduces
over d cells: O(log(1/δ)) work, O(log log(1/δ)) depth.

Guarantee (pairwise-independent rows, [CM05]): for every item,
``f_e <= â_e`` always, and ``â_e <= f_e + ε·m`` with probability
≥ 1 − δ.

:class:`DyadicCountMin` stacks log₂|U| sketches over dyadic prefixes
for range queries and approximate quantiles — the "variety of queries"
Section 6 refers to.
"""

from __future__ import annotations

import math
import pickle
from typing import Hashable, Sequence

import numpy as np

from repro.engine.fusion import FusedIngestPlan
from repro.pram.cost import charge, current_ledger, parallel
from repro.pram.hashing import KWiseHash, pairwise_hashes, restore_hashes, row_columns
from repro.pram.plan import PreparedBatch, query_keys, sketch_key
from repro.pram.primitives import log2ceil, reduce_min
from repro.resilience.invariants import require
from repro.resilience.state import expect, header, restore_rng, rng_state

__all__ = ["ParallelCountMin", "DyadicCountMin"]


class ParallelCountMin:
    """An (ε, δ) Count-Min sketch with minibatch-parallel updates.

    Parameters
    ----------
    eps:
        Overcount bound: estimates exceed truth by at most ε·m (whp).
    delta:
        Failure probability per query.
    rng:
        Randomness for the d pairwise-independent row hashes.
    """

    def __init__(
        self,
        eps: float,
        delta: float,
        rng: np.random.Generator | None = None,
        *,
        conservative: bool = False,
    ) -> None:
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        rng = rng if rng is not None else np.random.default_rng(0xC0DE)
        self.eps = float(eps)
        self.delta = float(delta)
        #: Conservative update [EV03]: raise each cell only as far as the
        #: item's own current estimate requires (max instead of add).
        #: Still never undercounts; typically much smaller overestimates
        #: on skewed streams.  Measured in the ablation bench A4.
        self.conservative = bool(conservative)
        self.width = math.ceil(math.e / eps)
        self.depth = max(1, math.ceil(math.log(1.0 / delta)))
        self.table = np.zeros((self.depth, self.width), dtype=np.int64)
        self.hashes: list[KWiseHash] = pairwise_hashes(self.depth, self.width, rng)
        self.stream_length = 0
        self._rng = rng

    # ------------------------------------------------------------------
    def ingest(self, batch: Sequence[Hashable] | np.ndarray) -> None:
        """Minibatch update: buildHist, then per-row parallel gather."""
        self.ingest_prepared(PreparedBatch(batch))

    extend = ingest

    def ingest_prepared(self, plan: PreparedBatch) -> None:
        """Array-native path over a (possibly shared) batch plan: plain
        update runs a one-operator :class:`FusedIngestPlan` — the one
        table update — and conservative update its own max-update."""
        if not self.conservative:
            FusedIngestPlan({"cms": self}).execute(plan)
            return
        if plan.size == 0:
            return
        keys, freqs = plan.sketch_hist()
        self._conservative_update(keys, freqs)
        self.stream_length += plan.size

    def fused_gathers(self) -> list[tuple[KWiseHash, int, None]] | None:
        """Per-row ``(bucket_hash, width, sign_hash)`` gather descriptors
        for the fused kernel (:mod:`repro.engine.fusion`), or ``None``
        when this instance cannot be fused — conservative update needs
        per-item min/max, not a linear per-row gather."""
        if self.conservative:
            return None
        return [(h, self.width, None) for h in self.hashes]

    def ingest_fused(
        self, plan: PreparedBatch, batched: tuple[np.ndarray, np.ndarray] | None
    ) -> None:
        """Apply the fused kernel's precomputed ``(cols, weights)``.

        ``cols`` is a ``(depth, |keys|)`` arena view of the *flat*
        column each distinct key hashes to (row-relative bucket plus
        ``row·width``); ``weights`` is a ``(depth, |keys|)`` arena view
        of the int64 frequency vector tiled per row.  Each row's strand
        is Theorem 6.1's per-row gather — hash the distinct keys, then
        add same-column frequencies in one shot — and one sparse
        scatter into the table's flat view applies every row at once."""
        if plan.size == 0:
            return
        plan.sketch_hist()  # replay the shared-prework charge
        cols, weights = batched  # type: ignore[misc]
        self._scatter(cols, weights)
        self.stream_length += plan.size

    def update(self, item: Hashable, count: int = 1) -> None:
        """Single-item update (the sequential special case)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        keys = np.array([sketch_key(item)], dtype=np.uint64)
        if self.conservative:
            self._conservative_update(keys, np.array([count], dtype=np.int64))
        else:
            cols = row_columns(self.hashes, keys)
            cols += np.arange(0, self.table.size, self.width)[:, None]
            self._scatter(cols, np.full_like(cols, count))
        self.stream_length += count

    def _scatter(self, cols: np.ndarray, weights: np.ndarray) -> None:
        """Add ``weights`` at the flat ``cols`` of every row, charging
        each row's strand: its hash over the ``p`` distinct keys, then
        the O(p + w) same-column gather (the paper's intSort on hash
        values in {1..w})."""
        p = cols.shape[1]
        gather_w = max(1, p + self.width)
        gather_d = 1 + log2ceil(max(2, p + self.width))
        with parallel() as par:
            for h in self.hashes:
                hw, hd = h.eval_cost(p)
                par.charge_strand(hw + gather_w, hd + gather_d)
        # Flat 1-D intp index + contiguous values hit ufunc.at's
        # unbuffered fast path (~5x over 2-D indexing).
        np.add.at(self.table.reshape(-1), cols.ravel(), weights.ravel())

    def _conservative_update(self, keys: np.ndarray, freqs: np.ndarray) -> None:
        """Batched conservative update: each item's cells rise to
        (current estimate + its batch count); never undercounts because
        each item's d cells end at least at its running frequency, and
        taking the max across colliding items only raises cells."""
        p = keys.size
        all_cols = np.stack([h(keys) for h in self.hashes])  # (d, p)
        current = self.table[np.arange(self.depth)[:, None], all_cols]  # (d, p)
        targets = current.min(axis=0) + freqs  # per-item new floor
        charge(
            work=max(1, self.depth * (p + 1)),
            depth=1 + log2ceil(max(2, p + self.width)),
        )
        with parallel() as par:
            for i in range(self.depth):

                def strand(i: int = i) -> None:
                    charge(work=max(1, p), depth=1)
                    np.maximum.at(self.table[i], all_cols[i], targets)

                par.run(strand)

    # ------------------------------------------------------------------
    def point_query(self, item: Hashable | np.ndarray) -> int | np.ndarray:
        """â_e = min_i A[i, h_i(e)] — parallel min-reduce over d cells.

        ``item`` is one item (answer: an ``int``) or a 1-D integer array
        of keys (answer: an int64 array; ``.tolist()`` gives ints).  The
        array form is Section 6's batched query: each row hash runs once
        over all keys, one gather reads the ``(d, #keys)`` cells, and a
        min-reduce across rows answers every key.  The ledger is charged
        exactly what querying the keys one at a time charges."""
        keys, scalar = query_keys(item)
        cells = np.take_along_axis(
            self.table, row_columns(self.hashes, keys), axis=1
        )
        if current_ledger() is not None:
            for j in range(keys.size):
                for h in self.hashes:
                    h.charge_eval(1)
                reduce_min(cells[:, j])
        answers = cells.min(axis=0)
        return int(answers[0]) if scalar else answers

    estimate = point_query

    def merge(self, other: "ParallelCountMin") -> None:
        """Fold another sketch built with the *same hash functions* into
        this one (mergeable summaries, [ACH+13]): cell-wise addition
        preserves the (ε, δ) guarantee for the concatenated streams.

        Both sketches must come from the same rng seed (identical
        hashes); merging conservative-update sketches is rejected
        because cell-wise addition over-adds their max-updates.
        """
        if self.table.shape != other.table.shape:
            raise ValueError("sketches must share dimensions to merge")
        if self.conservative or other.conservative:
            raise ValueError("conservative-update sketches are not mergeable")
        for mine, theirs in zip(self.hashes, other.hashes):
            if not np.array_equal(mine.coeffs, theirs.coeffs):
                raise ValueError("sketches must share hash functions to merge")
        charge(work=self.table.size, depth=1)
        self.table += other.table
        self.stream_length += other.stream_length

    def fresh_clone(self) -> "ParallelCountMin":
        """An empty sketch with identical configuration and hash
        functions — the per-shard accumulator for
        :func:`repro.engine.mergetree.shard_partials`."""
        clone = pickle.loads(pickle.dumps(self))
        clone.table[:] = 0
        clone.stream_length = 0
        return clone

    def inner_product(self, other: "ParallelCountMin") -> int:
        """Estimate of the inner product of two streams' frequency
        vectors (min over rows of the row dot products, [CM05] §4.3).
        Requires identical (eps, delta, hash) configuration."""
        if self.table.shape != other.table.shape:
            raise ValueError("sketches must share dimensions")
        charge(work=self.table.size, depth=1 + log2ceil(self.width))
        per_row = np.einsum("ij,ij->i", self.table, other.table)
        return int(reduce_min(per_row))

    @property
    def space(self) -> int:
        """Words — Theorem 6.1's O(ε⁻¹ log(1/δ))."""
        return self.table.size + 2 * self.depth

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Versioned serializable snapshot (table, hashes, rng cursor)."""
        return {
            **header("countmin"),
            "eps": self.eps,
            "delta": self.delta,
            "conservative": self.conservative,
            "width": self.width,
            "depth": self.depth,
            "table": self.table,
            "hashes": [h.state_dict() for h in self.hashes],
            "stream_length": self.stream_length,
            "rng": rng_state(self._rng),
        }

    def load_state(self, state: dict) -> None:
        """Restore a ``state_dict()`` snapshot in place."""
        expect(state, "countmin")
        self.eps = float(state["eps"])
        self.delta = float(state["delta"])
        self.conservative = bool(state["conservative"])
        self.width = int(state["width"])
        self.depth = int(state["depth"])
        self.table = np.asarray(state["table"], dtype=np.int64).copy()
        self.hashes = restore_hashes(self.hashes, state["hashes"])
        self.stream_length = int(state["stream_length"])
        self._rng = restore_rng(state["rng"], into=self._rng)

    def check_invariants(self) -> None:
        """CMS audit: nonnegative cells; in plain-update mode every row
        carries exactly the total ingested weight (each batch adds its
        full weight to every row)."""
        name = "ParallelCountMin"
        require(self.table.shape == (self.depth, self.width), name, "table shape drifted")
        require(bool((self.table >= 0).all()), name, "negative cell count")
        require(len(self.hashes) == self.depth, name, "hash count != depth")
        row_sums = self.table.sum(axis=1)
        if not self.conservative:
            require(
                bool((row_sums == self.stream_length).all()),
                name,
                f"row sums {row_sums.tolist()} != total weight {self.stream_length}",
            )
        else:
            # Conservative update only ever writes less than plain update
            # would: no cell can exceed the total ingested weight.
            require(
                self.table.size == 0 or int(self.table.max()) <= self.stream_length,
                name,
                "conservative cell exceeds total ingested weight",
            )


class DyadicCountMin:
    """Dyadic stack of Count-Min sketches over universe [0, 2^L).

    Level j sketches the stream of j-bit-truncated items (dyadic
    intervals of length 2^j), enabling:

    * ``range_query(a, b)`` — sum of frequencies over [a, b] from at
      most 2L dyadic pieces;
    * ``quantile(q)`` — smallest x with rank ≥ q·m, by binary descent;
    * ``heavy_hitters(phi)`` — divide-and-conquer descent expanding
      only dyadic nodes above the φ·m threshold.
    """

    def __init__(
        self,
        eps: float,
        delta: float,
        universe_bits: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        if universe_bits < 1:
            raise ValueError("universe_bits must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0xD1AD)
        self.universe_bits = int(universe_bits)
        self.levels: list[ParallelCountMin] = [
            ParallelCountMin(eps, delta, rng) for _ in range(universe_bits + 1)
        ]
        self.stream_length = 0

    def ingest(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch, dtype=np.int64)
        if batch.size and (batch.min() < 0 or batch.max() >= (1 << self.universe_bits)):
            raise ValueError(
                f"items must lie in [0, 2^{self.universe_bits}); got "
                f"[{batch.min()}, {batch.max()}]"
            )
        with parallel() as par:
            for j, sketch in enumerate(self.levels):
                par.run(lambda j=j, s=sketch: s.ingest(batch >> j))
        self.stream_length += int(batch.size)

    extend = ingest

    def ingest_prepared(self, plan: PreparedBatch) -> None:
        """Dyadic levels sketch *shifted* copies of the batch, so only
        the cast is shareable — each level builds its own plan inside
        :meth:`ParallelCountMin.ingest`."""
        self.ingest(plan.values(np.int64))

    def point_query(self, item: int | np.ndarray) -> int | np.ndarray:
        """Level 0's point query: one int, or an int64 array for a 1-D
        integer key array."""
        return self.levels[0].point_query(
            item if isinstance(item, np.ndarray) else int(item)
        )

    def range_query(self, lo: int, hi: int) -> int:
        """Estimated number of stream items with value in [lo, hi]."""
        if lo > hi:
            return 0
        lo = max(0, int(lo))
        hi = min((1 << self.universe_bits) - 1, int(hi))
        total = 0
        # Standard dyadic decomposition: greedily take the largest
        # aligned block that fits at each end.
        while lo <= hi:
            j = 0
            while (
                j < self.universe_bits
                and lo % (1 << (j + 1)) == 0
                and lo + (1 << (j + 1)) - 1 <= hi
            ):
                j += 1
            total += self.levels[j].point_query(lo >> j)
            lo += 1 << j
        return total

    def quantile(self, q: float) -> int:
        """Approximate q-quantile: smallest x with rank(x) ≥ q·m."""
        if not 0 <= q <= 1:
            raise ValueError(f"q must be in [0, 1], got {q}")
        target = q * self.stream_length
        lo, hi = 0, (1 << self.universe_bits) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.range_query(0, mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def heavy_hitters(self, phi: float) -> dict[int, int]:
        """Items whose estimated frequency ≥ φ·m, by dyadic descent."""
        if not 0 < phi < 1:
            raise ValueError(f"phi must be in (0, 1), got {phi}")
        threshold = phi * self.stream_length
        if self.stream_length == 0:
            return {}
        result: dict[int, int] = {}
        # Frontier of (level, prefix) dyadic nodes above threshold.
        frontier = [(self.universe_bits, 0)]
        while frontier:
            level, prefix = frontier.pop()
            estimate = self.levels[level].point_query(prefix)
            if estimate < threshold:
                continue
            if level == 0:
                result[prefix] = estimate
            else:
                frontier.append((level - 1, prefix << 1))
                frontier.append((level - 1, (prefix << 1) | 1))
        return result

    @property
    def space(self) -> int:
        return sum(level.space for level in self.levels)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            **header("dyadic_countmin"),
            "universe_bits": self.universe_bits,
            "stream_length": self.stream_length,
            "levels": [level.state_dict() for level in self.levels],
        }

    def load_state(self, state: dict) -> None:
        expect(state, "dyadic_countmin")
        self.universe_bits = int(state["universe_bits"])
        self.stream_length = int(state["stream_length"])
        levels = state["levels"]
        if len(levels) != len(self.levels):
            # Rebuild the stack at the checkpointed geometry.
            self.levels = [
                ParallelCountMin(0.5, 0.5) for _ in range(len(levels))
            ]
        for sketch, sub in zip(self.levels, levels):
            sketch.load_state(sub)

    def check_invariants(self) -> None:
        name = "DyadicCountMin"
        require(
            len(self.levels) == self.universe_bits + 1,
            name,
            "level count != universe_bits + 1",
        )
        for j, level in enumerate(self.levels):
            require(
                level.stream_length == self.stream_length,
                name,
                f"level {j} saw {level.stream_length} items, expected "
                f"{self.stream_length}",
            )
            level.check_invariants()


# ----------------------------------------------------------------------
from repro.engine.registry import Capabilities, register  # noqa: E402

register(
    ParallelCountMin,
    summary="minibatch-parallel Count-Min sketch (Theorem 6.1)",
    input="items",
    caps=Capabilities(
        mergeable=True,
        preparable=True,
        invariant_checked=True,
        concurrent=True,
    ),
    build=lambda: ParallelCountMin(eps=0.05, delta=0.1, rng=np.random.default_rng(1)),
    probe=lambda op: op.point_query(np.arange(64)).tolist(),
)
register(
    DyadicCountMin,
    summary="dyadic CMS stack: range queries and quantiles [CM05]",
    input="items",
    caps=Capabilities(preparable=True, invariant_checked=True),
    build=lambda: DyadicCountMin(
        eps=0.05, delta=0.1, universe_bits=8, rng=np.random.default_rng(2)
    ),
    probe=lambda op: op.point_query(np.arange(64)).tolist() + [op.range_query(0, 63)],
)
