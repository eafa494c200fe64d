"""Parallel infinite-window frequency estimation (§5.2, Theorem 5.2).

Keep an MG summary of S = ⌈1/ε⌉ counters; to process a minibatch of
size µ, build its histogram with ``buildHist`` (Theorem 2.3, O(µ) work)
and fold it in with ``MGaugment`` (Lemma 5.3, O(S + p) work).  Total:
O(ε⁻¹ + µ) work and polylog depth per minibatch — work-optimal once
µ = Ω(1/ε) (Corollary 5.11), and estimates satisfy
``f_e − εm <= f̂_e <= f_e``.
"""

from __future__ import annotations

import pickle
from typing import Hashable, Sequence

import numpy as np

from repro.core.misra_gries import capacity_for_eps, mg_augment, mg_augment_arrays
from repro.pram.plan import PreparedBatch
from repro.resilience.invariants import require
from repro.resilience.state import expect, header, restore_rng, rng_state

__all__ = ["ParallelFrequencyEstimator"]


class ParallelFrequencyEstimator:
    """Minibatch-parallel Misra-Gries frequency estimation (Thm 5.2).

    Parameters
    ----------
    eps:
        Error parameter ε; estimates satisfy f̂ ∈ [f − εm, f] where m is
        the stream length so far.
    rng:
        Randomness for ``buildHist``'s hash function (reproducible by
        default).
    """

    def __init__(
        self, eps: float, rng: np.random.Generator | None = None
    ) -> None:
        self.eps = float(eps)
        self.capacity = capacity_for_eps(eps)
        self.counters: dict[Hashable, int] = {}
        self.stream_length = 0
        self._rng = rng if rng is not None else np.random.default_rng(0x1F1D)

    def ingest(self, batch: Sequence[Hashable] | np.ndarray) -> None:
        """Process one minibatch: buildHist → MGaugment."""
        self.ingest_prepared(PreparedBatch(batch))

    extend = ingest

    def ingest_prepared(self, plan: PreparedBatch) -> None:
        """buildHist → MGaugment over a (possibly shared) batch plan.

        Integer batches stay in array form end to end
        (:func:`mg_augment_arrays`); other universes fall back to the
        dict-shaped :func:`mg_augment` — identical semantics and
        charges either way.
        """
        if plan.size == 0:
            return
        if plan.is_integer:
            keys, freqs = plan.sorted_hist_arrays()
            self.counters = mg_augment_arrays(
                self.counters, keys, freqs, self.capacity
            )
        else:
            histogram = plan.hist_dict()
            self.counters = mg_augment(self.counters, histogram, self.capacity)
        self.stream_length += plan.size

    def estimate(self, item: Hashable) -> int:
        """f̂_e ∈ [f_e − εm, f_e]."""
        return self.counters.get(item, 0)

    def estimates(self) -> dict[Hashable, int]:
        """All currently-tracked (item, f̂) pairs."""
        return dict(self.counters)

    def top_k(self, k: int) -> list[tuple[Hashable, int]]:
        """The k tracked items with the largest estimates, descending.

        Meaningful for k ≲ 1/ε: items beyond the summary's resolution
        are indistinguishable from frequency ≤ εm.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        ranked = sorted(self.counters.items(), key=lambda kv: -kv[1])
        return ranked[:k]

    @property
    def space(self) -> int:
        """Words of state — Theorem 5.2's O(ε⁻¹)."""
        return len(self.counters) + 2

    def merge(self, other: "ParallelFrequencyEstimator") -> None:
        """Fold another estimator of the same capacity into this one
        (mergeable summaries, [ACH+13]): the other's counters are a
        deficient histogram of its stream, so ``MGaugment`` (Lemma 5.3)
        merges them with the usual additive-error composition —
        estimates for the concatenated stream stay within ε(m₁+m₂)."""
        if self.capacity != other.capacity:
            raise ValueError(
                f"capacity mismatch: {self.capacity} != {other.capacity}"
            )
        self.counters = mg_augment(self.counters, other.counters, self.capacity)
        self.stream_length += other.stream_length

    def fresh_clone(self) -> "ParallelFrequencyEstimator":
        """An empty estimator with identical configuration (including
        the hash rng cursor) — the per-shard accumulator for sharded
        ingest / merge trees."""
        clone = pickle.loads(pickle.dumps(self))
        clone.counters = {}
        clone.stream_length = 0
        return clone

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            **header("freq_infinite"),
            "eps": self.eps,
            "capacity": self.capacity,
            "counters": dict(self.counters),
            "stream_length": self.stream_length,
            "rng": rng_state(self._rng),
        }

    def load_state(self, state: dict) -> None:
        expect(state, "freq_infinite")
        self.eps = float(state["eps"])
        self.capacity = int(state["capacity"])
        self.counters = dict(state["counters"])
        self.stream_length = int(state["stream_length"])
        self._rng = restore_rng(state["rng"], into=self._rng)

    def check_invariants(self) -> None:
        """Theorem 5.2 audit: at most S counters, all positive, total
        counter mass bounded by the stream length."""
        name = "ParallelFrequencyEstimator"
        require(
            len(self.counters) <= self.capacity,
            name,
            f"{len(self.counters)} counters exceed capacity {self.capacity}",
        )
        require(
            all(c >= 1 for c in self.counters.values()),
            name,
            "every retained counter must be positive",
        )
        require(
            sum(self.counters.values()) <= self.stream_length,
            name,
            "counter mass exceeds stream length",
        )


# ----------------------------------------------------------------------
from repro.engine.registry import Capabilities, register  # noqa: E402

register(
    ParallelFrequencyEstimator,
    summary="minibatch-parallel MG frequency estimation (Theorem 5.2)",
    input="items",
    caps=Capabilities(
        mergeable=True, preparable=True, invariant_checked=True, concurrent=True
    ),
    build=lambda: ParallelFrequencyEstimator(eps=0.1),
    probe=lambda op: [op.estimate(i) for i in range(64)],
)
