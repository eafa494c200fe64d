"""Frozen object forms of the SBBC and the basic-counting ladder.

Verbatim copies of the per-counter implementation that
:class:`~repro.core.sbbc_bank.SBBCBank` replaced: one ``SBBC`` object
per counter, each with its own sampling, eviction, truncation and
decrement code, and a ``ParallelBasicCounter`` holding a list of k+1 of
them advanced as separate fork-join strands.  The pin tests hold the
bank, the one-slot ``SBBC`` view and the bank-backed ladder to these:
the same answers, state and ledger.  The only intended difference is
the truncation record, which these keep as an unbounded event list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.sbbc import OVERFLOWED, Overflowed
from repro.core.snapshot import GammaSnapshot
from repro.pram.cost import charge, parallel
from repro.pram.css import CSS, css_of_bits
from repro.pram.primitives import log2ceil
from repro.resilience.invariants import require
from repro.resilience.state import expect, header

__all__ = ["SBBC", "ParallelBasicCounter", "TruncationEvent"]


@dataclass(frozen=True)
class TruncationEvent:
    """Recorded whenever capacity forces a snapshot truncation.

    ``value_before`` is γ|Q|+ℓ just before dropping blocks — by
    Lemma 3.2 the window then held at least ``value_before − 2γ`` ones,
    the quantity benchmark E5 checks against the σ·λ bound.
    """

    t: int
    blocks_before: int
    value_before: int


class SBBC:
    """A (σ, λ)-space-bounded block counter for a size-``window`` sliding
    window (Theorem 3.4).

    Parameters
    ----------
    window:
        The window size n.
    lam:
        λ — the additive-error / block-granularity parameter (> 0; may
        be fractional, e.g. εn/2^i from the basic-counting ladder).
    sigma:
        σ — the space budget; the structure never stores more than 2σ
        blocks.  ``math.inf`` (default) disables truncation, giving the
        (∞, λ)-SBBC the frequency algorithms use.
    """

    __slots__ = (
        "window",
        "lam",
        "sigma",
        "gamma",
        "t",
        "r",
        "_blocks",
        "_ell",
        "truncations",
    )

    def __init__(self, window: int, lam: float, sigma: float = math.inf) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if lam <= 0:
            raise ValueError(f"lambda must be > 0, got {lam}")
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.window = int(window)
        self.lam = float(lam)
        # Canonical float so live and checkpoint-restored instances
        # serialize to identical bytes (load_state floats it too).
        self.sigma = float(sigma)
        self.gamma = max(1, int(lam // 2))
        self.t = 0  # global stream length ingested
        self.r = 0  # coverage: snapshot represents W_r(S_t)
        self._blocks = np.empty(0, dtype=np.int64)
        self._ell = 0
        self.truncations: list[TruncationEvent] = []
        charge(work=1, depth=1)  # new()

    # ------------------------------------------------------------------
    # Interface of Theorem 3.4
    # ------------------------------------------------------------------
    def advance(self, segment: CSS) -> None:
        """Incorporate a minibatch encoded as a CSS.

        Samples every γ-th 1 (continuing the phase ℓ left off at),
        appends their block ids, evicts blocks that slid out of the
        window, and truncates to capacity.
        """
        gamma = self.gamma
        k0 = segment.count_ones

        # --- sample every γ-th one among the incoming 1s ---------------
        num_samples = (self._ell + k0) // gamma
        if num_samples:
            # 0-based indices into segment.ones of the sampled 1s.
            first = gamma - self._ell - 1
            idx = first + gamma * np.arange(num_samples, dtype=np.int64)
            global_pos = self.t + segment.ones[idx]
            new_blocks = (global_pos + gamma - 1) // gamma
            self._ell = self._ell + k0 - num_samples * gamma
        else:
            new_blocks = np.empty(0, dtype=np.int64)
            self._ell += k0

        self.t += segment.length
        self.r = min(self.r + segment.length, self.window)

        blocks = np.concatenate([self._blocks, new_blocks])

        # --- evict blocks that no longer overlap the covered window ----
        window_start = self.t - self.r + 1
        blocks = blocks[blocks * gamma >= window_start]

        # --- capacity truncation (shrink coverage, not accuracy) -------
        cap = 2 * self.sigma
        if blocks.size > cap:
            keep = int(cap)
            value_before = gamma * int(blocks.size) + self._ell
            self.truncations.append(
                TruncationEvent(
                    t=self.t, blocks_before=int(blocks.size), value_before=value_before
                )
            )
            blocks = blocks[-keep:]
            # Coverage starts at the first position of the oldest kept block.
            self.r = min(self.r, self.t - (int(blocks[0]) - 1) * gamma)

        self._blocks = blocks
        q = int(blocks.size)
        charge(
            work=max(1, num_samples + q + 1),
            depth=1 + log2ceil(max(2, num_samples + q)),
        )

    def ingest(self, bits: np.ndarray) -> None:
        """Incorporate a minibatch of raw 0/1 bits (StreamOperator verb
        — compresses to a CSS, then :meth:`advance`)."""
        self.advance(css_of_bits(np.asarray(bits)))

    extend = ingest

    def query(self) -> GammaSnapshot | Overflowed:
        """Return the window snapshot, or OVERFLOWED if the snapshot's
        coverage r fell below the requested window (Theorem 3.4:
        OVERFLOWED certifies m ≳ σ·λ)."""
        charge(work=1, depth=1)
        if self.overflowed:
            return OVERFLOWED
        return GammaSnapshot(gamma=self.gamma, blocks=self._blocks, ell=self._ell)

    def decrement(self, amount: int) -> None:
        """Subtract exactly ``amount`` from the counter's value.

        Drops the newest blocks and adjusts ℓ so that the value drops by
        exactly ``amount`` (clamped at zero).  O(|Q|) work.
        """
        if amount < 0:
            raise ValueError(f"decrement amount must be >= 0, got {amount}")
        q = int(self._blocks.size)
        charge(work=max(1, q), depth=1 + log2ceil(max(2, q)))
        if amount == 0:
            return
        gamma = self.gamma
        value = gamma * q + self._ell
        if amount >= value:
            self._blocks = np.empty(0, dtype=np.int64)
            self._ell = 0
            return
        if amount < self._ell:
            self._ell -= amount
            return
        drop = -(-(amount - self._ell) // gamma)  # ceil division
        self._blocks = self._blocks[: q - drop]
        self._ell = gamma * drop - (amount - self._ell)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def overflowed(self) -> bool:
        """True when coverage is short of the full (available) window."""
        return self.r < min(self.t, self.window)

    def raw_value(self) -> int:
        """γ|Q| + ℓ regardless of coverage (the counter's value over the
        covered window W_r; equals the Theorem 3.4 value when not
        overflowed)."""
        charge(work=1, depth=1)
        return self.gamma * int(self._blocks.size) + self._ell

    def value(self) -> int | None:
        """Corollary 3.5's m̂ ∈ [m, m+λ], or ``None`` when OVERFLOWED."""
        charge(work=1, depth=1)
        if self.overflowed:
            return None
        return self.gamma * int(self._blocks.size) + self._ell

    def peek_shrunk_value(self, slide: int) -> int:
        """The value this counter will report after the window slides by
        ``slide`` more positions, *excluding* any new 1s — i.e.
        ``val(shrink(Γ.query()))`` from the ``predict`` routine of
        Theorem 5.4.  O(|Q|) work; does not mutate the counter.
        """
        if slide < 0:
            raise ValueError("slide must be >= 0")
        q = int(self._blocks.size)
        charge(work=max(1, q), depth=1 + log2ceil(max(2, q)))
        new_start = self.t + slide - min(self.r + slide, self.window) + 1
        kept = int(np.count_nonzero(self._blocks * self.gamma >= new_start))
        return self.gamma * kept + self._ell

    @property
    def space(self) -> int:
        """Words of state: |Q| plus O(1) registers."""
        return int(self._blocks.size) + 4

    # ------------------------------------------------------------------
    # Checkpoint/restore + invariant audit
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            **header("sbbc"),
            "window": self.window,
            "lam": self.lam,
            "sigma": self.sigma,
            "gamma": self.gamma,
            "t": self.t,
            "r": self.r,
            "blocks": self._blocks,
            "ell": self._ell,
            "truncations": [
                {"t": e.t, "blocks_before": e.blocks_before, "value_before": e.value_before}
                for e in self.truncations
            ],
        }

    def load_state(self, state: dict) -> None:
        expect(state, "sbbc")
        self.window = int(state["window"])
        self.lam = float(state["lam"])
        self.sigma = float(state["sigma"])
        self.gamma = int(state["gamma"])
        self.t = int(state["t"])
        self.r = int(state["r"])
        self._blocks = np.asarray(state["blocks"], dtype=np.int64).copy()
        self._ell = int(state["ell"])
        self.truncations = [
            TruncationEvent(
                t=int(e["t"]),
                blocks_before=int(e["blocks_before"]),
                value_before=int(e["value_before"]),
            )
            for e in state["truncations"]
        ]

    def check_invariants(self) -> None:
        """Theorem 3.4 structural audit: block monotonicity, residual
        range, coverage, and the 2σ capacity bound."""
        name = "SBBC"
        require(self.gamma == max(1, int(self.lam // 2)), name, "gamma drifted from λ")
        require(0 <= self._ell < max(1, self.gamma), name,
                f"residual ℓ={self._ell} outside [0, γ={self.gamma})")
        require(0 <= self.r <= min(self.t, self.window), name,
                f"coverage r={self.r} outside [0, min(t={self.t}, n={self.window})]")
        blocks = self._blocks
        if blocks.size:
            require(bool((np.diff(blocks) > 0).all()), name,
                    "block ids must be strictly increasing")
            require(int(blocks[0]) >= 1, name, "block ids are 1-based")
            require(
                int(blocks[-1]) <= -(-self.t // self.gamma),
                name,
                f"block {int(blocks[-1])} lies beyond stream position t={self.t}",
            )
        if self.sigma != math.inf:
            require(blocks.size <= 2 * self.sigma, name,
                    f"|Q|={blocks.size} exceeds capacity 2σ={2 * self.sigma}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "OVERFLOWED" if self.overflowed else f"val={self.raw_value()}"
        return (
            f"SBBC(window={self.window}, lam={self.lam}, sigma={self.sigma}, "
            f"t={self.t}, r={self.r}, |Q|={self._blocks.size}, {state})"
        )


class ParallelBasicCounter:
    """ε-approximate count of 1s in a size-n sliding window (Thm 4.1).

    Parameters
    ----------
    window:
        Window size n.
    eps:
        Relative-error bound ε ∈ (0, 1].
    sigma_slack:
        Extra capacity beyond the paper's 2/ε (see module docstring).
    """

    def __init__(self, window: int, eps: float, *, sigma_slack: int = 1) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0 < eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        self.window = int(window)
        self.eps = float(eps)
        # k = min{i : εn / 2^i < 1}
        k = 0
        while eps * window / (1 << k) >= 1:
            k += 1
        self.num_levels = k + 1
        sigma = math.ceil(2.0 / eps) + sigma_slack
        self.counters: list[SBBC] = [
            SBBC(window, lam=eps * window / (1 << i), sigma=sigma) for i in range(k + 1)
        ]
        self.t = 0

    # ------------------------------------------------------------------
    def advance(self, segment: CSS) -> None:
        """Feed one minibatch (as a CSS) to every rung, in parallel."""
        with parallel() as par:
            for counter in self.counters:
                par.run(counter.advance, segment)
        self.t += segment.length

    def ingest(self, bits: np.ndarray) -> None:
        """Convenience: CSS-encode a raw bit minibatch and advance."""
        self.advance(css_of_bits(np.asarray(bits)))

    # alias so the class satisfies stream.StreamOperator
    extend = ingest

    def ingest_prepared(self, plan) -> None:
        self.ingest(plan.values())

    def query(self) -> int:
        """ε-relative-error estimate of the window's 1s count.

        Returns the value of the finest rung that did not overflow
        (rung 0 can never overflow since σ·λ_0 ≥ 2n > n).
        """
        finest: int | None = None
        for counter in reversed(self.counters):
            value = counter.value()
            if value is not None:
                finest = value
                break
        if finest is None:  # pragma: no cover - rung 0 cannot overflow
            raise RuntimeError("all rungs overflowed; σλ_0 >= 2n should prevent this")
        return finest

    @property
    def space(self) -> int:
        """Total words across all rungs — the Theorem 4.1 S = O(ε⁻¹ log n)."""
        return sum(c.space for c in self.counters)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            **header("basic_counting"),
            "window": self.window,
            "eps": self.eps,
            "num_levels": self.num_levels,
            "t": self.t,
            "counters": [c.state_dict() for c in self.counters],
        }

    def load_state(self, state: dict) -> None:
        expect(state, "basic_counting")
        self.window = int(state["window"])
        self.eps = float(state["eps"])
        self.num_levels = int(state["num_levels"])
        self.t = int(state["t"])
        rungs = state["counters"]
        if len(rungs) != len(self.counters):
            self.counters = [SBBC(self.window, lam=1.0) for _ in rungs]
        for counter, sub in zip(self.counters, rungs):
            counter.load_state(sub)

    def check_invariants(self) -> None:
        """Ladder audit: rung count, per-rung SBBC invariants, and a
        shared clock across all rungs (they all saw the same stream)."""
        name = "ParallelBasicCounter"
        require(len(self.counters) == self.num_levels, name, "rung count drifted")
        for i, counter in enumerate(self.counters):
            require(
                counter.t == self.t,
                name,
                f"rung {i} clock {counter.t} != ladder clock {self.t}",
            )
            counter.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelBasicCounter(window={self.window}, eps={self.eps}, "
            f"levels={self.num_levels}, t={self.t})"
        )
