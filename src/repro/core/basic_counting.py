"""Parallel basic counting over a sliding window (Section 4, Thm 4.1).

Estimate the number of 1s in the last n bits with relative error ≤ ε
using S = O(ε⁻¹ log n) space; a minibatch of length µ costs O(S + µ)
work and polylog depth.

The construction keeps a *geometric ladder* of k+1 SBBCs, where
Γ_i is a (σ, λ_i)-SBBC(n) with λ_i = εn/2^i and σ = Θ(1/ε):

* coarse rungs (small i, big λ) never overflow and are accurate enough
  once the window is dense;
* fine rungs (big i, small λ) are precise for sparse windows but
  overflow — by design — when the count is large.

A query walks to the finest non-overflowed rung i*; the overflow of
rung i*+1 certifies m ≥ n/2^{i*}, which turns that rung's additive
error λ_{i*} = εn/2^{i*} into a relative error ≤ ε.

The capacity constant matters: the paper sets σ = 2/ε and argues
m ≥ σλ on overflow via Lemma 3.2; with integer block granularity the
provable bound is m ≥ γ(2σ−1) = λσ − λ/2, so we add one unit of slack
(σ = ⌈2/ε⌉ + 1) to keep the certificate m ≥ n/2^{i*} airtight.  This
changes space only by a constant factor.

All k+1 rungs live in one :class:`~repro.core.sbbc_bank.SBBCBank` with
per-rung λᵢ and the shared σ, so a minibatch advances the whole ladder
in one array pass; the ledger still charges one fork-join strand per
rung, exactly what k+1 separate SBBC advances would.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.sbbc_bank import SBBCBank, charge_unit_steps
from repro.pram.cost import parallel
from repro.pram.css import CSS, css_of_bits
from repro.resilience.invariants import require
from repro.resilience.state import StateError, expect, header

__all__ = ["ParallelBasicCounter"]


def _ladder(window: int, eps: float, sigma_slack: int) -> SBBCBank:
    """Fresh rungs i = 0..k, k = min{i : εn/2^i < 1}: (σ, εn/2^i)-SBBCs
    with σ = ⌈2/ε⌉ + ``sigma_slack``."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    k = 0
    while eps * window / (1 << k) >= 1:
        k += 1
    lams = [eps * window / (1 << i) for i in range(k + 1)]
    return SBBCBank(window, lams, k + 1, math.ceil(2.0 / eps) + sigma_slack)


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
        self.bank = _ladder(window, eps, sigma_slack)
        self.window = int(window)
        self.eps = float(eps)
        self.sigma_slack = sigma_slack
        self.t = 0
        charge_unit_steps(self.num_levels)  # one new() per rung

    @property
    def num_levels(self) -> int:
        return len(self.bank)

    # ------------------------------------------------------------------
    def advance(self, segment: CSS) -> None:
        """Feed one minibatch (as a CSS) to every rung, in parallel."""
        k = self.num_levels
        work, depth = self.bank.advance(
            np.arange(k, dtype=np.int64),
            np.tile(segment.ones, k),
            segment.count_ones * np.arange(k + 1, dtype=np.int64),
            segment.length,
        )
        with parallel() as par:
            par.charge_strands(work, depth)
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
        (rung 0 can never overflow since σ·λ_0 ≥ 2n > n), charging one
        O(1) read per rung walked from the finest down.
        """
        finest = int(np.flatnonzero(~self.bank.overflowed())[-1])
        charge_unit_steps(self.num_levels - finest)
        return int(self.bank.raw_values()[finest])

    @property
    def space(self) -> int:
        """Total words across all rungs — the Theorem 4.1 S = O(ε⁻¹ log n)."""
        return self.bank.space()

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            **header("basic_counting"),
            "window": self.window,
            "eps": self.eps,
            "num_levels": self.num_levels,
            "t": self.t,
            "counters": [self.bank.state_dict(i) for i in range(self.num_levels)],
        }

    def load_state(self, state: dict) -> None:
        """Restore a ladder; the rungs must be exactly those of (n, ε)
        and this counter's σ slack (anything else: :class:`StateError`)."""
        expect(state, "basic_counting")
        window, eps = int(state["window"]), float(state["eps"])
        bank = _ladder(window, eps, self.sigma_slack)
        rungs = state["counters"]
        if len(rungs) != len(bank) or int(state["num_levels"]) != len(bank):
            raise StateError(
                f"a ladder over n={window} with ε={eps} has {len(bank)} rungs; "
                f"the state holds {len(rungs)}"
            )
        if len(bank) != self.num_levels:
            charge_unit_steps(len(bank))  # the rungs are built anew
        bank.load_states(np.arange(len(bank), dtype=np.int64), rungs)
        self.window, self.eps, self.bank, self.t = window, eps, bank, int(state["t"])

    def check_invariants(self) -> None:
        """Ladder audit: the rungs are (n, ε)'s (count, λᵢ = εn/2^i, σ),
        each passes the SBBC audit, and all share the ladder clock (they
        all saw the same stream)."""
        name = "ParallelBasicCounter"
        expected = _ladder(self.window, self.eps, self.sigma_slack)
        require(
            len(self.bank) == len(expected) and (self.bank.lam == expected.lam).all(),
            name,
            f"rungs {self.bank.lam.tolist()} are not λ_i = εn/2^i "
            f"{expected.lam.tolist()}",
        )
        require(self.bank.sigma == expected.sigma, name,
                f"rung capacity σ={self.bank.sigma} != ⌈2/ε⌉+slack={expected.sigma}")
        require((self.bank.t == self.t).all(), name,
                f"rung clocks {self.bank.t.tolist()} != ladder clock {self.t}")
        self.bank.check_invariants(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelBasicCounter(window={self.window}, eps={self.eps}, "
            f"levels={self.num_levels}, t={self.t})"
        )


# ----------------------------------------------------------------------
from repro.engine.registry import Capabilities, register  # noqa: E402

register(
    ParallelBasicCounter,
    summary="eps-approximate basic counting over a sliding window (S4)",
    input="bits",
    caps=Capabilities(preparable=True, windowed=True, invariant_checked=True),
    build=lambda: ParallelBasicCounter(window=64, eps=0.25),
    probe=lambda op: op.query(),
)
