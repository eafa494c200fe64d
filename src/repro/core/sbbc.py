"""The (σ, λ)-space-bounded block counter (Section 3.2, Theorem 3.4).

An SBBC maintains a (λ/2)-snapshot of a sliding window over a binary
stream, ingesting whole minibatches (encoded as CSSs) in parallel, with
three extra twists over the static snapshot:

* **capacity σ** — if the snapshot would exceed 2σ blocks, it is
  truncated to cover a *smaller* window of size r < n; ``query`` then
  reports OVERFLOWED, which certifies that the window holds at least
  ≈ σ·λ ones (the coarse lower bound the basic-counting ladder uses);
* **decrement(r)** — subtract exactly r from the counter's value, used
  to mimic Misra-Gries decrements in the sliding-window frequency
  algorithms (Section 5.3);
* **value semantics** — by Corollary 3.5, when not overflowed,
  ``m <= value <= m + λ`` for the true count m of 1s in the window.

Block size is γ = max(1, ⌊λ/2⌋); for λ < 2 the counter degenerates to
*exact* counting (every 1 is sampled into its own unit block), which is
what the finest rung of the Theorem 4.1 ladder needs.

:class:`SBBC` is a one-slot view over :class:`~repro.core.sbbc_bank.SBBCBank`,
the one implementation of the counter; each method charges what the
bank returns for its slot.

Cost: ``advance`` charges O(#new samples + |Q|) work ≤ the theorem's
O(min(σ, m/λ) + |T|/λ); ``decrement`` O(|Q|) = O(m/λ); ``query`` and
``value`` O(1); all depths polylogarithmic.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.sbbc_bank import SBBCBank
from repro.core.snapshot import GammaSnapshot
from repro.pram.cost import charge
from repro.pram.css import CSS, css_of_bits
from repro.resilience.state import expect

__all__ = ["SBBC", "OVERFLOWED", "Overflowed"]

_SLOT = np.zeros(1, dtype=np.int64)


class Overflowed:
    """Sentinel type for the OVERFLOWED query result (Theorem 3.4)."""

    _instance: "Overflowed | None" = None

    def __new__(cls) -> "Overflowed":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OVERFLOWED"

    def __bool__(self) -> bool:
        return False


#: The singleton returned by :meth:`SBBC.query` when the snapshot has
#: been truncated below the requested window size.
OVERFLOWED = Overflowed()


def _slot_field(name: str, cast: type) -> property:
    return property(lambda self: cast(getattr(self.bank, name)[0]))


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
        σ — the space budget (>= 1/2); the structure never stores more
        than 2σ blocks.  ``math.inf`` (default) disables truncation,
        giving the (∞, λ)-SBBC the frequency algorithms use.
    """

    __slots__ = ("bank",)

    lam = _slot_field("lam", float)
    gamma = _slot_field("gamma", int)
    t = _slot_field("t", int)  # global stream length ingested
    r = _slot_field("r", int)  # coverage: snapshot represents W_r(S_t)
    #: How many advances truncated to capacity.
    truncations = _slot_field("truncations", int)

    def __init__(self, window: int, lam: float, sigma: float = math.inf) -> None:
        self.bank = SBBCBank(window, lam, 1, sigma)
        charge(work=1, depth=1)  # new()

    @property
    def window(self) -> int:
        return self.bank.window

    @property
    def sigma(self) -> float:
        return self.bank.sigma

    @property
    def min_value_before(self) -> int | None:
        """The weakest OVERFLOWED certificate: the smallest γ|Q|+ℓ held
        just before a truncation (the window then held at least that
        minus 2γ ones; Lemma 3.2), or ``None`` if none happened."""
        return int(self.bank.min_value_before[0]) if self.truncations else None

    # ------------------------------------------------------------------
    # Interface of Theorem 3.4
    # ------------------------------------------------------------------
    def advance(self, segment: CSS) -> None:
        """Incorporate a minibatch encoded as a CSS: sample every γ-th 1
        (continuing the phase ℓ left off at), append their block ids,
        evict blocks that slid out of the window, truncate to capacity."""
        offsets = np.array([0, segment.count_ones], dtype=np.int64)
        work, depth = self.bank.advance(_SLOT, segment.ones, offsets, segment.length)
        charge(work=int(work[0]), depth=int(depth[0]))

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
        ell = int(self.bank.ell[0])
        return GammaSnapshot(gamma=self.gamma, blocks=self.bank.blocks, ell=ell)

    def decrement(self, amount: int) -> None:
        """Subtract exactly ``amount`` from the counter's value: drop the
        newest blocks and adjust ℓ (clamped at zero).  O(|Q|) work."""
        work, depth = self.bank.decrement(_SLOT, amount)
        charge(work=int(work[0]), depth=int(depth[0]))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def overflowed(self) -> bool:
        """True when coverage is short of the full (available) window."""
        return bool(self.bank.overflowed()[0])

    def raw_value(self) -> int:
        """γ|Q| + ℓ regardless of coverage (the counter's value over the
        covered window W_r; equals the Theorem 3.4 value when not
        overflowed)."""
        charge(work=1, depth=1)
        return int(self.bank.raw_values()[0])

    def value(self) -> int | None:
        """Corollary 3.5's m̂ ∈ [m, m+λ], or ``None`` when OVERFLOWED."""
        charge(work=1, depth=1)
        return None if self.overflowed else int(self.bank.raw_values()[0])

    def peek_shrunk_value(self, slide: int) -> int:
        """The value this counter will report after the window slides by
        ``slide`` more positions, *excluding* any new 1s — i.e.
        ``val(shrink(Γ.query()))`` from the ``predict`` routine of
        Theorem 5.4.  O(|Q|) work; does not mutate the counter.
        """
        values, work, depth = self.bank.peek_shrunk_values(_SLOT, slide)
        charge(work=int(work[0]), depth=int(depth[0]))
        return int(values[0])

    @property
    def space(self) -> int:
        """Words of state: |Q| plus O(1) registers."""
        return self.bank.space()

    # ------------------------------------------------------------------
    # Checkpoint/restore + invariant audit
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return self.bank.state_dict(0)

    def load_state(self, state: dict) -> None:
        expect(state, "sbbc")
        self.bank = SBBCBank.from_states(
            int(state["window"]), float(state["lam"]), [state], float(state["sigma"])
        )

    def check_invariants(self) -> None:
        """Theorem 3.4 structural audit: block monotonicity, residual
        range, coverage, and the 2σ capacity bound."""
        self.bank.check_invariants("SBBC")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "OVERFLOWED" if self.overflowed else f"val={self.bank.raw_values()[0]}"
        return (
            f"SBBC(window={self.window}, lam={self.lam}, sigma={self.sigma}, "
            f"t={self.t}, r={self.r}, |Q|={self.bank.blocks.size}, {state})"
        )


# ----------------------------------------------------------------------
from repro.engine.registry import Capabilities, register  # noqa: E402

register(
    SBBC,
    summary="space-bounded block counter, m-hat in [m, m+lam] (S3)",
    input="bits",
    caps=Capabilities(windowed=True, invariant_checked=True),
    build=lambda: SBBC(window=64, lam=4.0),
    probe=lambda op: op.value(),
)
