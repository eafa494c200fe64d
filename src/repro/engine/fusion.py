"""The one Count-Min / Count-Sketch table update: a fused kernel over
every sketch of a pipeline, fed by one shared batch plan.

Theorem 6.1's minibatch update is buildHist, then for every row add the
frequencies of all keys that hash to the same column in one shot.  A
:class:`FusedIngestPlan` runs that step for every fusable operator
(plain Count-Min, Count-Sketch) of a name → operator mapping at once,
and it is the *only* way their tables change: the minibatch driver's
step, the concurrent buffers and each sketch's own ``ingest`` /
``ingest_prepared`` (a one-operator plan) all go through it.

* the polynomial coefficients of every (operator, row) hash are stacked
  into one ``(R, k_max)`` matrix (leading-zero padded — Horner over
  leading zeros evaluates the same polynomial), so one vectorized
  mod-Mersenne pass yields every hash column at once; the stacked
  matrix is memoized on the plan and rebuilt only when an operator's
  hash objects change (``load_state`` of a state with other hash
  functions);
* the evaluation is division-free: each ``% p`` becomes two Mersenne
  folds (``2^31 ≡ 1 (mod p)``, so ``y → (y >> 31) + (y & p)`` preserves
  the residue), trading the non-vectorizable hardware division for
  shift/mask/add and leaving exactly one division pass (the per-row
  range map) in the whole kernel;
* each operator applies its batch delta with one **sparse integer
  scatter** (``np.add.at``) over the ~|batch| distinct keys of all its
  rows, instead of a width-proportional dense pass per row — on a fine
  Count-Sketch row (width 750 000, ≈3 600 distinct keys) that is three
  orders of magnitude less memory traffic;
* scratch lives in a :class:`~repro.pram.arena.BatchArena`: high-water
  buffers keyed by shape class, reused across minibatches, so
  steady-state ingest performs zero per-batch scratch allocations on
  the int fast path (observable via span ``alloc_blocks`` counters and
  the ``repro_arena_*`` gauges).

Exactness.  The kernel phase runs under a throwaway scratch ledger;
operators then charge the paper's per-row strands (hash evaluation
+ the O(p + w) gather) arithmetically in :meth:`ingest_fused`.  Values
are exact too: the lazy Horner residues stay congruent (mod p) to the
serial chain and one exact conditional subtract lands them in
``[0, p)`` before the range map, so every column and sign equals
``KWiseHash.__call__``'s, and each table cell receives the exact integer
sum of its keys' signed frequencies.  ``tests/test_sketch_update_pin.py``
pins states and ledger totals against a frozen copy of the per-row
``bincount`` update this kernel replaced; bench E18 times both.

A negative integer key is rejected by
:meth:`~repro.pram.plan.PreparedBatch.sketch_hist` before any operator
of the mapping runs, so a rejected batch changes no state.  Operators
that cannot fuse (conservative-update CMS, the MG family, dyadic
stacks) run their own ``ingest_prepared`` / ``ingest`` inside the same
execution, in mapping order, so a mixed pipeline needs no opt-in.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.observability.metrics import REGISTRY
from repro.pram.arena import BatchArena
from repro.pram.cost import CostLedger, tracking
from repro.pram.hashing import MERSENNE_P, fold_schedule, mersenne_fold

__all__ = ["FusedIngestPlan"]

# Kernel constants as ready-made uint64 scalars: p = 2^31 - 1 is the
# KWiseHash Mersenne prime, and 2^31 ≡ 1 (mod p) is what makes the
# shift-and-add fold in :func:`~repro.pram.hashing.mersenne_fold`
# residue-preserving.
_PRIME = np.uint64(MERSENNE_P)
_ONE = np.uint64(1)

_M_FUSED_BATCHES = REGISTRY.counter(
    "repro_fused_batches_total",
    "minibatches ingested through the fused multi-operator kernel",
)
_M_ARENA_BYTES = REGISTRY.gauge(
    "repro_arena_bytes",
    "bytes held by the fused-ingest BatchArena's high-water buffers",
)
_M_ARENA_REUSE = REGISTRY.gauge(
    "repro_arena_reuse_ratio",
    "fraction of arena takes served without allocating (1.0 = steady state)",
)


class _Group:
    """One fused operator's contiguous run of stacked gather rows."""

    __slots__ = ("name", "op", "rows", "width", "row_lo", "row_hi", "signed")

    def __init__(self, name: str, op: Any, rows: int, width: int, row_lo: int) -> None:
        self.name = name
        self.op = op
        self.rows = rows
        self.width = width
        self.row_lo = row_lo
        self.row_hi = row_lo + rows
        self.signed = False


class FusedIngestPlan:
    """One batched ingest kernel over every fusable operator in a
    pipeline, serial-exact in states and ledger charges.

    Parameters
    ----------
    operators:
        The pipeline's live name → operator mapping (the same dict the
        driver iterates — held by reference, not copied, so operator
        replacement is observed).
    arena:
        Scratch :class:`~repro.pram.arena.BatchArena`; a private one is
        created when omitted.  Sharing an arena across plans is safe as
        long as their ``execute`` calls don't interleave.
    """

    def __init__(
        self, operators: Mapping[str, Any], arena: BatchArena | None = None
    ) -> None:
        self.operators = operators
        self.arena = arena if arena is not None else BatchArena()
        self._build()

    # ------------------------------------------------------------------
    @staticmethod
    def _gathers_of(op: Any) -> list[tuple[Any, int, Any]] | None:
        """The operator's fused gather rows, or ``None`` when it must
        fall back to its own serial path."""
        if callable(getattr(op, "fused_gathers", None)) and callable(
            getattr(op, "ingest_fused", None)
        ):
            return op.fused_gathers() or None
        return None

    def _signature(self) -> list[tuple[str, int, tuple | None]]:
        """Identity fingerprint of the stacked kernel inputs.  Hash
        *objects* are compared by id: ``load_state`` swaps in fresh
        ``KWiseHash`` instances when the state's hash functions differ,
        which must trigger a restack (equal ones are kept)."""
        sig = []
        for name, op in self.operators.items():
            gathers = self._gathers_of(op)
            fused = (
                tuple((id(h), width, id(s)) for h, width, s in gathers)
                if gathers
                else None
            )
            sig.append((name, id(op), fused))
        return sig

    def _build(self) -> None:
        order: list[tuple[str, Any, str]] = []
        fusable: list[tuple[str, Any, list[tuple[Any, int, Any]]]] = []
        for name, op in self.operators.items():
            gathers = self._gathers_of(op)
            if gathers and any(w != gathers[0][1] for _, w, _ in gathers):
                raise ValueError(f"{name}: fused gather rows must share one width")
            if gathers:
                order.append((name, op, "fused"))
                fusable.append((name, op, gathers))
            elif callable(getattr(op, "ingest_prepared", None)):
                order.append((name, op, "prepared"))
            else:
                order.append((name, op, "plain"))
        # Stack groups in descending hash degree (stable within a
        # degree) so the kernel's per-degree evaluation runs touch
        # contiguous row slices instead of interleaved k=4 / k=2 rows.
        fusable.sort(key=lambda item: -max(h.k for h, _, _ in item[2]))
        groups: list[_Group] = []
        gather_hashes: list[Any] = []  # rows 0..G-1 of the stacked matrix
        sign_hashes: list[Any] = []  # rows G.. of the stacked matrix
        sign_pairs: list[tuple[int, int]] = []  # (gather row, sign row)
        for name, op, gathers in fusable:
            groups.append(
                _Group(name, op, len(gathers), gathers[0][1], len(gather_hashes))
            )
            for h, width, sign in gathers:
                if sign is not None:
                    sign_pairs.append((len(gather_hashes), len(sign_hashes)))
                    sign_hashes.append(sign)
                gather_hashes.append(h)
        self._order = order
        self._groups = groups
        self._sign_pairs = sign_pairs
        self._n_gather = len(gather_hashes)
        all_hashes = gather_hashes + sign_hashes
        if all_hashes:
            kmax = max(h.k for h in all_hashes)
            coeffs = np.zeros((len(all_hashes), kmax), dtype=np.uint64)
            for row, h in enumerate(all_hashes):
                # Right-aligned: row coeffs occupy the low-order slots,
                # so a degree-(k-1) row reads ``coeffs[row, kmax-k:]``.
                coeffs[row, kmax - h.k :] = h.coeffs
            self._coeffs = coeffs
            self._ranges = np.fromiter(
                (h.range_size for h in all_hashes),
                dtype=np.uint64,
                count=len(all_hashes),
            )
            self._signs_are_bits = all(h.range_size == 2 for h in sign_hashes)
            # Maximal runs of equal-degree rows: each run is evaluated
            # with exactly the passes its own degree needs.
            ks = [h.k for h in all_hashes]
            runs: list[tuple[int, int, int, tuple[int, ...] | None]] = []
            lo = 0
            for row in range(1, len(ks) + 1):
                if row == len(ks) or ks[row] != ks[lo]:
                    k = ks[lo]
                    plan = fold_schedule(k) if k > 4 else None
                    runs.append((lo, row, k, plan))
                    lo = row
            self._runs = runs
            self._pow_max = max(
                [k - 1 for _, _, k, plan in runs if plan is None] + [1]
            )
            # Flat column offset per gather row: row i of a group's
            # table lives at [i*width, (i+1)*width) in the table's flat
            # view, so adding the offset up front lets each operator
            # apply ALL its rows with one scatter.
            self._flat_offsets = np.concatenate(
                [
                    np.arange(grp.rows, dtype=np.uint64) * np.uint64(grp.width)
                    for grp in groups
                ]
            )[:, None] if groups else np.zeros((0, 1), dtype=np.uint64)
            # Bucket arithmetic drops to uint32 (half the memory traffic
            # of the division pass) whenever every row width fits — the
            # buffer only ever holds row-relative buckets < width; the
            # flat offset is added during the cast to the intp scatter
            # index, which always has full range.
            gathers = len(gather_hashes)
            self._cols32 = all(grp.width <= 0xFFFFFFFF for grp in groups)
            self._ranges32 = self._ranges[:gathers, None].astype(np.uint32)
            self._offsets_p = self._flat_offsets.astype(np.intp)
            signed_rows = {g for g, _ in sign_pairs}
            for grp in groups:
                grp.signed = any(
                    r in signed_rows for r in range(grp.row_lo, grp.row_hi)
                )
            self._unsigned_fill = [
                r
                for grp in groups
                if grp.signed
                for r in range(grp.row_lo, grp.row_hi)
                if r not in signed_rows
            ]
            # Sign-free groups (Count-Min) share one tiled-frequency
            # buffer — freqs broadcast once per batch instead of per op,
            # so every operator scatters a contiguous arena view.
            self._max_unsigned_rows = max(
                [grp.rows for grp in groups if not grp.signed] + [0]
            )
            # When the sign pairs line up as one aligned block (the
            # common case: k-descending stacking puts every signed
            # gather row first, signs in matching order), the per-pair
            # weight multiplies collapse into a single sliced ufunc call.
            self._sign_block = (
                (sign_pairs[0][0], sign_pairs[0][1], len(sign_pairs))
                if sign_pairs
                and all(
                    g == sign_pairs[0][0] + i and s == sign_pairs[0][1] + i
                    for i, (g, s) in enumerate(sign_pairs)
                )
                else None
            )
        else:
            self._coeffs = np.zeros((0, 1), dtype=np.uint64)
            self._ranges = np.zeros(0, dtype=np.uint64)
            self._signs_are_bits = True
            self._runs = []
            self._pow_max = 1
            self._flat_offsets = np.zeros((0, 1), dtype=np.uint64)
            self._cols32 = True
            self._ranges32 = np.zeros((0, 1), dtype=np.uint32)
            self._offsets_p = np.zeros((0, 1), dtype=np.intp)
            self._unsigned_fill = []
            self._sign_block = None
            self._max_unsigned_rows = 0
        self._workspaces: dict[int, dict[str, Any]] = {}
        self._sig = self._signature()

    # ------------------------------------------------------------------
    def _exact_reduce(self, arr: np.ndarray, mask: np.ndarray) -> None:
        """Land values known < 2p exactly in ``[0, p)``: one conditional
        subtract (``mask`` is same-shape bool scratch)."""
        np.greater_equal(arr, _PRIME, out=mask)
        np.subtract(arr, _PRIME, out=arr, where=mask)

    def _workspace(self, p: int) -> dict[str, Any]:
        """Arena views (and the output mapping over them) for one batch
        size, cached so steady-state batches skip the per-call
        ``arena.take`` walk and slice construction entirely.

        Validity is stamped with the arena's miss counter: a take for a
        *different* batch size that outgrows (reallocates) any buffer
        bumps the counter and invalidates every cached workspace; equal
        stamps mean every underlying buffer object is unchanged, so the
        views still alias live storage.
        """
        ws = self._workspaces.get(p)
        if ws is not None and ws["stamp"] == self.arena.misses:
            # Credit the takes this hit skipped, so the arena's reuse
            # ratio still reflects steady-state behavior.
            self.arena.hits += ws["ntakes"]
            return ws
        arena = self.arena
        takes_before = arena.hits + arena.misses
        n_rows, _ = self._coeffs.shape
        gathers = self._n_gather
        x = arena.take("x", (p,), np.uint64)
        ws = {
            "x": x,
            "xs": arena.take("xs", (p,), np.uint64),
            "xge": arena.take("xge", (p,), np.bool_),
            "powers": [None, x]
            + [
                arena.take(f"x{e}", (p,), np.uint64)
                for e in range(2, self._pow_max + 1)
            ],
            "acc": arena.take("acc", (n_rows, p), np.uint64),
            "scratch": arena.take("acc_scratch", (n_rows, p), np.uint64),
            "ge": arena.take("ge", (n_rows, p), np.bool_),
            "cols": arena.take("cols", (gathers, p), np.intp),
        }
        if self._cols32:
            ws["cols32"] = arena.take("cols32", (gathers, p), np.uint32)
        weights = None
        if self._sign_pairs:
            ws["sgn"] = arena.take("sgn", (n_rows - gathers, p), np.int64)
            weights = arena.take("iw", (gathers, p), np.int64)
            ws["iw"] = weights
        fw = None
        if self._max_unsigned_rows:
            fw = arena.take("fw", (self._max_unsigned_rows, p), np.int64)
            ws["fw"] = fw
        cols = ws["cols"]
        ws["out"] = {
            grp.name: (
                cols[grp.row_lo : grp.row_hi],
                weights[grp.row_lo : grp.row_hi]
                if grp.signed
                else fw[: grp.rows],
            )
            for grp in self._groups
        }
        # Stamp after the takes: they may themselves have allocated.
        ws["ntakes"] = arena.hits + arena.misses - takes_before
        ws["stamp"] = self.arena.misses
        if len(self._workspaces) > 64:
            self._workspaces.clear()
        self._workspaces[p] = ws
        return ws

    def _kernel(
        self, keys: np.ndarray, freqs: np.ndarray
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The fused pass: stacked division-free polynomial evaluation,
        then signed integer weights per gather row.  Runs entirely in
        arena scratch; charges nothing (callers replay the serial
        charges per op).

        Degree ≤ 3 rows (every Count-Min / Count-Sketch hash) use the
        sum-of-powers form ``Σ c_j·x^j`` with the powers pre-reduced to
        ``[0, p)``: at most four terms, each ``< (p−1)²``, sum
        ``≤ 4(p−1)² = (2^32−4)² < 2^64`` — no mid-chain reduction at
        all.  Higher degrees fall back to a fold-scheduled Horner chain
        (:meth:`_schedule_folds`).  Either way values stay congruent
        (mod p) to the serial chain, two final folds bring them under
        2p, and one exact conditional subtract lands every residue in
        ``[0, p)``, equal to ``KWiseHash.__call__``'s.

        Returns name → ``(cols, weights)``: ``(rows, |keys|)`` views
        into arena scratch, valid until the next kernel call.  ``cols``
        are *flat* columns — row ``i``'s bucket plus ``i·width`` — so an
        operator applies all its rows with one scatter into its table's
        flat view.
        """
        p = int(keys.size)
        ws = self._workspace(p)
        x = ws["x"]
        xs = ws["xs"]
        xmask = ws["xge"]
        np.copyto(x, keys, casting="unsafe")
        mersenne_fold(x, xs)
        mersenne_fold(x, xs)
        self._exact_reduce(x, xmask)
        powers = ws["powers"]
        for e in range(2, self._pow_max + 1):
            xe = powers[e]
            np.multiply(powers[e - 1], x, out=xe)
            mersenne_fold(xe, xs)
            mersenne_fold(xe, xs)
            self._exact_reduce(xe, xmask)
        n_rows, kmax = self._coeffs.shape
        acc = ws["acc"]
        scratch = ws["scratch"]
        for lo, hi, k, fold_plan in self._runs:
            cs = self._coeffs[lo:hi, kmax - k :]
            a = acc[lo:hi]
            if fold_plan is None:
                if k == 1:
                    np.copyto(a, cs)
                    continue
                s = scratch[lo:hi]
                np.multiply(cs[:, :1], powers[k - 1], out=a)
                for j in range(1, k - 1):
                    np.multiply(cs[:, j : j + 1], powers[k - 1 - j], out=s)
                    np.add(a, s, out=a)
                np.add(a, cs[:, k - 1 :], out=a)
            else:
                s = scratch[lo:hi]
                np.copyto(a, cs[:, :1])
                for j in range(1, k):
                    np.multiply(a, x, out=a)
                    np.add(a, cs[:, j : j + 1], out=a)
                    for _ in range(fold_plan[j - 1]):
                        mersenne_fold(a, s)
        # Two folds bound every row by p + 5 < 2p, then the exact
        # conditional subtract and the range map — a division pass over
        # the gather rows only; sign rows (range 2) take a bit mask.
        mersenne_fold(acc, scratch)
        mersenne_fold(acc, scratch)
        self._exact_reduce(acc, ws["ge"])
        gathers = self._n_gather
        cols = ws["cols"]
        if self._cols32:
            # Residues < p fit uint32 (and so do the row widths, guarded
            # at build): half the traffic through the division pass.
            # The final add promotes to intp — ufunc.at's fast unbuffered
            # path needs a flat intp index, so the offset add doubles as
            # the cast.
            b32 = ws["cols32"]
            np.copyto(b32, acc[:gathers], casting="unsafe")
            np.mod(b32, self._ranges32, out=b32)
            np.add(b32, self._offsets_p, out=cols, casting="unsafe")
        else:
            buckets = acc[:gathers]
            np.mod(buckets, self._ranges[:gathers, None], out=buckets)
            np.add(buckets, self._flat_offsets, out=cols, casting="unsafe")
        if self._sign_pairs:
            if self._signs_are_bits:
                np.bitwise_and(acc[gathers:], _ONE, out=acc[gathers:])
            else:
                np.mod(acc[gathers:], self._ranges[gathers:, None], out=acc[gathers:])
            sgn = ws["sgn"]
            np.copyto(sgn, acc[gathers:], casting="unsafe")  # {0, 1}
            np.multiply(sgn, 2, out=sgn)
            np.subtract(sgn, 1, out=sgn)  # {-1, +1}
            # Signed rows get sign·frequency written in one pass each.
            weights = ws["iw"]
            if self._sign_block is not None:
                g0, s0, n = self._sign_block
                np.multiply(sgn[s0 : s0 + n], freqs, out=weights[g0 : g0 + n])
            else:
                for g, s in self._sign_pairs:
                    np.multiply(sgn[s], freqs, out=weights[g])
            for g in self._unsigned_fill:
                np.copyto(weights[g], freqs)
        if self._max_unsigned_rows:
            np.copyto(ws["fw"], freqs)  # one broadcast tile, shared by all
        return ws["out"]

    def execute(self, plan: Any) -> None:
        """Ingest one :class:`~repro.pram.plan.PreparedBatch` into every
        operator — fused rows through the stacked kernel, the rest
        through their own serial paths, all in mapping order."""
        if self._signature() != self._sig:
            self._build()
        batched: dict[str, tuple[np.ndarray, np.ndarray]] | None = None
        if plan.size and self._n_gather:
            # The kernel's plan accesses land on a throwaway ledger; the
            # plan caches the measured first-compute cost, and each
            # operator's replay below charges the real ledger exactly
            # what a serial first access would have.
            with tracking(CostLedger()):
                keys, freqs = plan.sketch_hist()
            batched = self._kernel(keys, freqs)
        for name, op, kind in self._order:
            if kind == "fused":
                op.ingest_fused(plan, None if batched is None else batched[name])
            elif kind == "prepared":
                op.ingest_prepared(plan)
            else:
                op.ingest(plan.raw)
        _M_FUSED_BATCHES.inc()
        _M_ARENA_BYTES.set(float(self.arena.nbytes))
        _M_ARENA_REUSE.set(self.arena.reuse_ratio)

    # ------------------------------------------------------------------
    @property
    def fused_names(self) -> list[str]:
        """Names of the operators the stacked kernel covers."""
        return [grp.name for grp in self._groups]
