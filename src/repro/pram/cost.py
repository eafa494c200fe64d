"""Fork-join work/depth cost ledger.

The paper analyzes all algorithms in the *work-depth* model (Section 2):
``work`` is the total operation count and ``depth`` is the longest chain
of sequential dependencies.  Because CPython's GIL makes wall-clock
speedup unobservable, this module is the reproduction's measuring
instrument: primitives charge their analytic work/depth as they execute,
and benchmarks compare the accumulated charges against the theorems.

Semantics
---------
* Sequential composition: ``charge(w1, d1); charge(w2, d2)`` accumulates
  ``work = w1 + w2``, ``depth = d1 + d2``.
* Parallel composition: inside ``with parallel() as par``, each
  ``par.run(fn)`` executes under a *fresh child ledger*; when the region
  closes, the parent is charged ``work = sum(child work)`` and
  ``depth = max(child depth)`` — the fork-join rule.

The ambient ledger is held in a :class:`contextvars.ContextVar`, so the
instrumentation is thread-safe and nests correctly: library code simply
calls :func:`charge` and composes regions without threading a ledger
through every signature.  When no ledger is active the charge is dropped
(near-zero overhead), so production use of the data structures pays
almost nothing for the instrumentation.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "Cost",
    "CostLedger",
    "ParallelRegion",
    "charge",
    "charge_many",
    "current_label",
    "current_ledger",
    "labeled",
    "measured",
    "parallel",
    "tracking",
]


@dataclass(frozen=True)
class Cost:
    """An immutable (work, depth) pair.

    Supports the two composition rules of the model:

    * ``a + b``  — sequential composition (work and depth both add).
    * ``a | b``  — parallel composition (work adds, depth maxes).
    """

    work: int = 0
    depth: int = 0

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.work + other.work, self.depth + other.depth)

    def __or__(self, other: "Cost") -> "Cost":
        return Cost(self.work + other.work, max(self.depth, other.depth))

    def __bool__(self) -> bool:
        return self.work != 0 or self.depth != 0


class CostLedger:
    """Mutable accumulator of work/depth under sequential composition.

    With ``record=True`` the ledger additionally captures the fork-join
    *trace* — the sequence of primitive charges and parallel blocks —
    which :mod:`repro.pram.schedule` replays on a simulated p-processor
    machine to predict parallel running times (the substitution for
    wall-clock speedup this host cannot measure; see DESIGN.md).
    """

    __slots__ = ("work", "depth", "trace", "by_operator")

    def __init__(self, record: bool = False) -> None:
        self.work: int = 0
        self.depth: int = 0
        #: When recording: list of ``("c", work, depth)`` charge items
        #: (``("c", work, depth, label)`` when the charge carries an
        #: operator label) and ``("p", [strand traces])`` parallel
        #: blocks, in program order.  ``None`` when recording is off.
        self.trace: list | None = [] if record else None
        #: Operator attribution: label -> ``[work, depth, charges]``
        #: accumulated from every labeled charge (labels come from the
        #: ambient :func:`labeled` context, normally installed by
        #: :mod:`repro.observability.spans`).  Unlabeled charges are
        #: not attributed.
        self.by_operator: dict[str, list[int]] = {}

    @property
    def recording(self) -> bool:
        return self.trace is not None

    def charge(self, work: int, depth: int = 1, label: str | None = None) -> None:
        """Charge a primitive step: ``work`` operations on a critical
        path of length ``depth``, optionally attributed to ``label``
        (an operator / span name)."""
        if work < 0 or depth < 0:
            raise ValueError(f"negative cost charge: work={work} depth={depth}")
        self.work += int(work)
        self.depth += int(depth)
        if label is not None:
            slot = self.by_operator.get(label)
            if slot is None:
                self.by_operator[label] = [int(work), int(depth), 1]
            else:
                slot[0] += int(work)
                slot[1] += int(depth)
                slot[2] += 1
        if self.trace is not None:
            if label is None:
                self.trace.append(("c", int(work), int(depth)))
            else:
                self.trace.append(("c", int(work), int(depth), label))

    def charge_many(
        self, works: np.ndarray, depths: np.ndarray, label: str | None = None
    ) -> None:
        """Charge a run of primitive steps in program order: the ledger
        ends exactly as ``charge(w, d, label)`` per entry would leave it
        (totals, ``by_operator`` count and, when recording, one trace
        tuple per entry)."""
        n = len(works)
        if n == 0:
            return
        works = np.asarray(works, dtype=np.int64)
        depths = np.asarray(depths, dtype=np.int64)
        if works.min() < 0 or depths.min() < 0:
            raise ValueError("negative cost charge in charge_many")
        work, depth = int(works.sum()), int(depths.sum())
        self.work += work
        self.depth += depth
        if label is not None:
            _attribute(self.by_operator, label, work, depth, n)
        if self.trace is not None:
            pairs = zip(works.tolist(), depths.tolist())
            if label is None:
                self.trace.extend(("c", w, d) for w, d in pairs)
            else:
                self.trace.extend(("c", w, d, label) for w, d in pairs)

    def merge_parallel(
        self, children: list[Cost], traces: list[list] | None = None
    ) -> None:
        """Fold the costs of concurrently-executed children into this
        ledger using the fork-join rule."""
        if not children:
            return
        self.work += sum(c.work for c in children)
        self.depth += max(c.depth for c in children)
        if self.trace is not None:
            self.trace.append(("p", traces if traces is not None else []))

    def merge_strands(self, strands: list["CostLedger"]) -> None:
        """Fold strands that ran under their own child ledgers the way a
        :func:`parallel` region folds them: :meth:`merge_parallel` on
        their costs and, when recording, their traces, plus each
        strand's operator attribution."""
        for child in strands:
            _fold_attribution(self.by_operator, child)
        self.merge_parallel(
            [child.snapshot() for child in strands],
            [child.trace or [] for child in strands] if self.recording else None,
        )

    def snapshot(self) -> Cost:
        return Cost(self.work, self.depth)

    # ------------------------------------------------------------------
    # Checkpoint/restore (repro.resilience): a ledger's accumulated
    # charges — and its fork-join trace, when recording — are part of
    # the driver state a checkpoint must reproduce exactly.
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "kind": "cost_ledger",
            "version": 1,
            "work": self.work,
            "depth": self.depth,
            "trace": self.trace,
            "by_operator": {k: list(v) for k, v in self.by_operator.items()},
        }

    def load_state(self, state: dict) -> None:
        if state.get("kind") != "cost_ledger":
            raise ValueError(f"not a cost_ledger state: {state.get('kind')!r}")
        self.work = int(state["work"])
        self.depth = int(state["depth"])
        trace = state["trace"]
        self.trace = _as_trace(trace) if trace is not None else None
        self.by_operator = {
            str(k): [int(v[0]), int(v[1]), int(v[2])]
            for k, v in (state.get("by_operator") or {}).items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostLedger(work={self.work}, depth={self.depth})"


def _attribute(
    by_operator: dict[str, list[int]], label: str, work: int, depth: int, count: int
) -> None:
    slot = by_operator.setdefault(label, [0, 0, 0])
    slot[0] += work
    slot[1] += depth
    slot[2] += count


def _fold_attribution(by_operator: dict[str, list[int]], child: CostLedger) -> None:
    """Add a strand's attribution to ``by_operator`` (work is exact;
    attributed depth is the per-operator charged chain, not the
    fork-join span)."""
    for label, (w, d, n) in child.by_operator.items():
        _attribute(by_operator, label, w, d, n)


def _as_trace(items: list) -> list:
    """Normalize a deserialized trace back into tuple entries."""
    out: list = []
    for entry in items:
        entry = tuple(entry)
        if entry[0] == "p":
            out.append(("p", [_as_trace(strand) for strand in entry[1]]))
        elif len(entry) > 3:
            out.append(("c", int(entry[1]), int(entry[2]), str(entry[3])))
        else:
            out.append(("c", int(entry[1]), int(entry[2])))
    return out


_LEDGER: contextvars.ContextVar[CostLedger | None] = contextvars.ContextVar(
    "repro_pram_ledger", default=None
)

#: Ambient operator label: charges issued while a label is installed are
#: attributed to it (trace entries gain a 4th element and the ledger's
#: ``by_operator`` aggregate is updated).  The observability layer's
#: spans install the innermost span name here.
_LABEL: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_pram_label", default=None
)


def current_ledger() -> CostLedger | None:
    """The ambient ledger, or ``None`` when cost tracking is off."""
    return _LEDGER.get()


def current_label() -> str | None:
    """The ambient operator label, or ``None`` when unattributed."""
    return _LABEL.get()


@contextmanager
def labeled(label: str | None) -> Iterator[None]:
    """Attribute every charge inside the block to ``label``.

    Nested labels shadow outer ones (innermost wins), so a primitive's
    span overrides the enclosing operator's span for its own charges.
    """
    token = _LABEL.set(label)
    try:
        yield
    finally:
        _LABEL.reset(token)


def charge(work: int, depth: int = 1, label: str | None = None) -> None:
    """Charge the ambient ledger, if any, attributed to ``label`` (or
    the ambient :func:`labeled` context when ``label`` is ``None``)."""
    ledger = _LEDGER.get()
    if ledger is not None:
        ledger.charge(work, depth, label if label is not None else _LABEL.get())


def charge_many(works: np.ndarray, depths: np.ndarray) -> None:
    """Vector form of :func:`charge`: the ambient ledger, if any, is
    charged ``works[i], depths[i]`` for every ``i`` in order, attributed
    to the ambient label — the same totals, attribution and trace as the
    loop of single charges, in a few array operations."""
    ledger = _LEDGER.get()
    if ledger is not None:
        ledger.charge_many(works, depths, _LABEL.get())


@contextmanager
def tracking(
    ledger: CostLedger | None = None, *, record: bool = False
) -> Iterator[CostLedger]:
    """Install ``ledger`` (a fresh one by default) as the ambient ledger.

    ``record=True`` captures the fork-join trace for the schedule
    simulator (:mod:`repro.pram.schedule`).

    >>> with tracking() as led:
    ...     charge(10, 1)
    >>> led.work
    10
    """
    if ledger is None:
        ledger = CostLedger(record=record)
    token = _LEDGER.set(ledger)
    try:
        yield ledger
    finally:
        _LEDGER.reset(token)


@contextmanager
def measured() -> Iterator[Callable[[], Cost]]:
    """Measure the cost of a block under the *current* ledger.

    Yields a zero-arg callable returning the cost accrued so far inside
    the block.  If no ledger is active, a temporary one is installed so
    the measurement still works.

    >>> with tracking():
    ...     with measured() as get:
    ...         charge(5, 2)
    ...     c = get()
    >>> (c.work, c.depth)
    (5, 2)
    """
    ledger = _LEDGER.get()
    if ledger is None:
        with tracking() as ledger:
            start = ledger.snapshot()
            yield lambda: Cost(ledger.work - start.work, ledger.depth - start.depth)
    else:
        start = ledger.snapshot()
        yield lambda: Cost(ledger.work - start.work, ledger.depth - start.depth)


class ParallelRegion:
    """Collects tasks whose costs combine with fork-join semantics.

    Tasks run immediately (in program order) but each under its own
    child ledger; the parent is charged sum-work / max-depth when the
    region exits.  An optional *backend* (see :mod:`repro.pram.backend`)
    may run the closures on real threads instead; the cost accounting is
    identical either way.
    """

    def __init__(self, parent: CostLedger | None) -> None:
        self._parent = parent
        self._children: list[Cost] = []
        self._traces: list[list] = []
        self._closed = False
        self._recording = parent is not None and parent.recording

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Execute ``fn`` as one parallel strand and return its result."""
        if self._closed:
            raise RuntimeError("parallel region already closed")
        child = CostLedger(record=self._recording)
        token = _LEDGER.set(child)
        try:
            result = fn(*args, **kwargs)
        finally:
            _LEDGER.reset(token)
        self._children.append(child.snapshot())
        if self._parent is not None:
            _fold_attribution(self._parent.by_operator, child)
        if self._recording:
            self._traces.append(child.trace or [])
        return result

    def charge_strand(self, work: int, depth: int = 1) -> None:
        """Record a strand's cost without running a closure (used when a
        vectorized kernel already did the parallel step's data work)."""
        if self._closed:
            raise RuntimeError("parallel region already closed")
        self._children.append(Cost(work, depth))
        label = _LABEL.get()
        if label is not None and self._parent is not None:
            _attribute(self._parent.by_operator, label, int(work), int(depth), 1)
        if self._recording:
            if label is None:
                self._traces.append([("c", int(work), int(depth))])
            else:
                self._traces.append([("c", int(work), int(depth), label)])

    def charge_strands(self, works: np.ndarray, depths: np.ndarray) -> None:
        """Vector form of :meth:`charge_strand`: one single-charge strand
        per entry, in order.  The parent ends as the loop of
        ``charge_strand`` calls leaves it (sum work, max depth, one
        ``by_operator`` count and, when recording, one strand trace per
        entry); with no ambient ledger it does nothing."""
        if self._closed:
            raise RuntimeError("parallel region already closed")
        n = len(works)
        if self._parent is None or n == 0:
            return
        works = np.asarray(works, dtype=np.int64)
        depths = np.asarray(depths, dtype=np.int64)
        if works.min() < 0 or depths.min() < 0:
            raise ValueError("negative cost charge in charge_strands")
        # The fork-join fold only needs the strands' sum and max.
        self._children.append(Cost(int(works.sum()), int(depths.max())))
        label = _LABEL.get()
        if label is not None:
            _attribute(
                self._parent.by_operator, label, int(works.sum()), int(depths.sum()), n
            )
        if self._recording:
            pairs = zip(works.tolist(), depths.tolist())
            if label is None:
                self._traces.extend([("c", w, d)] for w, d in pairs)
            else:
                self._traces.extend([("c", w, d, label)] for w, d in pairs)

    def _close(self) -> None:
        self._closed = True
        if self._parent is not None:
            self._parent.merge_parallel(
                self._children, self._traces if self._recording else None
            )


@contextmanager
def parallel() -> Iterator[ParallelRegion]:
    """Open a fork-join parallel region on the ambient ledger.

    >>> with tracking() as led:
    ...     with parallel() as par:
    ...         _ = par.run(charge, 100, 4)
    ...         _ = par.run(charge, 50, 9)
    >>> (led.work, led.depth)
    (150, 9)
    """
    region = ParallelRegion(_LEDGER.get())
    try:
        yield region
    finally:
        region._close()
