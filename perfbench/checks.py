"""Answer checkers: exact ground truth from the seeded batch pool.

Every workload cycles one seeded pool of batches, so the exact item
counts of any stream prefix are ``cycles * pool_total + cum[rest]`` —
cheap to evaluate at each query without replaying the stream.  The
envelopes are the deterministic sides :mod:`repro.fuzz.oracles` asserts
(Count-Min never undercounts, Misra-Gries lies in ``[f - n/k, f]``,
Count-Sketch sanity ``|est - f| <= n``, sliding-window frequency in
``[f - eps*W, f]``, heavy hitters never missed).  Bounded-state checks
call :func:`repro.fuzz.oracles.check_oracle` itself.

:func:`self_test` feeds each checker a deliberately wrong result and
raises unless the failure is counted, so a fast but wrong program can
never pass the benchmark.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from repro.engine import registry
from repro.fuzz.oracles import check_oracle

from common import Outcome


class Truth:
    """Exact prefix counts over a cyclic pool of equal-size chunks."""

    def __init__(self, chunks: list[np.ndarray], universe: int) -> None:
        counts = np.stack([np.bincount(c, minlength=universe) for c in chunks])
        self.cum = np.vstack([np.zeros(universe, np.int64), np.cumsum(counts, axis=0)])
        self.k = len(chunks)

    def prefix(self, n_chunks: int) -> np.ndarray:
        """Counts of every item over the first ``n_chunks`` chunks."""
        cycles, rest = divmod(int(n_chunks), self.k)
        return cycles * self.cum[-1] + self.cum[rest]

    def prefix_at(self, n_chunks: int, keys) -> np.ndarray:
        cycles, rest = divmod(int(n_chunks), self.k)
        keys = np.asarray(keys)
        return cycles * self.cum[-1, keys] + self.cum[rest, keys]


def point_envelope(kind: str, est: float, lo: float, hi: float, n: int, cap: int = 1) -> bool:
    """Is one point answer inside its envelope?  ``lo``/``hi`` bound the
    true count of the multiset the answering state covers, ``n`` bounds
    that multiset's size."""
    if kind == "cms":
        return est >= lo
    if kind == "mg":
        return hi >= est >= lo - n / cap
    if kind == "csk":
        return hi + n >= est >= lo - n
    raise ValueError(kind)


_PROBE_KINDS = {"ParallelCountMin": "cms", "ParallelCountSketch": "csk"}


@functools.cache
def _capacity(name: str) -> int:
    return registry.get(name).build().capacity


def probe_outliers(op_name: str, answer, lo: np.ndarray, hi: np.ndarray, n: int) -> list[int]:
    """Keys of a registry point-query probe (keys ``0..len(lo)-1``) whose
    answers fall outside their envelope; a wrong-length answer fails
    every key."""
    if len(answer) != len(lo):
        return list(range(len(lo)))
    kind = _PROBE_KINDS.get(op_name, "mg")
    cap = _capacity(op_name) if kind == "mg" else 1
    return [
        key for key in range(len(lo))
        if not point_envelope(kind, answer[key], lo[key], hi[key], n, cap)
    ]


def hh_violations(name: str, reported, counts: np.ndarray, t: int, phi: float,
                  eps: float | None) -> list[str]:
    """Heavy hitters: no item with count >= phi*t may be missing; with
    ``eps``, no reported item may have count <= (phi-eps)*t - 1."""
    reported = {int(k) for k in reported}
    out = []
    for item in np.flatnonzero(counts >= phi * t):
        if int(item) not in reported:
            out.append(f"{name}: heavy hitter {item} (count {counts[item]}) not reported")
    if eps is not None:
        floor = (phi - eps) * t - 1
        for item in reported:
            if counts[item] <= floor:
                out.append(f"{name}: reported {item} has count {counts[item]} <= {floor}")
    return out


def mg_state_violations(name: str, op, counts: np.ndarray, n: int) -> list[str]:
    """Whole-state Misra-Gries envelope over every universe item."""
    est = np.array([op.estimate(int(i)) for i in range(counts.size)], dtype=np.float64)
    bad = np.flatnonzero((est > counts) | (est < counts - n / op.capacity))
    return [f"{name}: item {i} estimate {est[i]} outside [{counts[i] - n / op.capacity}, {counts[i]}]"
            for i in bad[:5]] + ([f"{name}: {bad.size} items outside"] if bad.size > 5 else [])


def linear_reference(factory, chunks: list[np.ndarray], n_chunks: int):
    """The serial fold of ``n_chunks`` pool chunks into a fresh sketch:
    one pass over the pool, merged once per full cycle (linear sketches
    add cell-wise), then the remainder."""
    cycle = factory()
    for chunk in chunks:
        cycle.ingest(chunk)
    ref = factory()
    for _ in range(n_chunks // len(chunks)):
        ref.merge(cycle)
    for chunk in chunks[: n_chunks % len(chunks)]:
        ref.ingest(chunk)
    return ref


def table_violations(name: str, op, ref) -> list[str]:
    """Bit-identity of a linear sketch against its serial fold."""
    if op.stream_length != ref.stream_length:
        return [f"{name}: stream_length {op.stream_length} != serial {ref.stream_length}"]
    if op.table.dtype != ref.table.dtype or not np.array_equal(op.table, ref.table):
        diff = int(np.count_nonzero(op.table != ref.table))
        return [f"{name}: table differs from the serial fold in {diff} cells"]
    return []


def oracle_violations(op, stream: np.ndarray, universe: int) -> list[str]:
    """The fuzzer's exact-oracle check on one operator state."""
    spec = registry.get(type(op).__name__)
    return check_oracle(spec, op, stream, SimpleNamespace(universe=universe))


# ----------------------------------------------------------------------
def self_test(run: Outcome, cases) -> None:
    """Each ``(label, case)`` feeds a deliberately wrong result through
    the same accounting the run used, into a copy of the run's outcome.
    Every case must add a failure and raise the failure ratio."""
    for label, case in cases:
        tampered = Outcome(attempted=run.attempted, failed=run.failed, quiet=True)
        case(tampered)
        if tampered.failed <= run.failed or tampered.failure_ratio <= run.failure_ratio:
            raise SystemExit(f"perfbench self-test: checker missed {label}")
