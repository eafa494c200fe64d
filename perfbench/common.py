"""Shared pieces: result stamp, host calibration, statistics, metrics.

Every workload returns a :class:`Outcome`; ``run.py`` turns it into
the single JSON result line.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BATCH = 4096
#: Open-loop query rate (queries/s) shared by every workload.
QUERY_RATE = 100.0
#: A seed never used while tuning; re-check performance claims on it.
HELD_OUT_SEED = 9001
#: Calibration ns/iteration of the reference host that every timed
#: end-to-end metric is expressed on (see :class:`Calibrator`).
CALIB_REF_NS = 50.0
CALIB_EVERY_S = 0.05

#: End-to-end metrics (tracing off) with their units.
END_TO_END = {
    "setup_s": "s",
    "ingest_items_per_s": "items/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "ingest_ack_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

_CORE_CLASSES = (
    "ParallelFrequencyEstimator",
    "InfiniteHeavyHitters",
    "ParallelCountMin",
    "ParallelCountSketch",
    "WorkEfficientSlidingFrequency",
    "SlidingHeavyHitters",
    "WindowedCountMin",
)
#: Classes the concurrent and served workloads merge and publish.
MERGED_CLASSES = ("ParallelFrequencyEstimator", "ParallelCountMin", "ParallelCountSketch")


def _per_layer() -> dict[str, str]:
    units = {
        "loadgen.late_p99_ms": "ms",
        "host.calib_ns": "ns",
        "trace.overhead_ratio": "ratio",
        "trace.residual_share": "ratio",
        "staleness_items_p99": "items",
        "serve.parse_request_s": "s",
        "serve.encode_ok_s": "s",
        "serve.requests.INGEST": "count",
        "serve.requests.QUERY": "count",
        "serve.requests.STATS": "count",
        "serve.loop_residual_s": "s",
        "serve.served_to_driver_ratio": "ratio",
        "session.submit_s": "s",
        "session.backpressure_waits": "count",
        "session.pump_batches": "count",
        "session.items_per_pump_batch": "items",
        "session.query_s": "s",
        "epoch.publishes": "count",
        "epoch.publish_s": "s",
        "epoch.publish_ns_per_item": "ns/item",
        "epoch.query_s": "s",
        "epoch.probes_per_query": "ratio",
        "buffers.ingest_s": "s",
        "buffers.local_ingest_s": "s",
        "buffers.merge_s": "s",
        "buffers.flushes": "count",
        "buffers.sync_s": "s",
        "backend.fork_join_s": "s",
        "backend.parallelism": "ratio",
        "driver.batches": "count",
        "driver.run_s": "s",
        "driver.self_s": "s",
        "driver.ns_per_item": "ns/item",
        "fusion.execute_s": "s",
        "fusion.kernel_self_s": "s",
        "fusion.ns_per_item": "ns/item",
        "fusion.arena_reuse_ratio": "ratio",
        "plan.prepare_s": "s",
        "plan.sketch_hist_s": "s",
        "plan.hist_arrays_s": "s",
        "plan.positions_by_item_s": "s",
        "ledger.work_per_item": "work/item",
        "ledger.depth": "depth",
    }
    for cls in _CORE_CLASSES:
        units[f"core.{cls}.ingest_s"] = "s"
        units[f"core.{cls}.ns_per_item"] = "ns/item"
        units[f"core.{cls}.probe_s"] = "s"
    for cls in MERGED_CLASSES:
        units[f"core.{cls}.merge_s"] = "s"
        units[f"core.{cls}.codec_s"] = "s"
    return units


PER_LAYER = _per_layer()


# ----------------------------------------------------------------------
# Stamp
# ----------------------------------------------------------------------
def code_id() -> str:
    """Content hash of ``src/`` — the commit stand-in, since the
    benchmark may run from an export that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


_CALIB_DATA = np.arange(4096, dtype=np.int64)[::-1].copy()


def calib_burst() -> float:
    """One short burst of a fixed calibration loop — interpreter work
    plus a few small NumPy calls, the mix every workload runs — in ns
    per iteration.  Bursts taken during a window track how fast the
    host runs right then; on a shared host that swings by half."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000):
        acc += i & 7
    np.bincount(np.sort(_CALIB_DATA) & 255)
    return (time.perf_counter() - t0) * 1e9 / 2_000


def calib_ns(reps: int = 25) -> float:
    return statistics.median(calib_burst() for _ in range(reps))


def pin_fastest_cpu() -> int:
    """Pin this process — and the threads and subprocesses it starts
    later — to the allowed CPU whose calibration runs fastest right now.

    Single-threaded workloads (the server included) then run on one
    fixed CPU: their speed no longer depends on where the scheduler
    happens to place them next to other tenants' load, which on a
    shared two-CPU host swung served throughput by half between runs.
    """
    speeds = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = calib_ns(reps=9)
    best = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {best})
    return best


class Calibrator:
    """Calibration bursts every :data:`CALIB_EVERY_S` while a window
    runs, taken inline by the loop that calls :meth:`tick` or on a side
    thread (:meth:`start`/:meth:`stop`) when the loop is not in this
    process."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def tick(self, now: float) -> None:
        if now >= self._next:
            self.samples.append(calib_burst())
            self._next = now + CALIB_EVERY_S

    def sample(self, bursts: int = 5) -> None:
        self.samples.extend(calib_burst() for _ in range(bursts))

    def start(self) -> None:
        def loop() -> None:
            while not self._stop.wait(CALIB_EVERY_S):
                self.samples.append(calib_burst())

        self._thread = threading.Thread(target=loop, name="perfbench-calib")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference host this host ran."""
        return statistics.median(self.samples) / CALIB_REF_NS


def stamp(workload: str, seed: int, calib: float) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "code": code_id(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host.calib_ns": calib,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    """Percentile ``q`` (0..100) of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


#: Tail latencies are the median of the p99 of this many equal slices
#: of a window's samples, in order: one stall of the shared host then
#: moves one slice instead of the whole tail.
TAIL_SLICES = 12


def sliced_p99(values) -> float:
    return median(pct(part, 99) for part in np.array_split(np.asarray(values), TAIL_SLICES))


def self_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def fail(message: str) -> None:
    """Report one failed check on stderr (the count goes into the
    result's ``failed``)."""
    print(f"perfbench: FAILED {message}", file=sys.stderr)


@dataclass
class Phase:
    """What one timed window measured (tracing on or off)."""

    query_lat: list[float] = field(default_factory=list)
    query_late: list[float] = field(default_factory=list)
    ack_lat: list[float] = field(default_factory=list)
    staleness: list[int] = field(default_factory=list)
    #: (time, items visible to queries) at the window's start and end.
    marks: list[tuple[float, int]] = field(default_factory=list)
    calib: Calibrator = field(default_factory=Calibrator)

    @property
    def seconds(self) -> float:
        return self.marks[-1][0] - self.marks[0][0]

    @property
    def items(self) -> int:
        return self.marks[-1][1] - self.marks[0][1]

    @property
    def items_per_s(self) -> float:
        return self.items / self.seconds


@dataclass
class Outcome:
    """Checked operations: ``attempted`` of them, ``failed`` wrong."""

    attempted: int = 0
    failed: int = 0
    #: Self-test copies count failures without reporting them.
    quiet: bool = False

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not self.quiet:
                fail(message)
        return ok

    def violations(self, violations: list[str]) -> None:
        """One checked state, failed when any violation was found."""
        self.attempted += 1
        self.failed += bool(violations)
        if not self.quiet:
            for message in violations[:5]:
                fail(message)

    @property
    def failure_ratio(self) -> float:
        return self.failed / max(1, self.attempted)


def end_to_end(setups: list[float], setup_calib: Calibrator, phases: list[Phase],
               rss_mb: float) -> dict:
    """The gated metrics over one or more timed windows.

    Times and rates are expressed on the reference host: each is scaled
    by how much slower than :data:`CALIB_REF_NS` the calibration bursts
    taken alongside it ran.  Throughput is the median of the windows'
    rates; latency samples of all windows are pooled.  The unscaled
    values are printed on a ``perfbench-raw`` line."""

    def pooled(attr: str, scaled: bool) -> np.ndarray:
        return np.concatenate([
            np.asarray(getattr(p, attr)) / (p.calib.slowdown if scaled else 1.0)
            for p in phases
        ]) * 1e3

    queries = pooled("query_lat", True)
    if queries.size < 1000:
        raise RuntimeError(f"only {queries.size} queries in the timed windows; need 1000")
    raw = {
        "setup_s": median(setups),
        "ingest_items_per_s": median(p.items_per_s for p in phases),
        "query_p50_ms": pct(pooled("query_lat", False), 50),
        "query_p99_ms": sliced_p99(pooled("query_lat", False)),
        "ingest_ack_p99_ms": sliced_p99(pooled("ack_lat", False)),
        "queries": int(queries.size),
        "acks": sum(len(p.ack_lat) for p in phases),
        "setup_slowdown": setup_calib.slowdown,
        "window_slowdowns": [p.calib.slowdown for p in phases],
    }
    print("perfbench-raw " + json.dumps(raw), flush=True)
    return {
        "setup_s": raw["setup_s"] / setup_calib.slowdown,
        "ingest_items_per_s": median(p.items_per_s * p.calib.slowdown for p in phases),
        "query_p50_ms": pct(queries, 50),
        "query_p99_ms": sliced_p99(queries),
        "ingest_ack_p99_ms": sliced_p99(pooled("ack_lat", True)),
        "peak_rss_mb": rss_mb,
    }


def per_layer_base(untraced: Phase, traced: Phase, calib: float) -> dict:
    """Per-layer metrics every workload reports, all zero until the
    workload fills in the layers it exercises."""
    values = {name: 0.0 for name in PER_LAYER}
    values["host.calib_ns"] = calib
    values["trace.overhead_ratio"] = (traced.items_per_s * traced.calib.slowdown) / (
        untraced.items_per_s * untraced.calib.slowdown
    )
    values["loadgen.late_p99_ms"] = pct(traced.query_late, 99) * 1e3
    values["staleness_items_p99"] = pct(traced.staleness, 99) if traced.staleness else 0.0
    return values


def core_layer(values: dict, tracer, classes) -> None:
    """``core.<Class>.*`` self times from the traced run."""
    for cls in classes:
        name = cls.__name__
        ingest = tracer.self_time(f"core.{name}.ingest")
        items = tracer.items(f"core.{name}.ingest")
        if f"core.{name}.ingest_s" in values:
            values[f"core.{name}.ingest_s"] = ingest
            values[f"core.{name}.ns_per_item"] = ingest * 1e9 / items if items else 0.0
            values[f"core.{name}.probe_s"] = tracer.total(f"core.{name}.probe")
        if f"core.{name}.merge_s" in values:
            values[f"core.{name}.merge_s"] = tracer.self_time(f"core.{name}.merge")
            values[f"core.{name}.codec_s"] = tracer.self_time(f"core.{name}.codec")


def plan_layer(values: dict, tracer) -> None:
    values["plan.prepare_s"] = tracer.self_sum("plan.")
    values["plan.sketch_hist_s"] = tracer.self_time("plan.sketch_hist")
    values["plan.hist_arrays_s"] = tracer.self_time("plan.hist_arrays")
    values["plan.positions_by_item_s"] = tracer.self_time("plan.positions_by_item")


def residual_share(tracer, root: str, wall: float) -> float:
    """Share of the traced window no named layer accounts for: the
    benchmark root span's own self time over the window.  Raises when
    the self times of one thread's spans do not add up to its root
    spans (a nesting error would make the attribution meaningless)."""
    thread_roots = sum(tracer.roots.values())
    self_total = sum(r[1] - r[2] for r in tracer.stats.values())
    if abs(self_total - thread_roots) > 1e-6 * max(1.0, thread_roots) + 1e-3:
        raise RuntimeError(
            f"span self times {self_total:.6f}s do not add up to root spans "
            f"{thread_roots:.6f}s"
        )
    return tracer.self_time(root) / wall
