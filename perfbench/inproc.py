"""In-process workloads: ``pipeline-zipf``, ``window-zipf``, ``concurrent-zipf``.

Each cycles one seeded pool of zipf(1.2) batches of 4096 items, so a
run can last any number of seconds in bounded memory while exact
ground truth stays cheap (:class:`checks.Truth`).

The two driver workloads answer point queries lock-step, the paper's
model: a query falls due every 10 ms and is answered at the next
minibatch boundary against live state, timed from when it fell due.
``concurrent-zipf`` runs one reader thread that probes published
snapshots open-loop at the same rate while the main thread ingests.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

import numpy as np

from repro.concurrent import ConcurrentIngestor
from repro.core import (
    InfiniteHeavyHitters,
    ParallelCountMin,
    ParallelCountSketch,
    ParallelFrequencyEstimator,
    SlidingHeavyHitters,
    WindowedCountMin,
    WorkEfficientSlidingFrequency,
)
from repro.engine import registry
from repro.observability.metrics import REGISTRY
from repro.stream.generators import zipf_stream
from repro.stream.minibatch import MinibatchDriver

import checks
import tracer as tr
from common import (
    BATCH,
    MERGED_CLASSES,
    QUERY_RATE,
    Calibrator,
    Outcome,
    Phase,
    core_layer,
    end_to_end,
    per_layer_base,
    plan_layer,
    residual_share,
    self_rss_mb,
)

UNIVERSE = 1 << 14
POOL_BATCHES = 64
WINDOW = 1 << 16
#: Staleness bound B of the buffered ingestor (two batches).
BUFFER_ITEMS = 8192
#: Batches whose charged ledger entries give the exact per-layer counts.
LEDGER_BATCHES = 16
#: Untimed reader window before ``concurrent-zipf`` measures.
READER_WARMUP_S = 2.0


def make_pool(seed: int) -> list[np.ndarray]:
    stream = zipf_stream(POOL_BATCHES * BATCH, UNIVERSE, 1.2, rng=seed)
    return [stream[i * BATCH : (i + 1) * BATCH] for i in range(POOL_BATCHES)]


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _query_keys(seed: int, pool: list[np.ndarray]) -> np.ndarray:
    flat = np.concatenate(pool)
    return flat[_rng(seed, 99).integers(0, flat.size, size=997)]


class Op:
    """One operator of a driver workload: its name, a factory that
    builds it with the same hashes on every call, and the kind of answer
    it gives, which picks how it is queried and judged."""

    def __init__(self, name: str, build: Callable[[], Any], kind: str) -> None:
        self.name = name
        self.build = build
        self.kind = kind


def pipeline_ops(seed: int) -> list[Op]:
    """E16/E18's 8-operator pipeline: 2x {frequency, heavy hitters,
    Count-Min, Count-Sketch} with E16's epsilons."""
    return [
        Op("freq", lambda: ParallelFrequencyEstimator(0.01), "mg"),
        Op("hh-inf", lambda: InfiniteHeavyHitters(0.05, 0.01), "hh"),
        Op("cms", lambda: ParallelCountMin(0.01, 0.01, rng=_rng(seed, 5)), "cms"),
        Op("csk", lambda: ParallelCountSketch(0.01, 0.01, rng=_rng(seed, 6)), "csk"),
        Op("freq2", lambda: ParallelFrequencyEstimator(0.02), "mg"),
        Op("hh-inf2", lambda: InfiniteHeavyHitters(0.1, 0.02), "hh"),
        Op("cms2", lambda: ParallelCountMin(0.02, 0.01, rng=_rng(seed, 7)), "cms"),
        Op("csk2", lambda: ParallelCountSketch(0.02, 0.01, rng=_rng(seed, 8)), "csk"),
    ]


def window_ops(seed: int) -> list[Op]:
    """The paper's sliding-window family over W = 2^16."""
    return [
        Op(
            "sliding-freq",
            lambda: WorkEfficientSlidingFrequency(window=WINDOW, eps=0.01, rng=_rng(seed, 4)),
            "sliding",
        ),
        Op("sliding-hh", lambda: SlidingHeavyHitters(window=WINDOW, phi=0.05, eps=0.01), "sliding-hh"),
        Op(
            "windowed-cms",
            lambda: WindowedCountMin(window=WINDOW, eps=0.01, delta=0.01, rng=_rng(seed, 5)),
            "wcms",
        ),
    ]


def _ask(kind: str) -> Callable[[Any, int], Any]:
    if kind in ("hh", "sliding-hh"):
        return lambda op, key: sorted(op.query())
    if kind in ("mg", "sliding"):
        return lambda op, key: op.estimate(key)
    return lambda op, key: op.point_query(key)


def _judge(out: Outcome, spec: Op, op: Any, truth: checks.Truth, batches: int,
           key: int, answer: Any) -> None:
    """One lock-step answer against exact counts after ``batches``."""
    n = batches * BATCH
    kind = spec.kind
    if kind in ("sliding", "sliding-hh", "wcms"):
        counts = truth.prefix(batches) - truth.prefix(max(0, batches - WINDOW // BATCH))
        n = min(n, WINDOW)
    else:
        counts = truth.prefix(batches)
    label = f"{spec.name} after {batches} batches"
    if kind == "hh":
        out.violations(checks.hh_violations(label, answer, counts, n, op.phi, op.eps))
    elif kind == "sliding-hh":
        out.violations(checks.hh_violations(label, answer, counts, n, op.phi, None))
    else:
        f = counts[key]
        if kind == "sliding":
            ok = checks.point_envelope("mg", answer, f, f, WINDOW, 1 / op.eps)
        elif kind == "mg":
            ok = checks.point_envelope("mg", answer, f, f, n, op.capacity)
        else:
            ok = checks.point_envelope("cms" if kind == "wcms" else kind, answer, f, f, n)
        out.check(ok, f"{label}: key {key} answer {answer} vs true {f}")


def _drive(driver, ops, specs, pool, keys, start: int, seconds: float,
           wrap: Callable | None) -> tuple[Phase, list, int]:
    """Closed-loop ingest with lock-step queries; returns the phase,
    the answer log and the next batch index."""
    asks = [(spec, _ask(spec.kind)) for spec in specs]
    if wrap is not None:
        asks = [
            (spec, wrap(f"core.{type(ops[spec.name]).__name__}.probe", ask))
            for spec, ask in asks
        ]
    phase = Phase()
    log: list[tuple[int, int, int, Any]] = []
    interval = 1.0 / QUERY_RATE
    k = len(pool)
    b, q = start, 0
    t_start = time.perf_counter()
    t_end = t_start + seconds
    next_due = now = t_start
    phase.marks.append((now, 0))
    while now < t_end:
        phase.calib.tick(now)
        while next_due <= now:
            spec, ask = asks[q % len(asks)]
            key = int(keys[q % len(keys)])
            issue = time.perf_counter()
            answer = ask(ops[spec.name], key)
            done = time.perf_counter()
            phase.query_late.append(issue - next_due)
            phase.query_lat.append(done - next_due)
            log.append((b, q % len(asks), key, answer))
            q += 1
            next_due += interval
        t0 = time.perf_counter()
        driver.run(pool[b % k], BATCH)
        now = time.perf_counter()
        phase.ack_lat.append(now - t0)
        b += 1
    phase.marks.append((now, (b - start) * BATCH))
    return phase, log, b


def _gauge(name: str) -> float:
    for metric in REGISTRY.collect():
        if metric.name == name:
            return float(metric.value())
    return 0.0


def run_driver(workload: str, seed: int, seconds: float, trace: bool, calib: float,
               out: Outcome) -> dict:
    pool = make_pool(seed)
    truth = checks.Truth(pool, UNIVERSE)
    keys = _query_keys(seed, pool)
    windowed = workload == "window-zipf"
    specs = window_ops(seed) if windowed else pipeline_ops(seed)
    # Warm-up fills the window (windowed) or a few batches; setup is
    # construction plus warm-up, repeated and reported as a median.
    warmup = WINDOW // BATCH if windowed else 8
    reps = 3 if windowed else 7
    setups = []
    setup_calib = Calibrator()
    for _ in range(reps):
        setup_calib.sample()
        t0 = time.perf_counter()
        ops = {spec.name: spec.build() for spec in specs}
        driver = MinibatchDriver(ops)
        for i in range(warmup):
            driver.run(pool[i], BATCH)
        setups.append(time.perf_counter() - t0)

    # The fuzzer's exact oracle on the bounded warm-up state.
    warm = np.concatenate(pool[:warmup])
    for spec in specs:
        out.violations(checks.oracle_violations(ops[spec.name], warm, UNIVERSE))

    logs: list[list] = []
    if not trace:
        tr.assert_clean()
        phase, log, end = _drive(driver, ops, specs, pool, keys, warmup, seconds, None)
        logs.append(log)
        metrics = end_to_end(setups, setup_calib, [phase], self_rss_mb())
    else:
        tr.assert_clean()
        untraced, log, mid = _drive(driver, ops, specs, pool, keys, warmup, seconds / 2, None)
        logs.append(log)
        tracer = tr.Tracer()
        inst = tr.install(tracer, {type(op) for op in ops.values()})
        try:
            traced, log, end = tracer.span("bench.window", _drive)(
                driver, ops, specs, pool, keys, mid, seconds / 2, tracer.span
            )
        finally:
            inst.uninstall()
        logs.append(log)
        metrics = per_layer_base(untraced, traced, calib)
        _driver_layers(metrics, tracer, traced, driver, warmup, ops)

    for log in logs:
        for batches, i, key, answer in log:
            spec = specs[i]
            _judge(out, spec, ops[spec.name], truth, batches, key, answer)
    _final_checks(out, specs, ops, pool, truth, end, windowed)
    _self_test(out, specs, ops, pool, truth, end, windowed, logs)
    return metrics


def _driver_layers(values: dict, tracer: tr.Tracer, traced: Phase, driver, warmup: int,
                   ops: dict) -> None:
    values["driver.batches"] = tracer.calls("driver.run")
    values["driver.run_s"] = tracer.total("driver.run")
    values["driver.self_s"] = tracer.self_time("driver.run") + tracer.self_time("driver.graph")
    items = tracer.items("driver.run")
    values["driver.ns_per_item"] = tracer.total("driver.run") * 1e9 / items
    values["fusion.execute_s"] = tracer.total("fusion.execute")
    values["fusion.kernel_self_s"] = tracer.self_time("fusion.kernel")
    fused_items = tracer.items("fusion.execute")
    values["fusion.ns_per_item"] = (
        tracer.total("fusion.execute") * 1e9 / fused_items if fused_items else 0.0
    )
    values["fusion.arena_reuse_ratio"] = _gauge("repro_arena_reuse_ratio") if fused_items else 0.0
    plan_layer(values, tracer)
    core_layer(values, tracer, {type(op) for op in ops.values()})
    # Charged cost of a fixed batch range: an exact count that must
    # repeat run to run for the same seed.
    reports = driver.reports[warmup : warmup + LEDGER_BATCHES]
    values["ledger.work_per_item"] = sum(r.work for r in reports) / sum(r.size for r in reports)
    values["ledger.depth"] = max(r.depth for r in reports)
    values["trace.residual_share"] = residual_share(tracer, "bench.window", traced.seconds)


def _final_checks(out: Outcome, specs, ops, pool, truth, end: int, windowed: bool) -> None:
    if windowed:
        # The exact oracle on the final window: the last W items.
        tail = np.concatenate([pool[i % len(pool)] for i in range(end - WINDOW // BATCH, end)])
        for spec in specs:
            out.violations(checks.oracle_violations(ops[spec.name], tail, UNIVERSE))
        return
    counts = truth.prefix(end)
    n = end * BATCH
    for spec in specs:
        op = ops[spec.name]
        if spec.kind in ("cms", "csk"):
            ref = checks.linear_reference(spec.build, pool, end)
            out.violations(checks.table_violations(spec.name, op, ref))
        elif spec.kind == "mg":
            out.violations(checks.mg_state_violations(spec.name, op, counts, n))
        else:
            out.violations(
                checks.hh_violations(spec.name, op.query(), counts, n, op.phi, op.eps)
            )


def _self_test(out: Outcome, specs, ops, pool, truth, end: int, windowed: bool, logs) -> None:
    cases = []
    if not windowed:
        cms = next(s for s in specs if s.kind == "cms")
        cases.append((
            "a dropped batch",
            lambda o: o.violations(checks.table_violations(
                cms.name, ops[cms.name], checks.linear_reference(cms.build, pool, end - 1)
            )),
        ))
    # The first logged answer of each point-answer kind, pushed just
    # outside its envelope.
    answered = {}
    for batches, i, key, answer in logs[0]:
        answered.setdefault(specs[i].kind, (batches, specs[i], key, answer))
    for kind, (batches, spec, key, answer) in answered.items():
        if kind in ("cms", "wcms"):
            wrong = -1
        elif kind in ("mg", "sliding"):
            wrong = answer + 10 * BATCH * POOL_BATCHES
        elif kind == "csk":
            wrong = answer + 10 * batches * BATCH
        else:  # heavy hitters: report nothing at all
            wrong = []
        cases.append((
            f"a {kind} answer outside its envelope",
            lambda o, b=batches, s=spec, k=key, w=wrong: _judge(o, s, ops[s.name], truth, b, k, w),
        ))
    checks.self_test(out, cases)


# ----------------------------------------------------------------------
# concurrent-zipf
# ----------------------------------------------------------------------
def run_concurrent(seed: int, seconds: float, trace: bool, calib: float, out: Outcome) -> dict:
    pool = make_pool(seed)
    truth = checks.Truth(pool, UNIVERSE)
    specs = [registry.get(name) for name in MERGED_CLASSES]
    warmup, reps = 4, 5
    setups = []
    setup_calib = Calibrator()
    ingestor = None
    for _ in range(reps):
        if ingestor is not None:
            ingestor.close()
        setup_calib.sample()
        t0 = time.perf_counter()
        ops = {spec.name: spec.build() for spec in specs}
        ingestor = ConcurrentIngestor(ops, buffer_items=BUFFER_ITEMS, threads=2)
        for i in range(warmup):
            ingestor.ingest(pool[i])
        setups.append(time.perf_counter() - t0)

    logs: list[list] = []
    try:
        # The first reader window in a process can starve for the GIL
        # for about a second while the ingest strands warm up; run it
        # untimed (its answers are still checked).
        _, log, warmup = _concurrent_window(ingestor, specs, pool, warmup, READER_WARMUP_S, None)
        logs.append(log)
        tr.assert_clean()
        if not trace:
            phase, log, end = _concurrent_window(ingestor, specs, pool, warmup, seconds, None)
            logs.append(log)
            metrics = end_to_end(setups, setup_calib, [phase], self_rss_mb())
            ingestor.sync()
        else:
            untraced, log, mid = _concurrent_window(ingestor, specs, pool, warmup, seconds / 2, None)
            logs.append(log)
            tracer = tr.Tracer()
            inst = tr.install(tracer, {type(op) for op in ops.values()})
            flushes = ingestor.flushes
            try:
                traced, log, end = tracer.span("bench.window", _concurrent_window)(
                    ingestor, specs, pool, mid, seconds / 2, tracer.span
                )
                flushes = ingestor.flushes - flushes
                ingestor.sync()
            finally:
                inst.uninstall()
            logs.append(log)
            metrics = per_layer_base(untraced, traced, calib)
            _concurrent_layers(metrics, tracer, traced, flushes, ops)
    finally:
        ingestor.close()

    for log in logs:
        for entry in log:
            _judge_snapshot(out, specs, truth, entry)
    counts = truth.prefix(end)
    for spec in specs:
        op = ingestor.read()[spec.name]
        if spec.name == "ParallelFrequencyEstimator":
            out.violations(checks.mg_state_violations(spec.name, op, counts, end * BATCH))
        else:
            ref = checks.linear_reference(spec.build, pool, end)
            out.violations(checks.table_violations(spec.name, op, ref))

    cms = ingestor.read()["ParallelCountMin"]
    acked, covered, i, answer = next(
        e for e in logs[0] if specs[e[2]].name == "ParallelCountMin"
    )
    cases = [
        ("a dropped batch", lambda o: o.violations(checks.table_violations(
            "ParallelCountMin", cms,
            checks.linear_reference(registry.get("ParallelCountMin").build, pool, end - 1)))),
        ("a probe answer outside its envelope",
         lambda o: _judge_snapshot(o, specs, truth, (acked, covered, i, [-1] * len(answer)))),
        ("staleness beyond the bound",
         lambda o: _judge_snapshot(o, specs, truth, (covered + BUFFER_ITEMS + BATCH + 1,
                                                     covered, i, answer))),
    ]
    checks.self_test(out, cases)
    return metrics


def _concurrent_window(ingestor, specs, pool, start: int, seconds: float,
                       wrap: Callable | None) -> tuple[Phase, list, int]:
    """Main thread ingests closed-loop; one reader thread probes the
    latest snapshot open-loop every 10 ms."""
    probes = [(spec.name, spec.probe) for spec in specs]
    if wrap is not None:
        probes = [
            (name, wrap(f"core.{spec.cls.__name__}.probe", probe))
            for (name, probe), spec in zip(probes, specs)
        ]
    phase = Phase()
    log: list[tuple[int, int, int, Any]] = []
    acked = [start * BATCH]
    stop = threading.Event()
    errors: list[Exception] = []
    interval = 1.0 / QUERY_RATE
    t_start = time.perf_counter()

    def reader() -> None:
        next_due = t_start
        q = 0
        try:
            while True:
                delay = next_due - time.perf_counter()
                if stop.wait(delay if delay > 0 else 0):
                    return
                name, probe = probes[q % len(probes)]
                issue = time.perf_counter()
                seen = acked[0]
                _, (covered, answer) = ingestor.query(
                    lambda snap: (snap.items, probe(snap[name]))
                )
                done = time.perf_counter()
                phase.query_late.append(issue - next_due)
                phase.query_lat.append(done - next_due)
                phase.staleness.append(max(0, seen - covered))
                log.append((seen, covered, q % len(probes), answer))
                q += 1
                next_due += interval
        except Exception as exc:  # re-raised by the main thread
            errors.append(exc)

    thread = threading.Thread(target=reader, name="perfbench-reader")
    phase.marks.append((t_start, ingestor.published_items))
    thread.start()
    b = start
    k = len(pool)
    try:
        t_end = t_start + seconds
        t0 = t_start
        while t0 < t_end:
            phase.calib.tick(t0)
            t0 = time.perf_counter()
            ingestor.ingest(pool[b % k])
            done = time.perf_counter()
            phase.ack_lat.append(done - t0)
            b += 1
            acked[0] = b * BATCH
            t0 = done
        phase.marks.append((done, ingestor.published_items))
    finally:
        stop.set()
        thread.join(timeout=30)
    if thread.is_alive() or errors:
        raise RuntimeError(f"reader thread failed: {errors or 'did not stop'}")
    return phase, log, b


def _judge_snapshot(out: Outcome, specs, truth: checks.Truth, entry) -> None:
    """A snapshot probe of keys 0..63.  The snapshot covers ``covered``
    flushed items: all of the stream but at most B + one batch of its
    newest items, and nothing newer than B past ``covered``."""
    acked, covered, i, answer = entry
    spec = specs[i]
    out.check(
        acked - covered <= BUFFER_ITEMS + BATCH,
        f"staleness {acked - covered} items exceeds B={BUFFER_ITEMS} plus one batch",
    )
    lo = truth.prefix_at(max(0, covered - BUFFER_ITEMS - BATCH) // BATCH, range(64))
    hi = truth.prefix_at(-(-(covered + BUFFER_ITEMS) // BATCH), range(64))
    bad = checks.probe_outliers(spec.name, answer, lo, hi, covered)
    out.check(not bad, f"{spec.name} snapshot at {covered} items: keys {bad[:5]} outside envelope")


def _concurrent_layers(values: dict, tracer: tr.Tracer, traced: Phase, flushes: int,
                       ops: dict) -> None:
    values["epoch.publishes"] = tracer.calls("epoch.publish")
    values["epoch.publish_s"] = tracer.total("epoch.publish")
    values["epoch.publish_ns_per_item"] = tracer.total("epoch.publish") * 1e9 / traced.items
    values["epoch.query_s"] = tracer.total("epoch.query")
    probes = sum(tracer.calls(f"core.{type(op).__name__}.probe") for op in ops.values())
    values["epoch.probes_per_query"] = probes / max(1, tracer.calls("epoch.query"))
    values["buffers.ingest_s"] = tracer.total("buffers.ingest")
    values["buffers.local_ingest_s"] = tracer.total("buffers.local_ingest")
    values["buffers.merge_s"] = tracer.total("buffers.flush")
    values["buffers.flushes"] = flushes
    values["buffers.sync_s"] = tracer.total("buffers.sync")
    values["backend.fork_join_s"] = tracer.total("backend.fork_join")
    values["backend.parallelism"] = (
        tracer.total("buffers.strand") / max(1e-9, tracer.total("backend.fork_join"))
    )
    plan_layer(values, tracer)
    core_layer(values, tracer, {type(op) for op in ops.values()})
    values["trace.residual_share"] = residual_share(tracer, "bench.window", traced.seconds)
