"""``serve-uniform``: a real ``python -m repro serve`` subprocess over TCP.

One closed-loop connection sends pre-encoded 512-item ``INGEST`` lines
of uniform keys over 2^20 to a tenant owning {Count-Min, Count-Sketch,
frequency estimator}.  A second connection to the same tenant sends
``QUERY`` open-loop every 10 ms, rotating over the three operators,
each pipelined with ``STATS`` in one write: the server reads both lines
without yielding to its pump, so the ``STATS`` reply names exactly the
epoch and item count the answer describes.

Teardown closes both connections before SIGINT, requires exit 0 and
one clean ``drained`` line covering every item sent, and kills the
server past a deadline.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.engine import registry

import checks
from common import (
    MERGED_CLASSES,
    QUERY_RATE,
    ROOT,
    SRC,
    Calibrator,
    Outcome,
    Phase,
    core_layer,
    end_to_end,
    per_layer_base,
    pid_rss_mb,
    plan_layer,
)
from tracer import Tracer

HERE = Path(__file__).resolve().parent
UNIVERSE = 1 << 20
LINE_ITEMS = 512
POOL_LINES = 2048
TENANT = "t1"
#: Fresh server processes per end-to-end run (each also times set-up).
SERVERS = 3
DEADLINE_S = 30.0
#: Server defaults the bound below is derived from (``repro serve``).
QUEUE_MAX, SERVER_BATCH = 64, 4096
#: Staleness bound B: a full queue plus the pump batch in flight plus
#: the submission being accepted.
STALENESS_BOUND = QUEUE_MAX * LINE_ITEMS + SERVER_BATCH + LINE_ITEMS
#: Probe keys of the registry's point-query probes.
PROBE_KEYS = 64


def make_lines(seed: int) -> tuple[list[bytes], checks.Truth]:
    """Pre-encoded INGEST requests and exact counts of the probe keys
    (every other key folds into one extra bucket)."""
    rng = np.random.default_rng([seed, 20])
    items = rng.integers(0, UNIVERSE, size=(POOL_LINES, LINE_ITEMS), dtype=np.int64)
    lines = [
        f"INGEST {LINE_ITEMS}\n".encode() + " ".join(map(str, row.tolist())).encode() + b"\n"
        for row in items
    ]
    return lines, checks.Truth(list(np.minimum(items, PROBE_KEYS)), PROBE_KEYS + 1)


class Conn:
    """One blocking protocol connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=DEADLINE_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self) -> dict:
        line = self.rfile.readline()
        if not line.startswith(b"OK "):
            raise ProtocolFailure(line.decode(errors="replace").strip() or "connection closed")
        return json.loads(line[3:])

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class ProtocolFailure(Exception):
    """An ``ERR`` reply or a closed connection."""


class Server:
    """One server subprocess and its two tenant connections."""

    def __init__(self, traced: bool) -> None:
        script = [str(HERE / "serve_launcher.py")] if traced else ["-m", "repro", "serve"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, *script, "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.conns: list[Conn] = []
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], DEADLINE_S)
            banner = self.proc.stdout.readline().decode() if ready else ""
            match = re.search(r"serving \S+ on [\d.]+:(\d+)", banner)
            if match is None:
                raise RuntimeError(f"server did not start: {banner!r}")
            ops = ",".join(MERGED_CLASSES)
            for _ in range(2):
                conn = Conn(int(match.group(1)))
                self.conns.append(conn)
                conn.send(f"HELLO {TENANT} {ops}\n".encode())
                conn.reply()
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        for conn in self.conns:
            conn.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def stop(self, out: Outcome, sent: int) -> str:
        """Close both connections, SIGINT, and check the drain; returns
        the server's stdout."""
        for conn in self.conns:
            conn.close()
        self.conns = []
        self.proc.send_signal(signal.SIGINT)
        try:
            stdout, stderr = self.proc.communicate(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            stdout, stderr = self.proc.communicate()
            out.check(False, "server did not exit within the drain deadline")
            return stdout.decode(errors="replace")
        text = stdout.decode(errors="replace")
        out.check(self.proc.returncode == 0,
                  f"server exit {self.proc.returncode}: {stderr.decode(errors='replace')[-500:]}")
        out.check(not stderr.strip(), f"server stderr: {stderr.decode(errors='replace')[-500:]}")
        drained(out, text, sent)
        return text


def drained(out: Outcome, text: str, sent: int) -> None:
    """Exactly one clean ``drained`` line for the tenant, covering every
    item sent."""
    lines = re.findall(rf"^drained {TENANT}: (\d+) items .*$", text, re.MULTILINE)
    out.check(
        len(lines) == 1 and int(lines[0]) == sent and text.count(", clean") == 1,
        f"drain report {lines} does not cover {sent} items cleanly",
    )


def _window(server: Server, lines: list[bytes], seconds: float) -> tuple:
    """Ingest closed-loop on connection 0 and query open-loop on
    connection 1 for ``seconds``; returns (phase, query log, lines sent,
    failures)."""
    ingest, query = server.conns
    phase = Phase()
    log: list[tuple] = []
    acked = [0]
    failures: list[str] = []
    stop = threading.Event()
    interval = 1.0 / QUERY_RATE
    t_start = time.perf_counter()
    t_end = t_start + seconds
    sent = [0]

    def ingester() -> None:
        i = 0
        try:
            while not stop.is_set():
                t0 = time.perf_counter()
                ingest.send(lines[i % len(lines)])
                sent[0] = i + 1
                reply = ingest.reply()
                phase.ack_lat.append(time.perf_counter() - t0)
                if reply.get("accepted") != LINE_ITEMS:
                    failures.append(f"INGEST accepted {reply.get('accepted')}")
                i += 1
                acked[0] = i * LINE_ITEMS
        except (ProtocolFailure, OSError) as exc:
            failures.append(f"INGEST failed: {exc}")

    thread = threading.Thread(target=ingester, name="perfbench-ingest")
    thread.start()
    phase.calib.start()
    q = 0
    next_due = t_start
    try:
        while next_due < t_end:
            delay = next_due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            op = MERGED_CLASSES[q % len(MERGED_CLASSES)]
            seen = acked[0]
            issue = time.perf_counter()
            query.send(f"QUERY {op}\nSTATS\n".encode())
            try:
                answer = query.reply()
                done = time.perf_counter()
                stats = query.reply()
            except ProtocolFailure as exc:
                failures.append(f"QUERY failed: {exc}")
                break
            phase.query_late.append(issue - next_due)
            phase.query_lat.append(done - next_due)
            log.append((seen, acked[0], q % len(MERGED_CLASSES), answer["epoch"],
                        answer["result"], stats["epoch"], stats["items_folded"], done))
            q += 1
            next_due += interval
    finally:
        stop.set()
        phase.calib.stop()
        thread.join(timeout=DEADLINE_S)
    if thread.is_alive():
        raise RuntimeError("ingest thread did not stop")
    # Items visible to queries: the folded counts the first and last
    # queries read.
    phase.marks = [(entry[7], entry[6]) for entry in (log[0], log[-1])]
    for seen, _, _, epoch, _, stats_epoch, folded, _ in log:
        phase.staleness.append(max(0, seen - folded) if epoch == stats_epoch else 0)
    return phase, log, sent[0], failures


def _settle(server: Server, out: Outcome, sent: int, truth: checks.Truth) -> None:
    """Wait until every sent item is folded, then check each operator's
    final answer exactly."""
    query = server.conns[1]
    deadline = time.monotonic() + DEADLINE_S
    while True:
        query.send(b"STATS\n")
        folded = query.reply()["items_folded"]
        if folded == sent * LINE_ITEMS or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    out.check(folded == sent * LINE_ITEMS,
              f"only {folded} of {sent * LINE_ITEMS} items folded before the deadline")
    for i, op in enumerate(MERGED_CLASSES):
        query.send(f"QUERY {op}\nSTATS\n".encode())
        answer, stats = query.reply(), query.reply()
        _judge(out, truth, (sent * LINE_ITEMS, sent * LINE_ITEMS, i, answer["epoch"],
                            answer["result"], stats["epoch"], stats["items_folded"], 0.0))


def _judge(out: Outcome, truth: checks.Truth, entry: tuple) -> None:
    """One served answer.  With matching epochs the answering snapshot
    covers exactly the first ``folded`` items sent; otherwise it covers
    at least all but B of the items acked before the query and at most
    the ``folded`` count read after it."""
    seen, acked_after, i, epoch, result, stats_epoch, folded, _ = entry
    op = MERGED_CLASSES[i]
    out.check(
        folded <= acked_after + LINE_ITEMS,
        f"STATS covers {folded} items but only {acked_after} were acked",
    )
    if epoch == stats_epoch:
        lo_items = folded
        out.check(seen - folded <= STALENESS_BOUND,
                  f"staleness {seen - folded} items exceeds B={STALENESS_BOUND}")
    else:
        lo_items = max(0, seen - STALENESS_BOUND)
    lo = truth.prefix_at(lo_items // LINE_ITEMS, range(PROBE_KEYS))
    hi = truth.prefix_at(folded // LINE_ITEMS, range(PROBE_KEYS))
    bad = checks.probe_outliers(op, result, lo, hi, folded)
    out.check(not bad, f"{op} answer at epoch {epoch}: keys {bad[:5]} outside envelope")


def _phase(lines, truth, seconds: float, traced: bool, out: Outcome, setups: list | None,
           setup_calib: Calibrator | None = None):
    """Set up one server (timed into ``setups``), run one window, settle,
    check and tear down.  Returns (phase, query log, lines sent, server
    stdout, peak RSS MB)."""
    if setup_calib is not None:
        setup_calib.sample()
    t0 = time.perf_counter()
    server = Server(traced)
    if setups is not None:
        setups.append(time.perf_counter() - t0)
    try:
        phase, log, sent, failures = _window(server, lines, seconds)
        for message in failures:
            out.check(False, message)
        out.attempted += sent  # every INGEST round trip is an operation
        for entry in log:
            _judge(out, truth, entry)
        _settle(server, out, sent, truth)
        rss = pid_rss_mb(server.proc.pid)
    except BaseException:
        server.kill()
        raise
    text = server.stop(out, sent * LINE_ITEMS)
    return phase, log, sent, text, rss


def run(seed: int, seconds: float, trace: bool, calib: float, out: Outcome) -> dict:
    lines, truth = make_lines(seed)
    if not trace:
        # Served throughput settles into a different scheduling regime in
        # each server process, so the window is split across fresh
        # servers and the median of their rates is reported.
        setups: list[float] = []
        setup_calib = Calibrator()
        runs = [
            _phase(lines, truth, seconds / SERVERS, False, out, setups, setup_calib)
            for _ in range(SERVERS)
        ]
        log, sent = runs[0][1], runs[0][2]
        metrics = end_to_end(setups, setup_calib, [r[0] for r in runs], max(r[4] for r in runs))
    else:
        untraced, log, sent, _, _ = _phase(lines, truth, seconds / 2, False, out, None)
        traced, _, _, text, _ = _phase(lines, truth, seconds / 2, True, out, None)
        dump = json.loads(re.search(r"^perfbench-trace (.*)$", text, re.MULTILINE).group(1))
        metrics = per_layer_base(untraced, traced, calib)
        _layers(metrics, dump, traced)
    _self_test(out, truth, log, sent)
    return metrics


def _layers(values: dict, dump: dict, traced: Phase) -> None:
    tracer = Tracer.from_json(dump["spans"])
    cpu = dump["cpu_s"]
    session = dump["sessions"][0]
    folded = session["items_folded"]
    values["serve.parse_request_s"] = tracer.total("serve.parse_request")
    values["serve.encode_ok_s"] = tracer.total("serve.encode_ok")
    for verb in ("INGEST", "QUERY", "STATS"):
        values[f"serve.requests.{verb}"] = dump["verbs"].get(verb, 0)
    roots = sum(tracer.roots.values())
    values["serve.loop_residual_s"] = cpu - roots
    values["trace.residual_share"] = (cpu - roots) / cpu
    driver_ns = tracer.total("driver.run") * 1e9 / tracer.items("driver.run")
    values["serve.served_to_driver_ratio"] = (1e9 / traced.items_per_s) / driver_ns
    values["session.submit_s"] = tracer.waits.get("session.submit", 0.0)
    values["session.backpressure_waits"] = session["backpressure_waits"]
    values["session.pump_batches"] = session["batches_pumped"]
    values["session.items_per_pump_batch"] = folded / max(1, session["batches_pumped"])
    values["session.query_s"] = tracer.total("session.query")
    values["epoch.publishes"] = tracer.calls("epoch.publish")
    values["epoch.publish_s"] = tracer.total("epoch.publish")
    values["epoch.publish_ns_per_item"] = tracer.total("epoch.publish") * 1e9 / folded
    values["epoch.query_s"] = tracer.total("epoch.query")
    probes = sum(tracer.calls(f"core.{name}.probe") for name in MERGED_CLASSES)
    values["epoch.probes_per_query"] = probes / max(1, tracer.calls("epoch.query"))
    values["driver.batches"] = tracer.calls("driver.run")
    values["driver.run_s"] = tracer.total("driver.run")
    values["driver.self_s"] = tracer.self_time("driver.run") + tracer.self_time("driver.graph")
    values["driver.ns_per_item"] = driver_ns
    values["fusion.execute_s"] = tracer.total("fusion.execute")
    values["fusion.kernel_self_s"] = tracer.self_time("fusion.kernel")
    fused = tracer.items("fusion.execute")
    values["fusion.ns_per_item"] = tracer.total("fusion.execute") * 1e9 / fused if fused else 0.0
    values["fusion.arena_reuse_ratio"] = dump["gauges"].get("repro_arena_reuse_ratio", 0.0)
    plan_layer(values, tracer)
    core_layer(values, tracer, [registry.get(name).cls for name in MERGED_CLASSES])


def _self_test(out: Outcome, truth: checks.Truth, log: list, sent: int) -> None:
    seen, acked_after, i, epoch, result, stats_epoch, folded, t = next(
        e for e in log if MERGED_CLASSES[e[2]] == "ParallelCountMin"
    )
    checks.self_test(out, [
        ("a probe answer outside its envelope",
         lambda o: _judge(o, truth, (seen, acked_after, i, epoch, [-1] * PROBE_KEYS,
                                     stats_epoch, folded, t))),
        ("a corrupted STATS count",
         lambda o: _judge(o, truth, (seen, acked_after, i, epoch, result, stats_epoch,
                                     acked_after + 4 * LINE_ITEMS, t))),
        ("a dropped batch",
         lambda o: drained(o, f"drained {TENANT}: {(sent - 1) * LINE_ITEMS} items / 1 "
                              "batches, epoch 1, clean\n", sent * LINE_ITEMS)),
    ])
