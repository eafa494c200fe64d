"""Tests for the multi-tenant streaming service (src/repro/serve/).

No pytest-asyncio in the toolchain: every async scenario runs under a
plain ``asyncio.run`` inside a synchronous test, which also matches how
the CLI drives the server.
"""

from __future__ import annotations

import asyncio
import math
import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import registry
from repro.fuzz.oracles import check_oracle
from repro.serve import (
    AdmissionController,
    AdmissionError,
    LineClient,
    ProtocolError,
    ServeConfig,
    SnapshotStore,
    StreamServer,
    TenantSession,
    TokenBucket,
    parse_request,
    parse_response,
)
from repro.serve.protocol import encode_ok


# ----------------------------------------------------------------------
# Quota: deficit token bucket (deterministic fake clock)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_token_bucket_burst_then_debt():
    clock = FakeClock()
    bucket = TokenBucket(100.0, burst=50.0, clock=clock)
    assert bucket.request(50) == 0.0  # burst fits debt-free
    delay = bucket.request(25)  # 25 tokens in debt at 100/s
    assert delay == pytest.approx(0.25)
    clock.now += 0.25  # debt repaid by refill
    assert bucket.request(0) == 0.0
    assert bucket.available == pytest.approx(0.0)


def test_token_bucket_enforces_average_rate():
    clock = FakeClock()
    bucket = TokenBucket(1_000.0, burst=100.0, clock=clock)
    slept = 0.0
    for _ in range(20):
        delay = bucket.request(100)
        slept += delay
        clock.now += delay  # the caller's contract: sleep the delay
    # 2000 items at 1000/s needs ~1.9s of throttle beyond the burst.
    assert slept == pytest.approx(1.9, abs=0.05)
    assert bucket.throttled_seconds == pytest.approx(slept)


def test_token_bucket_infinite_rate_never_delays():
    bucket = TokenBucket(math.inf, burst=1.0)
    assert bucket.request(10**9) == 0.0


def test_token_bucket_rejects_bad_params():
    with pytest.raises(ValueError):
        TokenBucket(0.0)
    with pytest.raises(ValueError):
        TokenBucket(1.0, burst=0.0)
    with pytest.raises(ValueError):
        TokenBucket(1.0).request(-1)


def test_admission_controller_caps_and_reattaches():
    gate = AdmissionController(2)
    gate.admit("a")
    gate.admit("b")
    gate.admit("a")  # re-admit is a no-op, not a second slot
    assert gate.tenants == 2
    with pytest.raises(AdmissionError):
        gate.admit("c")
    gate.release("a")
    gate.admit("c")


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
def test_protocol_round_trip_and_errors():
    req = parse_request("HELLO acme SpaceSaving,MisraGriesSummary\n")
    assert req.verb == "HELLO" and req.args[0] == "acme"
    with pytest.raises(ProtocolError):
        parse_request("FROB x\n")
    with pytest.raises(ProtocolError):
        parse_request("QUERY\n")  # arity
    payload = parse_response(encode_ok({"x": np.int64(3)}).decode())
    assert payload == {"x": 3}
    with pytest.raises(ProtocolError) as err:
        parse_response("ERR admission fleet full\n")
    assert err.value.args[0] == "admission"


# ----------------------------------------------------------------------
# Snapshots: epoch publishing and fold equivalence
# ----------------------------------------------------------------------
def test_snapshot_store_epochs_and_isolation():
    spec = registry.get("MisraGriesSummary")
    op = spec.build()
    store = SnapshotStore({"mg": op})
    assert store.epoch == 0
    op.ingest(np.array([1, 1, 2], dtype=np.int64))
    snap0 = store.read()
    assert spec.probe(snap0["mg"]) != spec.probe(op)  # not yet published
    assert store.publish(items=3) == 1
    snap1 = store.read()
    assert spec.probe(snap1["mg"]) == spec.probe(op)
    # The previously read snapshot still answers for its own epoch:
    # one publish later it is untouched (double buffering).
    assert snap0.epoch == 0 and spec.probe(snap0["mg"]) != spec.probe(op)
    op.ingest(np.array([3, 3, 3], dtype=np.int64))
    store.publish(items=6)
    epoch, result = store.query(lambda s: spec.probe(s["mg"]))
    assert epoch == 2 and result == spec.probe(op)


def test_snapshot_query_retries_when_epochs_race():
    spec = registry.get("MisraGriesSummary")
    op = spec.build()
    store = SnapshotStore({"mg": op})
    calls = 0

    def slow_reader(snap):
        nonlocal calls
        calls += 1
        if calls == 1:  # simulate two publishes landing mid-read
            store.publish()
            store.publish()
        return spec.probe(snap["mg"])

    epoch, _ = store.query(slow_reader)
    assert calls == 2  # first read was torn-risk, second was consistent
    assert epoch == store.epoch


# ----------------------------------------------------------------------
# TenantSession: ingest, snapshot-vs-exact, quota, backpressure, drain
# ----------------------------------------------------------------------
def test_session_snapshot_equals_exact_fold_at_each_epoch():
    name = "SequentialCountMin"
    spec = registry.get(name)
    rng = np.random.default_rng(11)
    stream = rng.integers(0, 128, size=8 * 256)
    plan = SimpleNamespace(universe=128)

    async def run() -> None:
        session = TenantSession(name, [name], batch_size=256)
        session.start()
        seen = 0
        for i in range(8):
            await session.submit(stream[i * 256 : (i + 1) * 256])
            while session.epoch == seen:
                await asyncio.sleep(0)
            seen = session.epoch
            snap = session.read_snapshot()
            prefix = stream[: snap.items]
            assert not check_oracle(spec, snap[name], prefix, plan)
            replay = spec.build()
            replay.ingest(prefix)
            assert spec.probe(snap[name]) == spec.probe(replay)
        report = await session.drain()
        assert report.clean and report.items == len(stream)

    asyncio.run(run())


def test_session_quota_throttles_submissions():
    async def run() -> None:
        sleeps: list[float] = []

        async def fake_sleep(delay: float) -> None:
            sleeps.append(delay)

        clock = FakeClock()
        session = TenantSession(
            "q",
            ["SpaceSaving"],
            quota_rate=1_000,
            quota_burst=100,
            clock=clock,
            sleep=fake_sleep,
        )
        session.start()
        await session.submit(np.arange(100))  # burst: free
        await session.submit(np.arange(100))  # 100 in debt -> 0.1s
        assert sleeps == [pytest.approx(0.1)]
        assert session.throttled_seconds == pytest.approx(0.1)
        await session.drain()

    asyncio.run(run())


def test_session_backpressure_parks_submitter_until_low_watermark():
    async def run() -> None:
        session = TenantSession(
            "bp", ["SpaceSaving"], queue_max=8, high_watermark=4, batch_size=64
        )
        # No pump yet: fill the queue to the high watermark first.
        for _ in range(4):
            await session.submit(np.arange(64))
        assert session.queue.qsize() == 4

        parked = asyncio.ensure_future(session.submit(np.arange(64)))
        await asyncio.sleep(0)
        assert not parked.done()  # submitter is parked at the watermark
        assert session.backpressure_waits == 1

        session.start()  # slow consumer arrives; queue drains
        await parked
        report = await session.drain()
        assert report.clean and report.items == 5 * 64

    asyncio.run(run())


def test_session_drain_writes_checkpoint_and_empty_dlq(tmp_path):
    from repro.resilience import CheckpointManager

    async def run() -> None:
        manager = CheckpointManager(tmp_path / "ckpt", every=1)
        session = TenantSession(
            "d", ["ParallelCountMin"], batch_size=128,
            checkpoint_manager=manager,
        )
        session.start()
        await session.submit(np.arange(256) % 32)
        report = await session.drain()
        assert report.clean and report.dead_letters == 0
        assert report.checkpoint is not None
        latest = manager.load_latest()
        assert latest is not None
        assert latest["state"]["tenant"] == "d"
        with pytest.raises(RuntimeError):
            await session.submit(np.arange(4))  # draining refuses input

    asyncio.run(run())


def test_session_rejects_unknown_and_unservable_ops():
    with pytest.raises(KeyError):
        TenantSession("x", ["NoSuchOp"])

    async def run() -> None:
        session = TenantSession("x", ["SpaceSaving"])
        session.start()
        with pytest.raises(KeyError):
            session.query("MisraGriesSummary")  # not owned by this tenant
        await session.drain()

    asyncio.run(run())


# ----------------------------------------------------------------------
# StreamServer + LineClient: end-to-end over TCP
# ----------------------------------------------------------------------
def test_server_end_to_end_ingest_query_drain(tmp_path):
    rng = np.random.default_rng(3)
    stream = rng.integers(0, 64, size=2_048)

    async def run() -> None:
        config = ServeConfig(
            max_tenants=4,
            batch_size=512,
            checkpoint_dir=str(tmp_path / "serve-ckpt"),
        )
        server = await StreamServer(config).start()
        host, port = server.address
        async with await LineClient.connect(host, port) as client:
            hello = await client.hello("acme", ["ParallelCountMin"])
            assert hello["protocol"] == "serve/v1" and hello["epoch"] == 0
            for i in range(8):
                reply = await client.ingest(stream[i * 256 : (i + 1) * 256])
                assert reply["accepted"] == 256
            await asyncio.sleep(0.05)  # let the pump publish
            answer = await client.query("ParallelCountMin")
            assert answer["epoch"] >= 1
            exact = np.bincount(stream, minlength=64)
            # Count-Min never undercounts the true frequency.
            assert all(
                est >= exact[i] for i, est in enumerate(answer["result"])
            )
            stats = await client.stats()
            assert stats["items_accepted"] == len(stream)
            await client.quit()
        reports = await server.drain()
        assert len(reports) == 1
        assert reports[0].clean and reports[0].items == len(stream)
        assert reports[0].checkpoint is not None

    asyncio.run(run())


def test_server_admission_rejects_tenant_over_cap():
    async def run() -> None:
        server = await StreamServer(ServeConfig(max_tenants=1)).start()
        host, port = server.address
        a = await LineClient.connect(host, port)
        b = await LineClient.connect(host, port)
        await a.hello("first", ["SpaceSaving"])
        with pytest.raises(ProtocolError) as err:
            await b.hello("second", ["SpaceSaving"])
        assert err.value.args[0] == "admission"
        # Reconnects attach instead of consuming a second slot.
        c = await LineClient.connect(host, port)
        hello = await c.hello("first", ["SpaceSaving"])
        assert hello["tenant"] == "first"
        await a.close()
        await b.close()
        await c.close()
        await server.drain()

    asyncio.run(run())


def test_server_protocol_error_codes():
    async def run() -> None:
        server = await StreamServer(ServeConfig()).start()
        host, port = server.address
        async with await LineClient.connect(host, port) as client:
            with pytest.raises(ProtocolError) as err:
                await client.query("SpaceSaving")  # before HELLO
            assert err.value.args[0] == "no-session"
            with pytest.raises(ProtocolError) as err:
                await client.hello("t", ["NoSuchOp"])
            assert err.value.args[0] == "unknown-op"
            hello = await client.hello("t", ["SpaceSaving"])
            assert hello["epoch"] == 0
            with pytest.raises(ProtocolError) as err:
                await client.query("MisraGriesSummary")  # not owned
            assert err.value.args[0] == "unknown-op"
            with pytest.raises(ProtocolError) as err:
                await client.hello("t", ["MisraGriesSummary"])  # op clash
            assert err.value.args[0] == "protocol"
            ops = await client.ops()
            assert any(o["name"] == "SpaceSaving" for o in ops["ops"])
            pong = await client.ping()
            assert pong["pong"] is True
        await server.drain()

    asyncio.run(run())


@pytest.mark.parametrize("token", [-7, 2**63, 10**25])
def test_server_rejects_out_of_range_ingest_tokens(token, capsys):
    """An INGEST token outside [0, 2^63) is a typed protocol error: the
    connection stays open, nothing is ingested, and no handler dies
    with an unhandled exception on stderr."""
    unhandled: list[dict] = []

    async def run() -> None:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        server = await StreamServer(ServeConfig()).start()
        host, port = server.address
        async with await LineClient.connect(host, port) as client:
            await client.hello("t", ["ParallelCountMin"])
            with pytest.raises(ProtocolError) as err:
                await client.ingest([5, token])
            assert err.value.args[0] == "protocol"
            pong = await client.ping()
            assert pong["pong"] is True
            assert (await client.stats())["items_accepted"] == 0
        reports = await server.drain()
        assert reports[0].clean and reports[0].items == 0

    asyncio.run(run())
    assert unhandled == []
    assert capsys.readouterr().err == ""


def test_server_drain_refuses_new_sessions():
    async def run() -> None:
        server = await StreamServer(ServeConfig()).start()
        host, port = server.address
        client = await LineClient.connect(host, port)
        await client.hello("t", ["SpaceSaving"])
        await client.ingest([1, 2, 3])
        reports = await server.drain()
        assert reports[0].items == 3 and reports[0].clean
        await client.close()

    asyncio.run(run())


def test_serve_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(max_tenants=0)


def test_sigint_with_open_connection_drains_without_traceback():
    """SIGINT while a client still holds a connection: the server closes
    the connection during drain, so its handler returns instead of
    being cancelled mid-read (which printed a CancelledError traceback
    on stderr despite the clean exit)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        match = re.match(r"serving serve/v1 on (\S+):(\d+)$", banner.strip())
        assert match, banner
        with socket.create_connection((match[1], int(match[2])), timeout=30) as conn:
            conn.sendall(b"HELLO open-conn SpaceSaving\n")
            assert conn.makefile("rb").readline().startswith(b"OK ")
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    drained = re.findall(r"^drained open-conn: .*$", out, flags=re.M)
    assert len(drained) == 1 and drained[0].endswith("clean")
    assert err == ""
