#!/usr/bin/env python
"""CI smoke test for the multi-tenant streaming server (docs/serving.md).

Spawns ``python -m repro serve`` as a real subprocess on an ephemeral
port, drives a few tenants through the ``serve/v1`` line protocol with
:class:`repro.serve.LineClient`, then stops the server (SIGINT) and
asserts every tenant drained clean:

1. the listening banner ``serving serve/v1 on <host>:<port>`` appears;
2. each tenant's HELLO/INGEST/QUERY round-trips succeed and the
   queried epoch advances past zero;
3. STATS accounts for every item the tenant sent (nothing dropped on
   the floor between the socket and the driver);
4. one extra tenant owning ``ParallelCountMin,ParallelCountSketch``
   gets, for each sketch, a ``QUERY`` answer of 64 JSON ints equal to
   the registry probe of a local serial fold of the same items (NumPy
   scalars leaking into the reply would not parse back as ints);
5. that tenant's ``INGEST`` with a token of 2^63 gets ``ERR protocol``,
   a ``PING`` on the same connection still answers, and the tenant
   drains exactly its valid items;
6. after SIGINT the server prints one clean ``drained <tenant>`` line
   per tenant plus the ``drained N tenant(s)`` summary, no traceback,
   and exits 0.

Exit status: 0 on success, 1 on any failed expectation.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import re
import signal
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.engine import registry  # noqa: E402
from repro.serve import LineClient, ProtocolError  # noqa: E402

BANNER_RE = re.compile(r"^serving serve/v1 on (\S+):(\d+)$")
TENANT_OPS = ("SequentialCountMin", "SpaceSaving", "MisraGriesSummary")
SKETCH_OPS = ("ParallelCountMin", "ParallelCountSketch")
UNIVERSE = 64
#: One past the largest item the protocol accepts (int64 range).
HOSTILE_TOKEN = 2**63


def fail(message: str):
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


async def read_banner(proc: asyncio.subprocess.Process, timeout: float):
    """Read server stdout until the listening banner; return (host, port)."""
    assert proc.stdout is not None
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        remaining = deadline - asyncio.get_running_loop().time()
        if remaining <= 0:
            fail("server never printed its listening banner")
        raw = await asyncio.wait_for(proc.stdout.readline(), remaining)
        if not raw:
            fail("server exited before printing its banner")
        line = raw.decode().strip()
        print(f"  server| {line}")
        match = BANNER_RE.match(line)
        if match:
            return match.group(1), int(match.group(2))


async def drive_tenant(host: str, port: int, index: int, items: int) -> None:
    """One tenant: HELLO, ingest a known stream, verify queries."""
    tenant = f"smoke-{index}"
    op = TENANT_OPS[index % len(TENANT_OPS)]
    # Deterministic skewed stream: item k appears (k + 1) * reps times.
    reps = max(1, items // (UNIVERSE * (UNIVERSE + 1) // 2))
    stream = [k for k in range(UNIVERSE) for _ in range((k + 1) * reps)]
    async with await LineClient.connect(host, port) as client:
        hello = await client.hello(tenant, [op])
        if hello.get("tenant") != tenant:
            fail(f"{tenant}: HELLO echoed {hello!r}")
        for start in range(0, len(stream), 512):
            await client.ingest(stream[start : start + 512])
        # Spin until the pump has published at least one epoch.
        for _ in range(2000):
            answer = await client.query(op)
            if answer["epoch"] >= 1:
                break
            await asyncio.sleep(0.01)
        else:
            fail(f"{tenant}: epoch never advanced past 0")
        stats = await client.stats()
        if stats.get("items_accepted") != len(stream):
            fail(
                f"{tenant}: accepted {stats.get('items_accepted')} items, "
                f"sent {len(stream)}"
            )
        await client.quit()
    print(
        f"  tenant| {tenant}: {len(stream)} items via {op}, "
        f"epoch {answer['epoch']}"
    )


async def drive_sketch_tenant(host: str, port: int, items: int) -> None:
    """The sketch tenant: every QUERY answer must be 64 Python ints
    equal to the probe of a local serial fold of the items sent."""
    tenant = "smoke-sketch"
    stream = np.random.default_rng(7).integers(0, 2 * UNIVERSE, size=items)
    async with await LineClient.connect(host, port) as client:
        await client.hello(tenant, list(SKETCH_OPS))
        for start in range(0, len(stream), 512):
            await client.ingest(stream[start : start + 512])
        # The pump folds and publishes in one step, so once STATS
        # reports every item folded the latest snapshot covers them all.
        for _ in range(2000):
            stats = await client.stats()
            if stats["items_folded"] == len(stream):
                break
            await asyncio.sleep(0.01)
        else:
            fail(f"{tenant}: folded {stats['items_folded']} of {len(stream)} items")
        for op in SKETCH_OPS:
            spec = registry.get(op)
            local = spec.build()
            local.ingest(stream)
            expected = spec.probe(local)
            result = (await client.query(op))["result"]
            if len(result) != 64 or not all(type(x) is int for x in result):
                fail(f"{tenant}: {op} answered {result!r}, not 64 ints")
            if result != expected:
                fail(f"{tenant}: {op} answered {result}, serial fold gives {expected}")
        # A token outside [0, 2^63) is a typed rejection that leaves
        # the connection usable and ingests nothing.
        try:
            await client.ingest([5, HOSTILE_TOKEN])
        except ProtocolError as exc:
            if exc.args[0] != "protocol":
                fail(f"{tenant}: out-of-range token got ERR {exc.args[0]}")
        else:
            fail(f"{tenant}: out-of-range token {HOSTILE_TOKEN} was accepted")
        if (await client.ping()).get("pong") is not True:
            fail(f"{tenant}: PING after the rejected INGEST failed")
        stats = await client.stats()
        if stats["items_accepted"] != len(stream):
            fail(
                f"{tenant}: accepted {stats['items_accepted']} items after the "
                f"rejected INGEST, sent {len(stream)} valid ones"
            )
        await client.quit()
    print(
        f"  tenant| {tenant}: {len(stream)} items via {','.join(SKETCH_OPS)}, "
        "out-of-range token rejected"
    )


async def run(tenants: int, items: int, timeout: float) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = await asyncio.create_subprocess_exec(
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--max-tenants",
        str(tenants + 1),
        "--max-seconds",
        str(timeout),
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.STDOUT,
        env=env,
        cwd=REPO,
    )
    try:
        host, port = await read_banner(proc, timeout=min(timeout, 30.0))
        await asyncio.gather(
            *(drive_tenant(host, port, i, items) for i in range(tenants)),
            drive_sketch_tenant(host, port, items),
        )
        proc.send_signal(signal.SIGINT)
        raw, _ = await asyncio.wait_for(proc.communicate(), timeout)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
        raise
    tail = raw.decode()
    for line in tail.splitlines():
        print(f"  server| {line}")
    total = tenants + 1
    drained = re.findall(r"^drained smoke-[\w-]+: .*$", tail, flags=re.M)
    if len(drained) != total:
        fail(f"expected {total} per-tenant drain lines, saw {len(drained)}")
    dirty = [line for line in drained if "clean" not in line]
    if dirty:
        fail(f"unclean drains: {dirty}")
    if f"drained smoke-sketch: {items} items / " not in tail:
        fail(f"smoke-sketch did not drain exactly its {items} valid items")
    if "Traceback" in tail or "Unhandled exception" in tail:
        fail("server printed an unhandled exception")
    if f"drained {total} tenant(s)" not in tail:
        fail("missing drain summary line")
    if proc.returncode != 0:
        fail(f"server exited {proc.returncode}")
    print(f"serve-smoke: OK — {total} tenants, all drains clean")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--items", type=int, default=4096, help="per tenant")
    parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="hard wall-clock ceiling for the whole smoke (seconds)",
    )
    args = parser.parse_args()
    return asyncio.run(run(args.tenants, args.items, args.timeout))


if __name__ == "__main__":
    raise SystemExit(main())
