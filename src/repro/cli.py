"""Command-line front-end: run the paper's aggregates over a file or
stdin of integers.

Examples
--------
Heavy hitters over the whole stream::

    python -m repro heavy-hitters --phi 0.05 --eps 0.01 items.txt

Sliding-window heavy hitters, 1M-item window, reading stdin::

    generator | python -m repro heavy-hitters --phi 0.01 --window 1000000

Basic counting on a 0/1 stream, frequency estimates, windowed sums,
and Count-Min point queries work the same way; ``--report-every``
prints interim answers (the paper's interleaved queries).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.engine import registry
from repro.engine.mergetree import mergeable
from repro.observability.metrics import REGISTRY
from repro.pram.cost import tracking
from repro.resilience.invariants import InvariantViolation

__all__ = ["main", "build_parser"]

# CLI-level metrics (catalog: docs/observability.md).
_M_CLI_BATCHES = REGISTRY.counter(
    "repro_cli_batches_total", "Minibatches read by the CLI front-end"
)
_M_CLI_ITEMS = REGISTRY.counter(
    "repro_cli_items_total", "Stream elements read by the CLI front-end"
)
_M_CLI_REPORTS = REGISTRY.counter(
    "repro_cli_interim_reports_total", "Interim answers printed (--report-every)"
)


def _read_batches(path: str | None, batch_size: int) -> Iterator[np.ndarray]:
    """Yield int64 minibatches from a whitespace-separated file/stdin."""
    stream = open(path) if path else sys.stdin
    try:
        buffer: list[int] = []
        for line in stream:
            for token in line.split():
                buffer.append(int(token))
                if len(buffer) >= batch_size:
                    yield np.asarray(buffer, dtype=np.int64)
                    buffer = []
        if buffer:
            yield np.asarray(buffer, dtype=np.int64)
    finally:
        if path:
            stream.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel streaming frequency-based aggregates (SPAA 2014)",
    )
    parser.add_argument(
        "--batch", type=int, default=4096, help="minibatch size (default 4096)"
    )
    parser.add_argument(
        "--report-every",
        type=int,
        default=0,
        metavar="K",
        help="print an interim answer every K minibatches",
    )
    parser.add_argument(
        "--costs",
        action="store_true",
        help="print total charged work/depth at the end",
    )
    parser.add_argument(
        "--metrics",
        choices=("prom", "json"),
        default=None,
        metavar="FORMAT",
        help="dump the process metrics registry at the end "
        "(prom = Prometheus text exposition, json = versioned JSON)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="snapshot operator state into DIR (atomic, checksummed)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=16,
        metavar="K",
        help="checkpoint every K minibatches (default 16)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore from the latest checkpoint in --checkpoint-dir "
        "before streaming (skips nothing: feed only the new data)",
    )
    parser.add_argument(
        "--audit-every",
        type=int,
        default=0,
        metavar="K",
        help="run the operator's invariant audit every K minibatches",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="S",
        help="elastic sharded ingest with S initial shards (mergeable "
        "operators only — the M flag in `repro ops`)",
    )
    parser.add_argument(
        "--rescale-at",
        default=None,
        metavar="B:S[,B:S...]",
        help="rescale the shard count to S at the start of minibatch B "
        "(0-based), e.g. 100:64,500:4; requires --shards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hh = sub.add_parser("heavy-hitters", help="continuous φ-heavy hitters")
    hh.add_argument("--phi", type=float, required=True)
    hh.add_argument("--eps", type=float, default=None)
    hh.add_argument("--window", type=int, default=None,
                    help="sliding-window size (omit for infinite window)")
    hh.add_argument("file", nargs="?", default=None)

    freq = sub.add_parser("frequency", help="frequency estimates for items")
    freq.add_argument("--eps", type=float, required=True)
    freq.add_argument("--window", type=int, default=None)
    freq.add_argument("--query", type=int, nargs="+", required=True,
                      metavar="ITEM", help="items to report at the end")
    freq.add_argument("file", nargs="?", default=None)

    count = sub.add_parser("count", help="1s in a sliding window (0/1 input)")
    count.add_argument("--window", type=int, required=True)
    count.add_argument("--eps", type=float, default=0.1)
    count.add_argument("file", nargs="?", default=None)

    total = sub.add_parser("sum", help="windowed sum of nonnegative ints")
    total.add_argument("--window", type=int, required=True)
    total.add_argument("--eps", type=float, default=0.1)
    total.add_argument("--max-value", type=int, required=True)
    total.add_argument("file", nargs="?", default=None)

    cms = sub.add_parser("cms", help="Count-Min point queries")
    cms.add_argument("--eps", type=float, default=0.001)
    cms.add_argument("--delta", type=float, default=0.01)
    cms.add_argument("--conservative", action="store_true")
    cms.add_argument("--query", type=int, nargs="+", required=True, metavar="ITEM")
    cms.add_argument("file", nargs="?", default=None)

    quant = sub.add_parser(
        "quantile", help="windowed quantiles via the histogram reduction"
    )
    quant.add_argument("--window", type=int, required=True)
    quant.add_argument("--eps", type=float, default=0.05)
    quant.add_argument("--max-value", type=int, required=True)
    quant.add_argument("--buckets", type=int, default=64)
    quant.add_argument("--q", type=float, nargs="+", default=[0.5, 0.95, 0.99])
    quant.add_argument("file", nargs="?", default=None)

    var = sub.add_parser(
        "variance", help="windowed mean/variance via the Sum reduction"
    )
    var.add_argument("--window", type=int, required=True)
    var.add_argument("--eps", type=float, default=0.02)
    var.add_argument("--max-value", type=int, required=True)
    var.add_argument(
        "--eh",
        action="store_true",
        help="use the exponential-histogram operator instead of the Sum "
        "reduction (certified [lo, hi] bounds in the answer)",
    )
    var.add_argument("file", nargs="?", default=None)

    drift = sub.add_parser(
        "drift",
        help="change detection over a windowed mean estimate (the monitor "
        "sees one estimate per minibatch — pass a --batch no larger than "
        "the window so drift can be localized)",
    )
    drift.add_argument("--window", type=int, required=True)
    drift.add_argument("--eps", type=float, default=0.1)
    drift.add_argument("--max-value", type=int, required=True)
    drift.add_argument(
        "--detector",
        choices=("ddm", "ewma"),
        default="ddm",
        help="monitor statistic: ddm = cumulative-mean minimum tracking, "
        "ewma = exponentially weighted moving average vs running baseline",
    )
    drift.add_argument("file", nargs="?", default=None)

    ops = sub.add_parser(
        "ops",
        help="list every registered synopsis with its capability flags "
        f"({registry.Capabilities.legend()})",
    )
    ops.add_argument(
        "--verbose",
        action="store_true",
        help="also show each operator's canonical query probe — the "
        "expression `repro serve` answers QUERY with (docs/api.md)",
    )

    serve = sub.add_parser(
        "serve",
        help="multi-tenant asyncio ingest/query server speaking the "
        "serve/v1 line protocol (docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--max-tenants", type=int, default=64,
        help="admission-control cap on live tenant sessions (default 64)",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=None, metavar="ITEMS_PER_SEC",
        help="per-tenant ingest quota (token bucket; default unlimited)",
    )
    serve.add_argument(
        "--quota-burst", type=float, default=None, metavar="ITEMS",
        help="token-bucket burst capacity (default: one second of quota)",
    )
    serve.add_argument(
        "--queue-max", type=int, default=64,
        help="per-tenant bounded-queue capacity in submissions (default 64)",
    )
    serve.add_argument(
        "--high-watermark", type=int, default=None, metavar="DEPTH",
        help="queue depth that parks submitters (default 3/4 of --queue-max)",
    )
    serve.add_argument(
        "--max-seconds", type=float, default=None, metavar="SECONDS",
        help="drain and exit after this long (default: run until SIGINT)",
    )

    client = sub.add_parser(
        "client",
        help="line-protocol client: ingest a file/stdin into a tenant "
        "session and query its operators (docs/serving.md)",
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--tenant", required=True)
    client.add_argument(
        "--ops", required=True, metavar="NAME[,NAME...]",
        help="comma-separated servable operator names (see `repro ops`)",
    )
    client.add_argument(
        "--query", nargs="+", default=None, metavar="NAME",
        help="operators to query after ingest (default: all of --ops)",
    )
    client.add_argument(
        "--stats", action="store_true", help="print session stats at the end"
    )
    client.add_argument(
        "file", nargs="?", default=None,
        help="integers to ingest (default stdin; skipped on a TTY)",
    )

    prof = sub.add_parser(
        "profile",
        help="ledger-vs-wallclock profiler: per-operator attribution "
        "for a canonical experiment workload (docs/observability.md)",
    )
    prof.add_argument(
        "--experiment",
        required=True,
        metavar="ID",
        help="experiment id to profile (e.g. e13; see docs/observability.md)",
    )
    prof.add_argument(
        "--items", type=int, default=100_000, help="workload size (default 100000)"
    )
    prof.add_argument(
        "--no-calibrate",
        action="store_true",
        help="skip the primitive calibration sweep (report only what "
        "the experiment's workload touches)",
    )
    prof.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzer: every registered synopsis vs its "
        "exact oracle and metamorphic variants (docs/testing.md)",
    )
    fuzz.add_argument(
        "--cases", type=int, default=200,
        help="number of cases to run (default 200)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="root seed (default 0)"
    )
    fuzz.add_argument(
        "--ops", nargs="+", default=None, metavar="NAME",
        help="fuzz only these registered operators (default: all)",
    )
    fuzz.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop starting new cases after this many seconds",
    )
    fuzz.add_argument(
        "--soak", action="store_true",
        help="ignore --cases and cycle the registry until the time "
        "budget (default 300 s) runs out",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="SEED_SPEC",
        help="replay one case bit-identically from its fuzz/v1 seed-spec",
    )
    fuzz.add_argument(
        "--replay-file", default=None, metavar="ARTIFACT",
        help="replay the case stored in a repro-fuzzcase/v1 artifact",
    )
    fuzz.add_argument(
        "--artifact-dir", default="fuzzcases", metavar="DIR",
        help="directory for failing-case artifacts (default fuzzcases)",
    )
    fuzz.add_argument(
        "--relations", nargs="+", default=None, metavar="RELATION",
        help="run only these differential relations (e.g. staleness; "
        "default: all that apply)",
    )

    return parser


def _profile(args: argparse.Namespace, out) -> None:
    import json

    from repro.observability.profile import run_profile

    report = run_profile(
        args.experiment, items=args.items, calibrate=not args.no_calibrate
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2), file=out)
    else:
        print(report.render(), file=out)


def _fuzz(args: argparse.Namespace, out) -> int:
    from repro.fuzz import replay_case, run_fuzz
    from repro.fuzz.runner import load_artifact_spec

    seed_spec = args.replay
    if args.replay_file is not None:
        if seed_spec is not None:
            raise ValueError("--replay and --replay-file are mutually exclusive")
        seed_spec = load_artifact_spec(args.replay_file)
    if seed_spec is not None:
        plan, stream, violations = replay_case(seed_spec)
        print(f"replaying {seed_spec}", file=out)
        print(
            f"operator {plan.op}: {len(stream)} items, "
            f"batch {plan.batch_size}, shrink={list(plan.shrink)}",
            file=out,
        )
        if violations:
            for violation in violations:
                print(f"  [{violation.relation}] {violation.detail}", file=out)
            print("result: reproduced", file=out)
            return 1
        print("result: no violation reproduced (already fixed?)", file=out)
        return 0

    report = run_fuzz(
        args.seed,
        cases=args.cases,
        ops=args.ops,
        time_budget=args.time_budget,
        soak=args.soak,
        artifact_dir=args.artifact_dir,
        relations=args.relations,
    )
    print(report.render(), file=out)
    return 0 if report.ok else 1


def _dump_metrics(fmt: str, out) -> None:
    from repro.observability.export import to_json_text, to_prometheus_text
    from repro.observability.metrics import REGISTRY

    text = to_prometheus_text(REGISTRY) if fmt == "prom" else to_json_text(REGISTRY)
    print(text, end="", file=out)


@dataclass(frozen=True)
class _Command:
    """How a CLI subcommand maps onto the synopsis registry.

    ``resolve`` picks the registered operator name and constructor
    kwargs from the parsed arguments (e.g. ``heavy-hitters`` dispatches
    on ``--window``); ``answer`` renders the final/interim query.  The
    operators themselves come from :mod:`repro.engine.registry`, so the
    CLI never hard-codes a class — new synopses become runnable by
    registering them.
    """

    resolve: Callable[[argparse.Namespace], tuple[str, dict[str, Any]]]
    answer: Callable[[Any, argparse.Namespace], Any]


def _resolve_heavy_hitters(args: argparse.Namespace) -> tuple[str, dict[str, Any]]:
    if args.window:
        return "SlidingHeavyHitters", {
            "window": args.window, "phi": args.phi, "eps": args.eps,
        }
    return "InfiniteHeavyHitters", {"phi": args.phi, "eps": args.eps}


def _resolve_frequency(args: argparse.Namespace) -> tuple[str, dict[str, Any]]:
    if args.window:
        return "WorkEfficientSlidingFrequency", {
            "window": args.window, "eps": args.eps,
        }
    return "ParallelFrequencyEstimator", {"eps": args.eps}


def _quantile_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    edges = np.linspace(0, args.max_value + 1, args.buckets + 1)
    return {"window": args.window, "eps": args.eps, "edges": edges}


def _answer_variance(op: Any, args: argparse.Namespace) -> dict[str, Any]:
    answer = {"mean": round(op.mean(), 3), "variance": round(op.query(), 3)}
    if args.eh:
        lo, hi = op.variance_bounds()
        answer["variance_bounds"] = (round(lo, 3), round(hi, 3))
    return answer


def _answer_drift(op: Any, args: argparse.Namespace) -> dict[str, Any]:
    drifts, warns, last_update = op.query()
    return {
        "drifts": drifts,
        "warns": warns,
        "last_drift_update": last_update,
        "drift_points": op.drift_points(),
    }


_COMMANDS: dict[str, _Command] = {
    "heavy-hitters": _Command(
        _resolve_heavy_hitters,
        lambda op, args: sorted(op.query().items(), key=lambda kv: -kv[1]),
    ),
    "frequency": _Command(
        _resolve_frequency,
        lambda op, args: [(item, op.estimate(item)) for item in args.query],
    ),
    "count": _Command(
        lambda args: (
            "ParallelBasicCounter", {"window": args.window, "eps": args.eps}
        ),
        lambda op, args: op.query(),
    ),
    "sum": _Command(
        lambda args: ("ParallelWindowedSum", {
            "window": args.window, "eps": args.eps, "max_value": args.max_value,
        }),
        lambda op, args: op.query(),
    ),
    "cms": _Command(
        lambda args: ("ParallelCountMin", {
            "eps": args.eps, "delta": args.delta,
            "conservative": args.conservative,
        }),
        lambda op, args: [(item, op.point_query(item)) for item in args.query],
    ),
    "quantile": _Command(
        lambda args: ("WindowedHistogram", _quantile_kwargs(args)),
        lambda op, args: [(q, op.quantile(q)) for q in args.q],
    ),
    "variance": _Command(
        lambda args: (
            "ExponentialHistogramVariance" if args.eh else "WindowedVariance",
            {
                "window": args.window, "eps": args.eps,
                "max_value": args.max_value,
            },
        ),
        _answer_variance,
    ),
    "drift": _Command(
        lambda args: (
            {"ddm": "DDMDriftDetector", "ewma": "EWMADriftDetector"}[
                args.detector
            ],
            {
                "window": args.window, "eps": args.eps,
                "max_value": args.max_value,
            },
        ),
        _answer_drift,
    ),
}


def _parse_rescale_at(spec: str) -> dict[int, int]:
    """Parse ``BATCH:SHARDS[,BATCH:SHARDS...]`` into a schedule dict."""
    schedule: dict[int, int] = {}
    for part in spec.split(","):
        try:
            batch_text, shards_text = part.split(":")
            batch, shards = int(batch_text), int(shards_text)
        except ValueError:
            raise ValueError(
                f"--rescale-at entry {part!r} is not BATCH:SHARDS"
            ) from None
        if batch < 0 or shards < 1:
            raise ValueError(
                f"--rescale-at entry {part!r} needs BATCH >= 0 and SHARDS >= 1"
            )
        schedule[batch] = shards
    return schedule


def _list_ops(out, verbose: bool = False) -> None:
    """``repro ops``: every registered synopsis with capability flags;
    ``--verbose`` adds the canonical query probe each operator answers
    ``repro serve`` QUERY requests with."""
    specs = sorted(registry.specs(), key=lambda s: (s.kind != "core", s.name))
    tail = (
        (lambda spec: f"{spec.summary}  |  probe: {spec.probe_source()}")
        if verbose
        else (lambda spec: spec.summary)
    )
    rows = [
        (spec.name, spec.kind, spec.input, spec.caps.flags(), tail(spec))
        for spec in specs
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    header = ("NAME", "KIND", "INPUT", "CAPS", "SUMMARY")
    widths = [max(w, len(h)) for w, h in zip(widths, header)]
    print(f"caps: {registry.Capabilities.legend()}", file=out)
    for row in (header, *rows):
        columns = "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        print(f"{columns}  {row[4]}", file=out)
    servable = sum(1 for spec in specs if spec.servable)
    print(
        f"{len(rows)} synopses registered, {servable} servable", file=out
    )


def _serve(args: argparse.Namespace, out) -> int:
    """``repro serve``: run the streaming server until SIGINT/SIGTERM
    (or ``--max-seconds``), then drain every tenant gracefully."""
    import asyncio
    import signal

    from repro.serve import PROTOCOL_VERSION, ServeConfig, StreamServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_tenants=args.max_tenants,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        queue_max=args.queue_max,
        high_watermark=args.high_watermark,
        batch_size=args.batch,
        shards=args.shards,
        checkpoint_dir=args.checkpoint_dir,
    )

    async def run() -> int:
        server = await StreamServer(config).start()
        host, port = server.address
        print(f"serving {PROTOCOL_VERSION} on {host}:{port}", file=out, flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        waiters = [asyncio.ensure_future(stop.wait())]
        if args.max_seconds is not None:
            waiters.append(asyncio.ensure_future(asyncio.sleep(args.max_seconds)))
        try:
            await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for waiter in waiters:
                waiter.cancel()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(sig)
        print("draining...", file=out, flush=True)
        reports = await server.drain()
        clean = True
        for report in reports:
            status = (
                "clean" if report.clean
                else f"{report.dead_letters} dead-lettered"
            )
            suffix = f", checkpoint {report.checkpoint}" if report.checkpoint else ""
            print(
                f"drained {report.tenant}: {report.items} items / "
                f"{report.batches} batches, epoch {report.epoch}, "
                f"{status}{suffix}",
                file=out,
            )
            clean = clean and report.clean
        print(f"drained {len(reports)} tenant(s)", file=out, flush=True)
        return 0 if clean else 1

    return asyncio.run(run())


def _client(args: argparse.Namespace, out) -> int:
    """``repro client``: attach a tenant, stream a file of integers in,
    then query and report."""
    import asyncio

    from repro.serve import LineClient

    ops = [name for name in args.ops.split(",") if name]
    if not ops:
        raise ValueError("--ops needs at least one operator name")
    skip_ingest = args.file is None and sys.stdin.isatty()

    async def run() -> int:
        client = await LineClient.connect(args.host, args.port)
        try:
            hello = await client.hello(args.tenant, ops)
            print(
                f"tenant {args.tenant} attached "
                f"(epoch {hello['epoch']}, ops {','.join(hello['ops'])})",
                file=out,
            )
            if not skip_ingest:
                total = 0
                for batch in _read_batches(args.file, args.batch):
                    reply = await client.ingest(batch)
                    total += reply["accepted"]
                print(f"ingested {total} items", file=out)
            for op_name in args.query or ops:
                answer = await client.query(op_name)
                print(
                    f"{op_name} @ epoch {answer['epoch']}: {answer['result']}",
                    file=out,
                )
            if args.stats:
                stats = await client.stats()
                print(f"stats: {stats}", file=out)
            await client.quit()
        finally:
            await client.close()
        return 0

    return asyncio.run(run())


def _run(args: argparse.Namespace, out) -> int | None:
    """Execute one subcommand; a non-None return becomes the exit code
    (the fuzzer signals violations with exit 1, distinct from usage
    errors at 2 and invariant violations at 3)."""
    if args.command == "fuzz":
        return _fuzz(args, out)
    if args.command == "profile":
        _profile(args, out)
        return None
    if args.command == "ops":
        _list_ops(out, verbose=args.verbose)
        return None
    if args.command == "serve":
        return _serve(args, out)
    if args.command == "client":
        return _client(args, out)
    command = _COMMANDS.get(args.command)
    if command is None:  # pragma: no cover - argparse enforces choices
        raise SystemExit(f"unknown command {args.command}")
    name, kwargs = command.resolve(args)
    op = registry.create(name, **kwargs)

    ingestor = None
    schedule: dict[int, int] = {}
    if args.shards is not None:
        if not mergeable(op):
            raise ValueError(
                f"--shards needs a mergeable operator (the M flag in "
                f"`repro ops`); {name} is not mergeable"
            )
        from repro.resilience.reshard import ElasticShardedIngestor

        schedule = _parse_rescale_at(args.rescale_at) if args.rescale_at else {}
        ingestor = ElasticShardedIngestor(op, shards=args.shards, label=name)
    elif args.rescale_at:
        raise ValueError("--rescale-at requires --shards")

    def synced() -> Any:
        # Queries, audits, and snapshots must see total state; folding
        # is a no-op when nothing is outstanding.
        if ingestor is not None:
            ingestor.sync()
        return op

    final = lambda: command.answer(synced(), args)  # noqa: E731
    interim = final

    manager = None
    items = 0
    batches_done = 0
    if args.checkpoint_dir:
        from repro.resilience import CheckpointManager

        manager = CheckpointManager(
            args.checkpoint_dir, every=max(1, args.checkpoint_every)
        )
        if args.resume:
            latest = manager.load_latest()
            if latest is not None:
                op.load_state(latest["state"]["op"])
                items = int(latest["state"]["items"])
                batches_done = int(latest["batch_index"])
                if hasattr(op, "check_invariants"):
                    op.check_invariants()
                print(
                    f"resumed from checkpoint at {items} items "
                    f"(batch {batches_done})",
                    file=out,
                )
    elif args.resume:
        raise ValueError("--resume requires --checkpoint-dir")

    def snapshot() -> dict:
        return {"op": synced().state_dict(), "items": items}

    for i, batch in enumerate(_read_batches(args.file, args.batch)):
        if ingestor is not None:
            target = schedule.get(i)
            if target is not None:
                ingestor.rescale(target, reason="scheduled", batch_index=i)
            ingestor.ingest(batch, batch_id=i)
        else:
            op.ingest(batch)
        items += len(batch)
        batches_done += 1
        _M_CLI_BATCHES.inc()
        _M_CLI_ITEMS.inc(int(len(batch)))
        if args.report_every and (i + 1) % args.report_every == 0:
            _M_CLI_REPORTS.inc()
            print(f"[{items} items] {interim()}", file=out)
        if args.audit_every and (i + 1) % args.audit_every == 0:
            if hasattr(op, "check_invariants"):
                synced().check_invariants()
        if manager is not None:
            manager.maybe_save(snapshot(), batches_done)

    if manager is not None and batches_done % manager.every != 0:
        manager.save(snapshot(), batch_index=batches_done)

    if ingestor is not None:
        synced()
        for event in ingestor.events:
            at = "?" if event.batch_index is None else event.batch_index
            print(
                f"reshard @ batch {at}: {event.old_shards} -> "
                f"{event.new_shards} shards ({event.reason}, "
                f"{event.seconds * 1e3:.2f} ms)",
                file=out,
            )
        print(f"final shards: {ingestor.shards}", file=out)

    print(f"items processed: {items}", file=out)
    print(f"answer: {final()}", file=out)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.costs:
            with tracking() as ledger:
                code = _run(args, out)
            print(f"charged work: {ledger.work}  depth: {ledger.depth}", file=out)
        else:
            code = _run(args, out)
        if args.metrics:
            _dump_metrics(args.metrics, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    return int(code) if code else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
