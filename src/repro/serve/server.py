"""The asyncio multi-tenant streaming server (docs/serving.md).

``StreamServer`` accepts ``serve/v1`` line-protocol connections
(:mod:`repro.serve.protocol`) and routes each one to a
:class:`~repro.serve.session.TenantSession`:

* **admission control** — the first ``HELLO`` of a new tenant passes
  through an :class:`~repro.serve.quota.AdmissionController`; at
  ``max_tenants`` the session is refused with ``ERR admission`` and
  nothing is allocated.  Reconnects and extra connections for a live
  tenant attach to its existing session (they share the quota bucket,
  queue, and snapshots).
* **ingest** — ``INGEST`` submissions run the session's quota throttle
  and high-watermark backpressure *inside the connection's read loop*,
  so an over-rate or over-depth tenant simply stops being read from —
  the kernel's TCP flow control pushes the slowdown back to the client
  without a single in-band drop.
* **queries during ingest** — ``QUERY`` answers from the latest
  published snapshot; it costs one epoch-stamped probe and never takes
  a lock the ingest path can hold.
* **graceful drain** — :meth:`drain` stops accepting, pumps every
  session's queue dry, publishes final epochs, writes per-tenant
  checkpoints when a checkpoint directory is configured, and returns
  one :class:`~repro.serve.session.DrainReport` per tenant.  The CI
  smoke test asserts every report is ``clean`` (items folded, DLQ
  empty).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.engine import registry
from repro.observability.metrics import REGISTRY
from repro.resilience.checkpoint import CheckpointManager
from repro.serve.protocol import (
    LINE_LIMIT,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_err,
    encode_ok,
    parse_request,
)
from repro.serve.quota import AdmissionController, AdmissionError
from repro.serve.session import DrainReport, TenantSession

__all__ = ["ServeConfig", "StreamServer"]

# Server-level serve metrics (catalog: docs/observability.md).
_M_TENANTS = REGISTRY.gauge(
    "repro_serve_tenants", "Live tenant sessions on the streaming server"
)
_M_CONNECTIONS = REGISTRY.counter(
    "repro_serve_connections_total", "Client connections accepted"
)
_M_REJECTIONS = REGISTRY.counter(
    "repro_serve_rejections_total",
    "Requests refused, by reason (admission, unknown-op, protocol, ...)",
    labels=("reason",),
)
_M_DRAINS = REGISTRY.counter(
    "repro_serve_drains_total", "Tenant sessions drained to completion"
)

#: Seconds :meth:`StreamServer.drain` waits for closed connections to
#: flush their last replies before aborting them.
_CLOSE_GRACE_S = 2.0


@dataclass
class ServeConfig:
    """Knobs for one :class:`StreamServer` (CLI: ``repro serve``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off .address
    max_tenants: int = 64
    #: Per-tenant items/sec quota; ``None`` disables throttling.
    quota_rate: float | None = None
    quota_burst: float | None = None
    queue_max: int = 64
    high_watermark: int | None = None
    batch_size: int = 4096
    #: Elastic shard count per tenant driver (mergeable operators only).
    shards: int | None = None
    #: Directory for drain-time checkpoints; ``None`` skips them.
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {self.max_tenants}")


class StreamServer:
    """Multi-tenant ingest/query front-end over asyncio streams."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.sessions: dict[str, TenantSession] = {}
        self.admission = AdmissionController(self.config.max_tenants)
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self.connections = 0
        #: Open connection handlers, so :meth:`drain` can close them.
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — valid after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> "StreamServer":
        self._server = await asyncio.start_server(
            self._handle,
            self.config.host,
            self.config.port,
            limit=LINE_LIMIT,
        )
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    def _session_for(self, tenant: str, ops: list[str]) -> TenantSession:
        """Create-or-attach the tenant's session (admission on create)."""
        session = self.sessions.get(tenant)
        if session is not None:
            return session
        self.admission.admit(tenant)  # AdmissionError -> ERR admission
        try:
            manager = (
                CheckpointManager(
                    f"{self.config.checkpoint_dir}/{tenant}", every=1
                )
                if self.config.checkpoint_dir
                else None
            )
            session = TenantSession(
                tenant,
                ops,
                quota_rate=self.config.quota_rate,
                quota_burst=self.config.quota_burst,
                queue_max=self.config.queue_max,
                high_watermark=self.config.high_watermark,
                batch_size=self.config.batch_size,
                shards=self.config.shards,
                checkpoint_manager=manager,
            )
        except Exception:
            self.admission.release(tenant)
            raise
        session.start()
        self.sessions[tenant] = session
        _M_TENANTS.set(len(self.sessions))
        return session

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        _M_CONNECTIONS.inc()
        task = asyncio.current_task()
        self._handlers[task] = writer
        session: TenantSession | None = None
        try:
            while True:
                raw = await self._readline(reader, writer)
                if raw is None:
                    break
                if not raw.strip():
                    continue
                try:
                    request = parse_request(raw)
                except ProtocolError as exc:
                    _M_REJECTIONS.inc(reason="protocol")
                    writer.write(encode_err("protocol", str(exc)))
                    await writer.drain()
                    continue
                if request.verb == "QUIT":
                    writer.write(encode_ok({"bye": True}))
                    await writer.drain()
                    break
                session = await self._dispatch(request, session, reader, writer)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            self._handlers.pop(task, None)
            if session is not None:
                session.connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _readline(self, reader, writer) -> str | None:
        """One line, or ``None`` on EOF; oversized lines are answered
        with ``ERR protocol`` and the connection dropped (the limit is
        the per-connection memory bound)."""
        try:
            raw = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            _M_REJECTIONS.inc(reason="protocol")
            writer.write(
                encode_err("protocol", f"line exceeds {LINE_LIMIT} bytes")
            )
            await writer.drain()
            return None
        if not raw:
            return None
        return raw.decode(errors="replace")

    async def _dispatch(
        self,
        request,
        session: TenantSession | None,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> TenantSession | None:
        verb, args = request.verb, request.args

        if verb == "PING":
            writer.write(encode_ok({"pong": True, "tenants": len(self.sessions)}))
            return session

        if verb == "OPS":
            catalog = [
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "input": spec.input,
                    "caps": spec.caps.flags(),
                    "probe": spec.probe_source(),
                }
                for spec in registry.servable()
            ]
            writer.write(encode_ok({"protocol": PROTOCOL_VERSION, "ops": catalog}))
            return session

        if verb == "HELLO":
            if self._draining:
                _M_REJECTIONS.inc(reason="draining")
                writer.write(encode_err("draining", "server is draining"))
                return session
            tenant, ops_arg = args
            ops = [name for name in ops_arg.split(",") if name]
            unknown = [n for n in ops if n not in registry.names()]
            not_servable = [
                n for n in ops
                if n not in unknown and not registry.get(n).servable
            ]
            if not ops or unknown or not_servable:
                _M_REJECTIONS.inc(reason="unknown-op")
                writer.write(
                    encode_err(
                        "unknown-op",
                        f"unknown={unknown} unservable={not_servable}"
                        if ops
                        else "HELLO needs at least one operator",
                    )
                )
                return session
            try:
                new_session = self._session_for(tenant, ops)
            except AdmissionError as exc:
                _M_REJECTIONS.inc(reason="admission")
                writer.write(encode_err("admission", str(exc)))
                return session
            if sorted(new_session.operators) != sorted(ops):
                _M_REJECTIONS.inc(reason="protocol")
                writer.write(
                    encode_err(
                        "protocol",
                        f"tenant {tenant!r} already owns "
                        f"{sorted(new_session.operators)}",
                    )
                )
                return session
            if session is not None and session is not new_session:
                session.connections -= 1
            new_session.connections += 1
            writer.write(
                encode_ok(
                    {
                        "protocol": PROTOCOL_VERSION,
                        "tenant": tenant,
                        "ops": sorted(new_session.operators),
                        "epoch": new_session.epoch,
                    }
                )
            )
            return new_session

        if verb == "STATS":
            if session is None:
                writer.write(
                    encode_ok(
                        {
                            "tenants": len(self.sessions),
                            "max_tenants": self.config.max_tenants,
                            "connections": self.connections,
                        }
                    )
                )
            else:
                writer.write(encode_ok(session.stats()))
            return session

        # Everything below requires an open session.
        if session is None:
            _M_REJECTIONS.inc(reason="no-session")
            writer.write(encode_err("no-session", f"{verb} before HELLO"))
            return session

        if verb == "INGEST":
            try:
                expected = int(args[0])
                if expected < 0:
                    raise ValueError
            except ValueError:
                _M_REJECTIONS.inc(reason="protocol")
                writer.write(encode_err("protocol", f"bad INGEST count {args[0]!r}"))
                return session
            payload = await self._readline(reader, writer)
            if payload is None:
                return session
            try:
                items = np.array(
                    [int(token) for token in payload.split()], dtype=np.int64
                )
                # int64 already refused tokens >= 2^63 (OverflowError);
                # a negative one would wrap in the uint64 row hashes.
                if items.size and items.min() < 0:
                    raise ValueError
            except (ValueError, OverflowError):
                _M_REJECTIONS.inc(reason="protocol")
                writer.write(
                    encode_err(
                        "protocol", "ingest items must be integers in [0, 2^63)"
                    )
                )
                return session
            if len(items) != expected:
                _M_REJECTIONS.inc(reason="protocol")
                writer.write(
                    encode_err(
                        "protocol",
                        f"INGEST announced {expected} items, got {len(items)}",
                    )
                )
                return session
            try:
                accepted = await session.submit(items)
            except RuntimeError as exc:  # draining
                _M_REJECTIONS.inc(reason="draining")
                writer.write(encode_err("draining", str(exc)))
                return session
            writer.write(
                encode_ok(
                    {
                        "accepted": accepted,
                        "epoch": session.epoch,
                        "queue_depth": session.queue.qsize(),
                    }
                )
            )
            return session

        if verb == "QUERY":
            try:
                epoch, result = session.query(args[0])
            except KeyError as exc:
                _M_REJECTIONS.inc(reason="unknown-op")
                writer.write(encode_err("unknown-op", exc.args[0]))
                return session
            writer.write(encode_ok({"op": args[0], "epoch": epoch, "result": result}))
            return session

        raise AssertionError(f"unhandled verb {verb}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> list[DrainReport]:
        """Graceful shutdown: stop accepting, close open connections,
        drain every tenant session (queue dry → final epoch →
        checkpoint), release their admission slots, and return the
        per-tenant reports in tenant order.

        Closing a connection's transport hands its handler EOF, so the
        handler finishes its current request and returns normally
        rather than being cancelled mid-read when the loop shuts down.
        A client that stops reading would hold its transport open with
        unsent replies forever; after a grace period it is aborted."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        for writer in self._handlers.values():
            writer.close()
        if self._handlers:
            _, stuck = await asyncio.wait(
                list(self._handlers), timeout=_CLOSE_GRACE_S
            )
            for task in stuck:
                self._handlers[task].transport.abort()
            await asyncio.gather(*stuck, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        reports = []
        for tenant in sorted(self.sessions):
            report = await self.sessions[tenant].drain()
            self.admission.release(tenant)
            _M_DRAINS.inc()
            reports.append(report)
        self.sessions.clear()
        _M_TENANTS.set(0)
        return reports
