"""In-memory span tracer installed around layer entry points.

The benchmark times calls into each layer's public functions from its
own files: :func:`install` replaces a class or module attribute with a
timing wrapper and :meth:`Installation.uninstall` puts the original
object back.  Spans nest per thread, so a layer's *self* time is its
span duration minus the spans it called.  Nothing is written while the
workload runs; the aggregates are read at the end.

:func:`assert_clean` checks, by object identity, that every attribute
ever wrapped holds its original again.  End-to-end runs call it first,
so gated numbers never carry tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Any, Callable, Iterable

#: (module, attribute path, span name).  The attribute path is a
#: module-level function (``"fork_join"``) or ``"Class.method"``.
#: Functions the server imported by name are wrapped where it looks
#: them up (``repro.serve.server``), not where they are defined.
LAYER_POINTS: tuple[tuple[str, str, str], ...] = (
    # stream.minibatch + engine.graph: driver dispatch
    ("repro.stream.minibatch", "MinibatchDriver.run", "driver.run"),
    ("repro.engine.graph", "DataflowGraph.execute", "driver.graph"),
    # engine.fusion
    ("repro.engine.fusion", "FusedIngestPlan.execute", "fusion.execute"),
    ("repro.engine.fusion", "FusedIngestPlan._kernel", "fusion.kernel"),
    # pram.plan
    ("repro.pram.plan", "PreparedBatch.hist_arrays", "plan.hist_arrays"),
    ("repro.pram.plan", "PreparedBatch.sorted_hist_arrays", "plan.sorted_hist"),
    ("repro.pram.plan", "PreparedBatch.sketch_hist", "plan.sketch_hist"),
    ("repro.pram.plan", "PreparedBatch.item_keys", "plan.item_keys"),
    ("repro.pram.plan", "PreparedBatch.encoded", "plan.encoded"),
    ("repro.pram.plan", "PreparedBatch.positions_by_item", "plan.positions_by_item"),
    ("repro.pram.plan", "PreparedBatch.hash_columns", "plan.hash_columns"),
    # concurrent.epoch
    ("repro.concurrent.epoch", "SnapshotStore.publish", "epoch.publish"),
    ("repro.concurrent.epoch", "SnapshotStore.query", "epoch.query"),
    # concurrent.buffers + pram.backend
    ("repro.concurrent.buffers", "ConcurrentIngestor.ingest", "buffers.ingest"),
    ("repro.concurrent.buffers", "ConcurrentIngestor._strand", "buffers.strand"),
    ("repro.concurrent.buffers", "ConcurrentIngestor._flush", "buffers.flush"),
    ("repro.concurrent.buffers", "ConcurrentIngestor.sync", "buffers.sync"),
    ("repro.concurrent.buffers", "LocalBuffer.ingest", "buffers.local_ingest"),
    ("repro.concurrent.buffers", "LocalBuffer.reset", "buffers.reset"),
    ("repro.concurrent.buffers", "fork_join", "backend.fork_join"),
    # serve.protocol (as bound in serve.server) + serve.session
    ("repro.serve.server", "parse_request", "serve.parse_request"),
    ("repro.serve.server", "encode_ok", "serve.encode_ok"),
    ("repro.serve.session", "TenantSession.query", "session.query"),
    ("repro.serve.session", "TenantSession.submit", "session.submit"),
)

#: Operator methods wrapped per class, as span ``core.<Class>.<kind>``.
CORE_METHODS: dict[str, str] = {
    "ingest": "ingest",
    "ingest_prepared": "ingest",
    "ingest_fused": "ingest",
    "merge": "merge",
    "fresh_clone": "clone",
    "state_dict": "codec",
    "load_state": "codec",
}

#: Spans whose second positional argument is the batch (or plan) they
#: ingest, so the span also counts items.
_BATCH_SPANS = frozenset(
    {"driver.run", "fusion.execute", "buffers.ingest", "buffers.local_ingest"}
)


def _batch_items(args: tuple) -> int:
    if len(args) < 2:
        return 0
    size = getattr(args[1], "size", None)
    if isinstance(size, int):
        return size
    try:
        return len(args[1])
    except TypeError:
        return 0


class Tracer:
    """Per-name span aggregates: ``[calls, total_s, child_s, items]``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: dict[str, list] = {}
        #: thread name -> summed duration of that thread's root spans.
        self.roots: dict[str, float] = {}
        #: coroutine name -> summed wall time, suspensions included.
        self.waits: dict[str, float] = {}

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, elapsed: float, child: float, items: int = 0) -> None:
        with self._lock:
            rec = self.stats.get(name)
            if rec is None:
                rec = self.stats[name] = [0, 0.0, 0.0, 0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += child
            rec[3] += items

    def span(self, name: str, fn: Callable, items: Callable | None = None) -> Callable:
        """A synchronous wrapper recording one nested span per call."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    thread = threading.current_thread().name
                    with self._lock:
                        self.roots[thread] = self.roots.get(thread, 0.0) + elapsed
                self.record(name, elapsed, child, items(args) if items else 0)

        return wrapper

    def async_span(self, name: str, fn: Callable) -> Callable:
        """A coroutine wrapper.  It records wall time including time
        spent suspended, outside the nesting stack, because other tasks
        run on the thread while it waits."""

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                with self._lock:
                    self.waits[name] = self.waits.get(name, 0.0) + elapsed

        return wrapper

    # ------------------------------------------------------------------
    def _rec(self, name: str) -> list:
        return self.stats.get(name, [0, 0.0, 0.0, 0])

    def calls(self, name: str) -> int:
        return int(self._rec(name)[0])

    def total(self, name: str) -> float:
        return float(self._rec(name)[1])

    def self_time(self, name: str) -> float:
        rec = self._rec(name)
        return float(rec[1] - rec[2])

    def items(self, name: str) -> int:
        return int(self._rec(name)[3])

    def self_sum(self, prefix: str) -> float:
        return float(
            sum(r[1] - r[2] for n, r in self.stats.items() if n.startswith(prefix))
        )

    def to_json(self) -> dict:
        with self._lock:
            return {
                "stats": {n: list(r) for n, r in self.stats.items()},
                "roots": dict(self.roots),
                "waits": dict(self.waits),
            }

    @classmethod
    def from_json(cls, data: dict) -> "Tracer":
        tracer = cls()
        tracer.stats = {n: list(r) for n, r in data["stats"].items()}
        tracer.roots = dict(data["roots"])
        tracer.waits = dict(data["waits"])
        return tracer


class Installation:
    """The wrappers one :func:`install` call put in place.  An inherited
    method is shadowed on the class itself and deleted again on
    uninstall (its recorded original is ``None``)."""

    def __init__(self) -> None:
        self.patched: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self.patched.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.patched.clear()


#: Every (owner, attribute, original) ever wrapped in this process, so
#: :func:`assert_clean` can prove the originals are back.
_WRAPPED: list[tuple[Any, str, Any]] = []


def install(tracer: Tracer, operator_classes: Iterable[type] = ()) -> Installation:
    """Wrap every layer entry point plus the core methods defined on
    each of ``operator_classes``; returns the handle that removes them."""
    inst = Installation()
    for module, path, name in LAYER_POINTS:
        owner: Any = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        if inspect.iscoroutinefunction(fn):
            wrapper = tracer.async_span(name, fn)
        else:
            wrapper = tracer.span(name, fn, _batch_items if name in _BATCH_SPANS else None)
        inst.patch(owner, attr, wrapper)
    for cls in operator_classes:
        for method, kind in CORE_METHODS.items():
            fn = inspect.getattr_static(cls, method, None)
            if inspect.isfunction(fn):
                inst.patch(
                    cls,
                    method,
                    tracer.span(
                        f"core.{cls.__name__}.{kind}",
                        fn,
                        _batch_items if kind == "ingest" else None,
                    ),
                )
    _WRAPPED.extend(inst.patched)
    return inst


def assert_clean() -> None:
    """Raise unless every attribute ever wrapped holds its original
    object again (identity, not equality)."""
    for owner, attr, original in _WRAPPED:
        if vars(owner).get(attr) is not original:
            raise RuntimeError(f"tracing wrapper still installed on {owner!r}.{attr}")
