"""Traced ``repro serve``: the server with span wrappers installed.

``serve.py`` starts this file instead of ``python -m repro serve`` for
the traced half of a ``--trace 1`` run.  It installs the benchmark's
wrappers, runs ``repro.cli.main(["serve", ...])`` unchanged, and when
the server begins to drain freezes the span aggregates, the server's
CPU time since it started listening, and the tenant session counters.
After the server exits it prints them as one ``perfbench-trace`` line.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
from common import MERGED_CLASSES  # noqa: E402


def main(argv: list[str]) -> int:
    from repro import cli
    from repro.engine import registry
    from repro.observability.metrics import REGISTRY
    from repro.serve import server as server_mod
    from repro.serve import session as session_mod

    tracer = tr.Tracer()
    specs = [registry.get(name) for name in MERGED_CLASSES]
    tr.install(tracer, [spec.cls for spec in specs])
    for spec in specs:
        # SynopsisSpec is frozen; the probe is swapped on this process's
        # registry entry only.
        object.__setattr__(
            spec, "probe", tracer.span(f"core.{spec.cls.__name__}.probe", spec.probe)
        )

    verbs: dict[str, int] = {}
    parse = server_mod.parse_request

    def counting_parse(line):
        request = parse(line)
        verbs[request.verb] = verbs.get(request.verb, 0) + 1
        return request

    server_mod.parse_request = counting_parse

    sessions = []
    start_session = session_mod.TenantSession.start

    def start(self):
        sessions.append(self)
        return start_session(self)

    session_mod.TenantSession.start = start

    frozen: dict = {}
    serve_start = server_mod.StreamServer.start
    serve_drain = server_mod.StreamServer.drain

    async def started(self):
        frozen["cpu0"] = time.process_time()
        return await serve_start(self)

    async def drain(self):
        frozen["cpu_s"] = time.process_time() - frozen["cpu0"]
        frozen["spans"] = tracer.to_json()
        frozen["verbs"] = dict(verbs)
        frozen["sessions"] = [
            {
                "items_folded": s.items_folded,
                "batches_pumped": s.batches_pumped,
                "backpressure_waits": s.backpressure_waits,
            }
            for s in sessions
        ]
        frozen["gauges"] = {
            m.name: m.value() for m in REGISTRY.collect()
            if m.kind == "gauge" and not m.label_names
        }
        return await serve_drain(self)

    server_mod.StreamServer.start = started
    server_mod.StreamServer.drain = drain

    code = cli.main(["serve", *argv])
    print("perfbench-trace " + json.dumps(frozen), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
