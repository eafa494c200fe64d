#!/usr/bin/env python
"""CI smoke test for the benchmark's trace points (perfbench/README.md).

Runs ``perfbench/run.py`` once per workload with ``--trace 1``, which
installs a span wrapper around every ``LAYER_POINTS`` target in
``perfbench/tracer.py``.  A target that was deleted or renamed makes
that install fail, so this catches the breakage at CI time instead of
at benchmark time.  Each run must exit 0 and report ``"failed": 0`` on
its last stdout line.

Runs in well under a minute (2 s windows); wired into ``make test`` as
``perfbench-smoke``.  Exit status: 0 on success, 1 on any failed run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline-zipf", "window-zipf", "serve-uniform", "concurrent-zipf")
SEED = 9001
SECONDS = 2


def run(workload: str) -> str | None:
    """Run one traced workload; return a failure message or ``None``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1",
    ]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    if proc.returncode != 0:
        return f"exit {proc.returncode}\n{proc.stderr.strip()}"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return f"no JSON result line in stdout:\n{proc.stdout.strip()}"
    if result.get("failed") != 0:
        return f"failed={result.get('failed')} of attempted={result.get('attempted')}"
    return None


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        error = run(workload)
        if error is None:
            print(f"perfbench smoke OK: {workload}")
        else:
            failures += 1
            print(f"perfbench smoke FAILED: {workload}: {error}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
