"""Layer-attributed wall-clock benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline-zipf --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures half the window untraced and half with span
wrappers installed around every layer's entry points, and reports the
per-layer metrics.  Either way every answer is checked against exact
ground truth, and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines
stamp the run (seed, code hash, host, calibration) and, with
``--trace 0``, give the raw values before host normalization.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import common  # noqa: E402

WORKLOADS = ("pipeline-zipf", "window-zipf", "serve-uniform", "concurrent-zipf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test must be importable from this checkout;
    # without it the benchmark fails before printing any result.
    import repro  # noqa: F401

    import inproc
    import serve

    # Every workload but concurrent-zipf is single-threaded (serve-uniform
    # in its server process); those run pinned to one CPU.
    cpu = None if args.workload == "concurrent-zipf" else common.pin_fastest_cpu()
    calib = common.calib_ns()
    stamp = common.stamp(args.workload, args.seed, calib)
    stamp["pinned_cpu"] = cpu
    print("perfbench-stamp " + json.dumps(stamp), flush=True)

    out = common.Outcome()
    trace = bool(args.trace)
    if args.workload == "serve-uniform":
        values = serve.run(args.seed, args.seconds, trace, calib, out)
    elif args.workload == "concurrent-zipf":
        values = inproc.run_concurrent(args.seed, args.seconds, trace, calib, out)
    else:
        values = inproc.run_driver(args.workload, args.seed, args.seconds, trace, calib, out)

    units = common.PER_LAYER if trace else common.END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
