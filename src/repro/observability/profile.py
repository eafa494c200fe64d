"""Ledger-vs-wallclock profiler (the ``repro profile`` CLI verb).

The reproduction's evaluation currency is *charged* work/depth; this
module cross-checks it against wall-clock reality.  A canonical
workload per experiment id (E1..E15-style) runs under both the cost
ledger and the span tracer, then the per-operator attribution report
shows, for **every PRAM primitive** (exercised or not) and every traced
synopsis operation:

* ``calls`` — how many spans fired;
* ``work`` / ``depth`` — ledger charges attributed to the operator
  (innermost-span attribution via :func:`repro.pram.cost.labeled`, so
  nothing is double counted);
* ``wall_ms`` / ``self_ms`` — measured wall-clock, inclusive and
  exclusive of child spans;
* ``ns/work`` — measured nanoseconds per unit of charged work, the
  ledger-fidelity figure.  Operators whose ns/work deviates from the
  run's median by more than ``SKEW_FACTOR``× are flagged ``<<`` — a
  charged-cost model that is too cheap or too expensive relative to
  what the hardware actually does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.observability.spans import SpanTracer, span_tracing
from repro.pram.cost import CostLedger, tracking

__all__ = [
    "EXPERIMENTS",
    "PRIMITIVE_SPANS",
    "ProfileReport",
    "ProfileRow",
    "run_profile",
]

#: Every instrumented PRAM primitive — the report always carries a row
#: for each, even when the chosen workload never fires it.
PRIMITIVE_SPANS: tuple[str, ...] = (
    "pram.par_map",
    "pram.reduce_add",
    "pram.reduce_max",
    "pram.reduce_min",
    "pram.prefix_sum",
    "pram.pack",
    "pram.par_concat",
    "pram.int_sort",
    "pram.int_sort_by_key",
    "pram.build_hist",
    "pram.rank_select",
    "pram.sift",
)

#: ns/work beyond this factor from the median gets flagged.
SKEW_FACTOR = 8.0


@dataclass
class ProfileRow:
    name: str
    category: str
    calls: int
    work: int
    depth: int
    wall_ms: float
    self_ms: float
    ns_per_work: float
    flag: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "operator": self.name,
            "category": self.category,
            "calls": self.calls,
            "work": self.work,
            "depth": self.depth,
            "wall_ms": round(self.wall_ms, 3),
            "self_ms": round(self.self_ms, 3),
            "ns_per_work": round(self.ns_per_work, 2),
            "flag": self.flag,
        }


@dataclass
class ProfileReport:
    experiment: str
    items: int
    total_work: int
    total_depth: int
    total_wall_ms: float
    rows: list[ProfileRow] = field(default_factory=list)

    @property
    def attributed_work(self) -> int:
        return sum(r.work for r in self.rows)

    def hotspots(self, top: int = 10) -> list[ProfileRow]:
        """The per-kernel ns/work hotspot view: exercised rows ranked by
        measured nanoseconds per unit of charged work, descending — the
        kernels whose hardware cost per ledger unit is highest (outlier
        flags carry over from the main attribution)."""
        ranked = [r for r in self.rows if r.calls and r.ns_per_work > 0]
        ranked.sort(key=lambda r: (-r.ns_per_work, r.name))
        return ranked[:top]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro-profile/v1",
            "experiment": self.experiment,
            "items": self.items,
            "total_work": self.total_work,
            "total_depth": self.total_depth,
            "total_wall_ms": round(self.total_wall_ms, 3),
            "attributed_work": self.attributed_work,
            "operators": [r.to_dict() for r in self.rows],
            "hotspots": [r.to_dict() for r in self.hotspots()],
        }

    def render(self) -> str:
        from repro.analysis.report import format_table

        headers = [
            "operator", "category", "calls", "work", "depth",
            "wall ms", "self ms", "ns/work", "",
        ]
        rows = [
            [
                r.name, r.category, r.calls, r.work, r.depth,
                round(r.wall_ms, 3), round(r.self_ms, 3),
                round(r.ns_per_work, 2), r.flag,
            ]
            for r in self.rows
        ]
        hot = self.hotspots()
        hot_rows = [
            [r.name, r.category, r.calls, round(r.ns_per_work, 2),
             round(r.self_ms, 3), r.flag]
            for r in hot
        ]
        attributed = self.attributed_work
        coverage = attributed / self.total_work if self.total_work else 0.0
        lines = [
            f"== profile {self.experiment}: ledger vs wall-clock "
            f"({self.items} items) ==",
            format_table(headers, rows),
            f"total charged work {self.total_work} at depth "
            f"{self.total_depth}; wall {self.total_wall_ms:.1f} ms; "
            f"{attributed} work attributed to operators "
            f"({coverage:.0%} coverage)",
            "'<<' marks ns/work further than "
            f"{SKEW_FACTOR:g}x from the run median — a cost model out of "
            "step with measured reality",
        ]
        if hot:
            lines[2:2] = [
                "-- kernel hotspots (ns per unit of charged work, "
                "descending) --",
                format_table(
                    ["kernel", "category", "calls", "ns/work", "self ms", ""],
                    hot_rows,
                ),
            ]
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Canonical workloads, one per experiment id.  Imports are deliberately
# lazy: this module must stay importable from anywhere in the package
# without cycles.
# ----------------------------------------------------------------------

def _calibrate(rounds: int = 3, n: int = 4_096) -> None:
    """Exercise every instrumented PRAM primitive a few times so the
    attribution report carries measured ledger-vs-wallclock numbers for
    each one, whatever the chosen experiment's workload touches."""
    import numpy as np

    from repro.pram.css import sift
    from repro.pram.histogram import build_hist
    from repro.pram.primitives import (
        pack,
        par_concat,
        par_map,
        prefix_sum,
        reduce_add,
        reduce_max,
        reduce_min,
    )
    from repro.pram.select import rank_select
    from repro.pram.sort import int_sort, int_sort_by_key

    rng = np.random.default_rng(0xB5)
    for _ in range(rounds):
        xs = rng.integers(0, n, size=n)
        par_map(lambda a: a + 1, xs)
        reduce_add(xs)
        reduce_max(xs)
        reduce_min(xs)
        offsets = prefix_sum(xs % 2)
        pack(xs, xs % 2 == 0)
        par_concat([xs[: n // 2], xs[n // 2 :]])
        int_sort(xs)
        int_sort_by_key(xs, offsets)
        build_hist(xs % 257)
        rank_select(xs, n // 2)
        sift(xs % 64, range(8))

def _scenario_e01(items: int) -> None:
    from repro.pram.css import css_concat, css_of_bits, sift
    from repro.stream.generators import bit_stream, minibatches

    acc = None
    for batch in minibatches(bit_stream(items, 0.3, rng=11), 4_096):
        segment = css_of_bits(batch)
        acc = segment if acc is None else css_concat(acc, segment)
    sift(list(range(256)) * 4, list(range(0, 256, 7)))


def _scenario_e03(items: int) -> None:
    from repro.pram.histogram import build_hist
    from repro.stream.generators import minibatches, zipf_stream

    for batch in minibatches(zipf_stream(items, 1 << 12, 1.1, rng=3), 8_192):
        build_hist(batch)


def _scenario_e06(items: int) -> None:
    from repro.core.basic_counting import ParallelBasicCounter
    from repro.stream.generators import bit_stream, minibatches

    counter = ParallelBasicCounter(window=items // 4 or 1, eps=0.05)
    for batch in minibatches(bit_stream(items, 0.4, rng=6), 4_096):
        counter.ingest(batch)
        counter.query()
    counter.state_dict()


def _scenario_e07(items: int) -> None:
    import numpy as np

    from repro.core.windowed_sum import ParallelWindowedSum
    from repro.stream.generators import minibatches

    rng = np.random.default_rng(7)
    values = rng.integers(0, 1_000, size=items)
    op = ParallelWindowedSum(window=items // 4 or 1, eps=0.05, max_value=1_000)
    for batch in minibatches(values, 4_096):
        op.ingest(batch)
        op.query()
    op.state_dict()


def _scenario_e09(items: int) -> None:
    from repro.core.freq_infinite import ParallelFrequencyEstimator
    from repro.stream.generators import minibatches, zipf_stream

    est = ParallelFrequencyEstimator(eps=0.01)
    for batch in minibatches(zipf_stream(items, 1 << 12, 1.1, rng=9), 4_096):
        est.ingest(batch)
    for item in range(32):
        est.estimate(item)
    est.state_dict()


def _scenario_e10(items: int) -> None:
    from repro.core.freq_sliding import WorkEfficientSlidingFrequency
    from repro.stream.generators import minibatches, zipf_stream

    est = WorkEfficientSlidingFrequency(window=items // 2 or 1, eps=0.02)
    for batch in minibatches(zipf_stream(items, 1 << 10, 1.1, rng=10), 4_096):
        est.ingest(batch)
    for item in range(32):
        est.estimate(item)
    est.state_dict()


def _scenario_e13(items: int) -> None:
    from repro.core.countmin import ParallelCountMin
    from repro.pram.primitives import par_map
    from repro.stream.generators import minibatches, zipf_stream

    cm = ParallelCountMin(0.005, 0.01)
    for batch in minibatches(zipf_stream(items, 1 << 13, 1.1, rng=13), 4_096):
        # Ingest-side normalization: an explicit elementwise map so the
        # map primitive shows up in the attribution alongside the
        # histogram/sort/scan/pack pipeline inside ingest.
        cm.ingest(par_map(lambda xs: xs, batch))
    for item in range(128):
        cm.point_query(item)
    other = ParallelCountMin(0.005, 0.01)
    other.ingest(zipf_stream(2_048, 1 << 13, 1.1, rng=14))
    cm.merge(other)
    cm.state_dict()


def _scenario_e14(items: int) -> None:
    from repro.core.countmin import ParallelCountMin
    from repro.core.freq_infinite import ParallelFrequencyEstimator
    from repro.core.heavy_hitters import InfiniteHeavyHitters
    from repro.stream.minibatch import MinibatchDriver
    from repro.stream.generators import zipf_stream

    hh = InfiniteHeavyHitters(phi=0.02, eps=0.01)
    cm = ParallelCountMin(0.01, 0.01)
    est = ParallelFrequencyEstimator(eps=0.02)
    driver = MinibatchDriver(
        {"hh": hh, "cms": cm, "freq": est},
        query_every=8,
        queries={"top": lambda: len(hh.query())},
    )
    driver.run(zipf_stream(items, 1 << 12, 1.1, rng=15), 4_096)


def _scenario_e16(items: int) -> None:
    import numpy as np

    from repro.core.countmin import ParallelCountMin
    from repro.core.countsketch import ParallelCountSketch
    from repro.core.freq_infinite import ParallelFrequencyEstimator
    from repro.core.heavy_hitters import InfiniteHeavyHitters
    from repro.stream.generators import zipf_stream
    from repro.stream.minibatch import MinibatchDriver

    # The bench E16/E18 8-operator pipeline; the driver auto-enables
    # the fused multi-operator kernel, so the attribution shows the
    # stacked hash/gather cost against the shared-prework pipeline.
    ops = {
        "freq": ParallelFrequencyEstimator(eps=0.01),
        "hh-inf": InfiniteHeavyHitters(phi=0.05, eps=0.01),
        "cms": ParallelCountMin(0.01, 0.01, rng=np.random.default_rng(5)),
        "csk": ParallelCountSketch(0.01, 0.01, rng=np.random.default_rng(6)),
        "freq2": ParallelFrequencyEstimator(eps=0.02),
        "hh-inf2": InfiniteHeavyHitters(phi=0.1, eps=0.02),
        "cms2": ParallelCountMin(0.02, 0.01, rng=np.random.default_rng(7)),
        "csk2": ParallelCountSketch(0.02, 0.01, rng=np.random.default_rng(8)),
    }
    driver = MinibatchDriver(ops)
    driver.run(zipf_stream(items, 1 << 14, 1.2, rng=16), 4_096)


def _scenario_e17(items: int) -> None:
    from repro.engine.mergetree import merge_partials, shard_partials
    from repro.engine.registry import create
    from repro.stream.generators import minibatches, zipf_stream

    # Registry-built sketch; sharded leaf ingest + binary-tree fold per
    # minibatch, so the attribution shows leaf strands vs tree merges.
    cm = create("ParallelCountMin", eps=0.01, delta=0.01)
    for batch in minibatches(zipf_stream(items, 1 << 12, 1.2, rng=17), 4_096):
        partials = shard_partials([cm.fresh_clone() for _ in range(8)], batch)
        merge_partials(cm, partials, arity=2)
    for item in range(64):
        cm.point_query(item)


EXPERIMENTS: dict[str, Callable[[int], None]] = {
    "e01": _scenario_e01,
    "e03": _scenario_e03,
    "e06": _scenario_e06,
    "e07": _scenario_e07,
    "e09": _scenario_e09,
    "e10": _scenario_e10,
    "e13": _scenario_e13,
    "e14": _scenario_e14,
    "e16": _scenario_e16,
    "e17": _scenario_e17,
}


def _canonical(experiment: str) -> str:
    key = experiment.strip().lower()
    if len(key) >= 2 and key[0] in "eax" and key[1:].isdigit():
        key = f"{key[0]}{int(key[1:]):02d}"
    return key


def run_profile(
    experiment: str, *, items: int = 100_000, calibrate: bool = True
) -> ProfileReport:
    """Run ``experiment``'s canonical workload under ledger + tracer and
    build the per-operator attribution report.

    With ``calibrate=True`` (default) a small sweep first touches every
    PRAM primitive so each one carries measured numbers even when the
    experiment's workload never fires it.
    """
    key = _canonical(experiment)
    try:
        scenario = EXPERIMENTS[key]
    except KeyError:
        raise ValueError(
            f"unknown profile experiment {experiment!r}; "
            f"available: {', '.join(sorted(EXPERIMENTS))}"
        ) from None
    if items < 1:
        raise ValueError("items must be >= 1")

    ledger = CostLedger()
    tracer = SpanTracer()
    import time

    t0 = time.perf_counter_ns()
    with tracking(ledger), span_tracing(tracer):
        if calibrate:
            _calibrate()
        scenario(items)
    total_wall_ms = (time.perf_counter_ns() - t0) / 1e6

    aggregates = tracer.aggregate()
    by_operator = ledger.by_operator
    rows: list[ProfileRow] = []
    names = list(aggregates)
    for primitive in PRIMITIVE_SPANS:  # zero-rows for unexercised ones
        if primitive not in aggregates:
            names.append(primitive)
    for name in names:
        agg = aggregates.get(name)
        attributed = by_operator.get(name, [0, 0, 0])
        rows.append(
            ProfileRow(
                name=name,
                category=agg.category if agg else "pram",
                calls=agg.calls if agg else 0,
                work=attributed[0],
                depth=attributed[1],
                wall_ms=(agg.wall_ns / 1e6) if agg else 0.0,
                self_ms=(agg.self_wall_ns / 1e6) if agg else 0.0,
                ns_per_work=agg.ns_per_work if agg else 0.0,
            )
        )

    # Flag ledger-fidelity outliers against the run's median ns/work.
    ratios = sorted(r.ns_per_work for r in rows if r.ns_per_work > 0)
    if ratios:
        median = ratios[len(ratios) // 2]
        if median > 0:
            for r in rows:
                if r.ns_per_work > 0 and (
                    r.ns_per_work > median * SKEW_FACTOR
                    or r.ns_per_work < median / SKEW_FACTOR
                ):
                    r.flag = "<<"

    rows.sort(key=lambda r: (-r.self_ms, r.name))
    return ProfileReport(
        experiment=key,
        items=items,
        total_work=ledger.work,
        total_depth=ledger.depth,
        total_wall_ms=total_wall_ms,
        rows=rows,
    )
