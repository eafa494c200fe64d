"""X1 (extension) — sliding-window Count-Min: SBBC cells in a §6 sketch.

Not a paper claim — a synthesis of the paper's own parts (the SBBC of
§3 inside the sketch of §6) that delivers *windowed point queries*,
which neither structure provides alone.  The bench quantifies the
combination's guarantee and cost next to the two parents and the
work-efficient sliding MG estimator.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._harness import bench_rng, bench_seed, emit_table, reset_results
from repro.core.countmin import ParallelCountMin
from repro.core.freq_sliding import WorkEfficientSlidingFrequency
from repro.core.windowed_countmin import WindowedCountMin
from repro.pram.cost import tracking
from repro.stream.generators import flash_crowd_stream, minibatches, zipf_stream
from repro.stream.oracle import ExactWindowFrequencies

EXPERIMENT = "X01"
WINDOW = 1 << 12


@pytest.mark.benchmark(group="X1-windowed-cms")
def test_x01_windowed_guarantee(benchmark):
    reset_results(EXPERIMENT)
    eps, delta = 0.01, 0.01
    wcm = WindowedCountMin(WINDOW, eps, delta, bench_rng(1))
    oracle = ExactWindowFrequencies(WINDOW)
    stream = zipf_stream(1 << 14, 1 << 11, 1.2, rng=bench_seed(2))
    with tracking() as led:
        for chunk in minibatches(stream, 1 << 10):
            wcm.ingest(chunk)
            oracle.extend(chunk)
    undercounts = big_over = 0
    queries = 400
    for item in range(queries):
        f = oracle.frequency(item)
        est = wcm.point_query(item)
        undercounts += est < f
        big_over += est > f + 2 * eps * WINDOW
    emit_table(
        EXPERIMENT,
        "windowed point-query guarantee (ε=0.01, δ=0.01, n=2^12)",
        ["queries", "undercounts (must be 0)", "over 2εn (expect ~δ)",
         "space", "live cells", "work/item"],
        [[queries, undercounts, big_over, wcm.space, wcm.live_cells,
          round(led.work / len(stream), 1)]],
        notes="f <= est always; est <= f + 2εn at ~δ rate — the SBBC-in-"
        "cell composition preserves both parents' guarantees",
    )
    assert undercounts == 0
    assert big_over <= 5 * delta * queries
    batch = zipf_stream(1 << 10, 1 << 11, 1.2, rng=bench_seed(3))
    benchmark(wcm.ingest, batch)


@pytest.mark.benchmark(group="X1-windowed-cms")
def test_x01_vs_parents_and_sliding_mg(benchmark):
    """The niche: windowed answers for items *outside* the MG summary's
    top-S, which the infinite-window CMS answers wrongly after a shift."""
    eps = 0.01
    # Flash crowd: item 5 dominates the first half, then vanishes.
    first = flash_crowd_stream(
        1 << 13, universe=1 << 10, crowd_item=5, onset=0.0, crowd_share=0.6, rng=bench_seed(4)
    )
    second = zipf_stream(1 << 13, 1 << 10, 1.1, rng=bench_seed(5)) + (1 << 11)
    stream = np.concatenate([first, second])

    wcm = WindowedCountMin(WINDOW, eps, 0.01, bench_rng(6))
    cms = ParallelCountMin(eps, 0.01, bench_rng(7))
    mg = WorkEfficientSlidingFrequency(WINDOW, eps)
    oracle = ExactWindowFrequencies(WINDOW)
    for chunk in minibatches(stream, 1 << 10):
        for sink in (wcm, cms, mg):
            sink.ingest(chunk)
        oracle.extend(chunk)

    f_now = oracle.frequency(5)  # crowd item is long gone from window
    rows = [
        ["exact window count", f_now, "-"],
        ["windowed CMS (this ext.)", wcm.point_query(5), wcm.space],
        ["infinite-window CMS (§6)", cms.point_query(5), cms.space],
        ["sliding MG (Thm 5.4)", round(mg.estimate(5), 1), mg.space],
    ]
    emit_table(
        EXPERIMENT,
        "item 5 after its flash crowd left the window",
        ["structure", "estimate", "space"],
        rows,
        notes="the infinite-window sketch still reports the dead crowd "
        "(thousands); the windowed sketch and sliding MG correctly "
        "report ~0 — and unlike MG, the windowed sketch answers for "
        "ANY item, not only the top-S survivors",
    )
    assert wcm.point_query(5) <= f_now + 2 * eps * WINDOW
    assert cms.point_query(5) > 10 * (f_now + 2 * eps * WINDOW + 1)
    benchmark(wcm.point_query, 5)
