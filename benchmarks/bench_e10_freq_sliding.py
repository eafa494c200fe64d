"""E10 — Theorems 5.5 / 5.8 / 5.4: the three sliding-window frequency
estimators.

The three-way comparison the paper's §5.3 narrative builds:
* basic — correct but space blows up with distinct items (Ω(n) worst);
* space-efficient (Alg. 2) — O(ε⁻¹) space, but µ log µ work;
* work-efficient (predict + sift) — O(ε⁻¹ + µ) work, same space and
  accuracy.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._harness import bench_seed, emit_table, reset_results
from repro.core.freq_sliding import (
    BasicSlidingFrequency,
    SpaceEfficientSlidingFrequency,
    WorkEfficientSlidingFrequency,
)
from repro.pram.cost import tracking
from repro.stream.generators import minibatches, zipf_stream
from repro.stream.oracle import ExactWindowFrequencies

EXPERIMENT = "E10"
VARIANTS = [
    ("basic (Thm 5.5)", BasicSlidingFrequency),
    ("space-eff (Thm 5.8)", SpaceEfficientSlidingFrequency),
    ("work-eff (Thm 5.4)", WorkEfficientSlidingFrequency),
]


@pytest.mark.benchmark(group="E10-freq-sliding")
def test_e10_three_way_comparison(benchmark):
    reset_results(EXPERIMENT)
    window, eps = 1 << 14, 0.02
    mu = 1 << 12
    stream = zipf_stream(1 << 15, 1 << 13, 1.1, rng=bench_seed(1))
    oracle = ExactWindowFrequencies(window)
    for chunk in minibatches(stream, mu):
        oracle.extend(chunk)

    rows = []
    results = {}
    for label, cls in VARIANTS:
        est = cls(window, eps)
        with tracking() as led:
            for chunk in minibatches(stream, mu):
                est.ingest(chunk)
        worst = max(
            abs(est.estimate(item) - oracle.frequency(item)) for item in range(30)
        )
        rows.append([label, led.work, round(led.work / len(stream), 1),
                     led.depth, est.space, len(est.slots), round(worst, 1)])
        results[label] = (led.work, est.space, worst)
        assert worst <= eps * window
    emit_table(
        EXPERIMENT,
        "three sliding-window variants (n=2^14, ε=0.02, µ=2^12, Zipf)",
        ["variant", "work", "work/item", "depth", "space", "counters",
         "max |err|"],
        rows,
        notes="who wins: work-eff <= space-eff in work; basic loses on "
        "space; all within εn accuracy",
    )
    # The paper's ordering must hold.
    assert results["work-eff (Thm 5.4)"][0] < results["space-eff (Thm 5.8)"][0]
    assert results["basic (Thm 5.5)"][1] > 3 * results["work-eff (Thm 5.4)"][1]

    est = WorkEfficientSlidingFrequency(window, eps)
    chunk = zipf_stream(mu, 1 << 13, 1.1, rng=bench_seed(2))
    benchmark(est.ingest, chunk)


@pytest.mark.benchmark(group="E10-freq-sliding")
def test_e10_basic_space_blowup_with_universe(benchmark):
    """Theorem 5.5's caveat quantified: basic's space grows with the
    number of distinct window items; the pruned variants stay flat."""
    window, eps = 1 << 13, 0.05
    rows = []
    for universe in (1 << 6, 1 << 9, 1 << 12):
        stream = zipf_stream(1 << 14, universe, 1.0, rng=bench_seed(3))
        spaces = []
        for _label, cls in VARIANTS:
            est = cls(window, eps)
            for chunk in minibatches(stream, 1 << 11):
                est.ingest(chunk)
            spaces.append(est.space)
        rows.append([universe] + spaces)
    emit_table(
        EXPERIMENT,
        "space vs distinct items (columns: basic / space-eff / work-eff)",
        ["universe", "basic space", "space-eff space", "work-eff space"],
        rows,
        notes="basic grows ~linearly with the universe; pruned variants flat "
        "at O(1/ε) (the §5.3.2 improvement)",
    )
    basic_growth = rows[-1][1] / rows[0][1]
    flat_growth = rows[-1][3] / max(1, rows[0][3])
    assert basic_growth > 5 * flat_growth

    est = SpaceEfficientSlidingFrequency(window, eps)
    chunk = zipf_stream(1 << 11, 1 << 12, 1.0, rng=bench_seed(4))
    benchmark(est.ingest, chunk)


@pytest.mark.benchmark(group="E10-freq-sliding")
def test_e10_work_crossover_with_batch_size(benchmark):
    """The µ log µ vs µ gap widens with batch size — the crossover
    Theorem 5.4's sift step buys."""
    window, eps = 1 << 18, 0.02
    rows = []
    ratios = []
    for mu_exp in (9, 11, 13, 15):
        mu = 1 << mu_exp
        stream = zipf_stream(2 * mu, 1 << 12, 1.1, rng=bench_seed(5))
        works = {}
        for label, cls in VARIANTS[1:]:
            est = cls(window, eps)
            with tracking() as led:
                for chunk in minibatches(stream, mu):
                    est.ingest(chunk)
            works[label] = led.work
        ratio = works["space-eff (Thm 5.8)"] / works["work-eff (Thm 5.4)"]
        rows.append([mu, works["space-eff (Thm 5.8)"],
                     works["work-eff (Thm 5.4)"], round(ratio, 2)])
        ratios.append(ratio)
    emit_table(
        EXPERIMENT,
        "work ratio (Alg 2 / work-efficient) vs µ",
        ["mu", "space-eff work", "work-eff work", "ratio"],
        rows,
        notes="ratio grows ~log µ: exactly the sorting term sift removes",
    )
    assert ratios[-1] > ratios[0]
    est = WorkEfficientSlidingFrequency(window, eps)
    benchmark(est.ingest, zipf_stream(1 << 13, 1 << 12, 1.1, rng=bench_seed(6)))
