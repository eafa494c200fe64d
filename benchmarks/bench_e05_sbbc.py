"""E5 — Theorem 3.4: the space-bounded block counter.

Measures, across λ / σ / µ sweeps:
* advance work vs the O(min(σ, m/λ) + |T|/λ) bound,
* space vs O(min(σ, m/λ)),
* value error vs λ (Corollary 3.5),
* the OVERFLOWED certificate (window count at truncation >= ~σλ),
and compares charged work against the sequential Lee-Ting counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._harness import bench_seed, emit_table, reset_results
from repro.analysis.bounds import sbbc_advance_work_bound, sbbc_space_bound
from repro.baselines.lee_ting import LeeTingCounter
from repro.core.sbbc import SBBC
from repro.pram.cost import tracking
from repro.pram.css import css_of_bits
from repro.stream.generators import bit_stream, minibatches
from repro.stream.oracle import ExactWindowCounter

EXPERIMENT = "E5"
WINDOW = 1 << 14


@pytest.mark.benchmark(group="E5-sbbc")
def test_e05_advance_work_vs_bound(benchmark):
    reset_results(EXPERIMENT)
    rows = []
    mu = 1 << 12
    bits = bit_stream(1 << 16, 0.5, rng=bench_seed(1))
    for lam in (8.0, 32.0, 128.0, 512.0):
        sbbc = SBBC(WINDOW, lam)
        oracle = ExactWindowCounter(WINDOW)
        total_work = 0.0
        total_bound = 0.0
        worst_err = 0
        for chunk in minibatches(bits, mu):
            segment = css_of_bits(chunk)
            oracle.extend(chunk)
            m = oracle.query()
            with tracking() as led:
                sbbc.advance(segment)
            total_work += led.work
            total_bound += sbbc_advance_work_bound(np.inf, m, lam, mu)
            value = sbbc.value()
            worst_err = max(worst_err, value - m)
            assert m <= value <= m + lam
        ratio = total_work / total_bound
        space_bound = sbbc_space_bound(np.inf, oracle.query(), lam)
        rows.append(
            [lam, round(total_work / (len(bits) / mu)), round(ratio, 2),
             worst_err, sbbc.space, round(space_bound, 1)]
        )
        assert ratio <= 8.0, "advance work must track the Theorem 3.4 bound"
        assert sbbc.space <= 6 * space_bound + 8
    emit_table(
        EXPERIMENT,
        "SBBC advance work & space vs λ (σ=∞, µ=2^12, window=2^14)",
        ["lambda", "work/batch", "work/bound", "max val-m", "space", "m/lambda"],
        rows,
        notes="work/bound flat: advance is O(min(σ,m/λ)+|T|/λ); error <= λ",
    )
    sbbc = SBBC(WINDOW, 64.0)
    segment = css_of_bits(bit_stream(mu, 0.5, rng=bench_seed(2)))
    benchmark(sbbc.advance, segment)


@pytest.mark.benchmark(group="E5-sbbc")
def test_e05_overflow_certificate(benchmark):
    """OVERFLOWED certifies a dense window: count >= γ(2σ+1) - 2γ ≈ σλ."""
    rows = []
    lam = 16.0
    for sigma in (4, 16, 64):
        sbbc = SBBC(WINDOW, lam, sigma=sigma)
        oracle = ExactWindowCounter(WINDOW)
        bits = bit_stream(3 * WINDOW, 0.6, rng=bench_seed(3))
        for chunk in minibatches(bits, 1 << 11):
            sbbc.advance(css_of_bits(chunk))
            oracle.extend(chunk)
        # The weakest certificate clears the bound, so every one does.
        certified_ok = sbbc.min_value_before >= sbbc.gamma * (2 * sigma + 1)
        rows.append(
            [sigma, sbbc.truncations, sbbc.overflowed,
             round(sigma * lam, 0), oracle.query(), certified_ok]
        )
        assert sbbc.truncations, "dense stream must exceed tiny σ budgets"
        assert certified_ok
        assert sbbc.bank.blocks.size <= 2 * sigma
    emit_table(
        EXPERIMENT,
        "OVERFLOWED certificate (λ=16, 60%-dense window of 2^14)",
        ["sigma", "truncations", "overflowed now", "sigma*lambda",
         "true window count", "certificate held"],
        rows,
        notes="every truncation certified count >= γ(2σ+1) ~ σλ (Thm 3.4)",
    )
    sbbc = SBBC(WINDOW, lam, sigma=16)
    segment = css_of_bits(bit_stream(1 << 11, 0.6, rng=bench_seed(4)))
    benchmark(sbbc.advance, segment)


@pytest.mark.benchmark(group="E5-sbbc")
def test_e05_work_vs_sequential_lee_ting(benchmark):
    """Work efficiency: charged work within a constant of the sequential
    counter's, while depth is polylog instead of linear."""
    lam = 64.0
    bits = bit_stream(1 << 16, 0.5, rng=bench_seed(5))
    sbbc = SBBC(WINDOW, lam)
    with tracking() as led_par:
        for chunk in minibatches(bits, 1 << 12):
            sbbc.advance(css_of_bits(chunk))
    lt = LeeTingCounter(WINDOW, lam)
    with tracking() as led_seq:
        lt.extend(bits)
    emit_table(
        EXPERIMENT,
        "parallel SBBC vs sequential Lee-Ting (same λ, same stream)",
        ["impl", "work", "depth", "final value"],
        [
            ["SBBC (parallel)", led_par.work, led_par.depth, sbbc.value()],
            ["Lee-Ting (sequential)", led_seq.work, led_seq.depth, lt.query()],
        ],
        notes="same value; SBBC pays CSS encoding (O(|T|)) but its depth "
        "is polylog while the sequential counter's equals its work",
    )
    assert sbbc.value() == lt.query()
    assert led_par.depth < led_seq.depth / 100
    benchmark(lt.extend, bits[: 1 << 12])
