"""Invariant audits: healthy synopses pass; corrupted state is caught."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MisraGriesSummary,
    ParallelBasicCounter,
    ParallelCountMin,
    ParallelCountSketch,
    ParallelWindowedSum,
    SBBC,
    WindowedCountMin,
    WorkEfficientSlidingFrequency,
)
from repro.pram.css import CSS
from repro.resilience.invariants import (
    InvariantViolation,
    audit_operators,
    require,
)


class TestRequire:
    def test_passes_silently(self):
        require(True, "X", "never raised")

    def test_raises_with_context(self):
        with pytest.raises(InvariantViolation) as err:
            require(False, "MyStructure", "the thing broke")
        assert err.value.structure == "MyStructure"
        assert "the thing broke" in str(err.value)


class TestHealthyStructuresPass:
    def test_after_random_streams(self, rng):
        stream = rng.integers(0, 40, size=3000)
        bits = rng.integers(0, 2, size=3000)
        values = rng.integers(0, 8, size=3000)
        ops = {
            "mg": MisraGriesSummary(0.05),
            "cms": ParallelCountMin(0.02, 0.05),
            "ccms": ParallelCountMin(0.02, 0.05, conservative=True),
            "cs": ParallelCountSketch(0.02, 0.05),
            "freq": WorkEfficientSlidingFrequency(500, 0.05),
            "wcm": WindowedCountMin(500, 0.05, 0.05),
        }
        for i in range(0, 3000, 300):
            for op in ops.values():
                op.extend(stream[i : i + 300])
        counter = ParallelBasicCounter(500, 0.1)
        sbbc = SBBC(500, 8.0)
        for i in range(0, 3000, 300):
            chunk = bits[i : i + 300]
            counter.advance(
                CSS(length=len(chunk), ones=np.flatnonzero(chunk) + 1)
            )
            sbbc.advance(CSS(length=len(chunk), ones=np.flatnonzero(chunk) + 1))
        total = ParallelWindowedSum(500, 0.1, 8)
        for i in range(0, 3000, 300):
            total.ingest(values[i : i + 300])
        ops.update(counter=counter, sbbc=sbbc, sum=total)
        audited = audit_operators(ops)
        assert sorted(audited) == sorted(ops)


class TestCorruptionCaught:
    def test_misra_gries_over_capacity(self):
        mg = MisraGriesSummary(0.2)
        mg.extend(np.arange(100))
        mg.counters.update({f"x{i}": 1 for i in range(mg.capacity + 1)})
        with pytest.raises(InvariantViolation):
            mg.check_invariants()

    def test_misra_gries_counter_exceeds_stream(self):
        mg = MisraGriesSummary(0.2)
        mg.extend(np.array([1, 1, 2]))
        mg.counters[1] = 10**9
        with pytest.raises(InvariantViolation):
            mg.check_invariants()

    def test_countmin_negative_cell(self):
        cms = ParallelCountMin(0.05, 0.05)
        cms.extend(np.arange(500))
        cms.table[0, 0] = -3
        with pytest.raises(InvariantViolation):
            cms.check_invariants()

    def test_countmin_row_sum_mismatch(self):
        cms = ParallelCountMin(0.05, 0.05)
        cms.extend(np.arange(500))
        cms.table[1, 3] += 7  # row sum no longer equals stream length
        with pytest.raises(InvariantViolation):
            cms.check_invariants()

    def test_countsketch_mass_bound(self):
        cs = ParallelCountSketch(0.05, 0.05)
        cs.extend(np.arange(500))
        cs.table[0, 0] += 10**9
        with pytest.raises(InvariantViolation):
            cs.check_invariants()

    def test_sbbc_block_monotonicity(self):
        sbbc = SBBC(200, 4.0)
        sbbc.advance(CSS(length=400, ones=np.arange(301, 401)))
        assert sbbc.bank.blocks.size >= 2  # something to break
        sbbc.bank.blocks = sbbc.bank.blocks[::-1].copy()
        with pytest.raises(InvariantViolation):
            sbbc.check_invariants()

    def test_sbbc_clock_regression(self):
        sbbc = SBBC(200, 4.0)
        sbbc.advance(CSS(length=400, ones=np.arange(1, 101)))
        sbbc.bank.r[0] = sbbc.t + sbbc.window + 1
        with pytest.raises(InvariantViolation):
            sbbc.check_invariants()

    def test_audit_names_the_operator(self):
        mg = MisraGriesSummary(0.2)
        mg.extend(np.array([1, 1, 2]))
        mg.counters[1] = 10**9
        with pytest.raises(InvariantViolation) as err:
            audit_operators({"the_culprit": mg, "fine": MisraGriesSummary(0.2)})
        assert "the_culprit" in str(err.value)
