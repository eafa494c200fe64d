"""Stateful property tests: hypothesis drives random operation
sequences against exact models — the strongest correctness evidence in
the suite, because interleavings (advance / decrement / slide / query)
are where sliding-window structures break.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.basic_counting import ParallelBasicCounter
from repro.core.freq_sliding import (
    SpaceEfficientSlidingFrequency,
    WorkEfficientSlidingFrequency,
)
from repro.core.sbbc import SBBC
from repro.pram.css import css_of_bits

STATEFUL_SETTINGS = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)


class SBBCMachine(RuleBasedStateMachine):
    """SBBC vs an exact bit-window model under advance + decrement."""

    @initialize(
        window=st.integers(4, 120),
        lam=st.floats(1.5, 30.0),
    )
    def setup(self, window, lam):
        self.window = window
        self.lam = lam
        self.sbbc = SBBC(window, lam, sigma=math.inf)
        self.bits: deque[int] = deque(maxlen=window)
        self.total_decremented = 0

    @rule(data=st.data())
    def advance(self, data):
        length = data.draw(st.integers(1, 40))
        density = data.draw(st.floats(0.0, 1.0))
        seed = data.draw(st.integers(0, 2**31 - 1))
        chunk = (np.random.default_rng(seed).random(length) < density).astype(
            np.int64
        )
        self.sbbc.advance(css_of_bits(chunk))
        self.bits.extend(int(b) for b in chunk)

    @rule(amount=st.integers(0, 25))
    def decrement(self, amount):
        before = self.sbbc.raw_value()
        self.sbbc.decrement(amount)
        assert self.sbbc.raw_value() == max(0, before - amount)
        self.total_decremented += min(amount, before)

    @invariant()
    def value_bracket(self):
        if not hasattr(self, "sbbc"):
            return
        m = sum(self.bits)
        value = self.sbbc.raw_value()
        assert value >= 0
        assert value <= m + self.lam, "decrement can only lower the value"
        assert value >= m - self.total_decremented, (
            "value may only undershoot by the decremented mass"
        )


SBBCMachine.TestCase.settings = STATEFUL_SETTINGS
TestSBBCStateful = SBBCMachine.TestCase


class BasicCountingMachine(RuleBasedStateMachine):
    """Theorem 4.1's ladder vs an exact window under arbitrary batching."""

    @initialize(
        window=st.integers(10, 300),
        eps=st.sampled_from([0.5, 0.2, 0.1]),
    )
    def setup(self, window, eps):
        self.window = window
        self.eps = eps
        self.counter = ParallelBasicCounter(window, eps)
        self.bits: deque[int] = deque(maxlen=window)

    @rule(data=st.data())
    def ingest(self, data):
        length = data.draw(st.integers(1, 64))
        density = data.draw(st.floats(0.0, 1.0))
        seed = data.draw(st.integers(0, 2**31 - 1))
        chunk = (np.random.default_rng(seed).random(length) < density).astype(
            np.int64
        )
        self.counter.ingest(chunk)
        self.bits.extend(int(b) for b in chunk)

    @invariant()
    def relative_error_within_eps(self):
        if not hasattr(self, "counter"):
            return
        m = sum(self.bits)
        estimate = self.counter.query()
        assert estimate >= m
        assert estimate <= m + self.eps * max(m, 1)


BasicCountingMachine.TestCase.settings = STATEFUL_SETTINGS
TestBasicCountingStateful = BasicCountingMachine.TestCase


class _SlidingFreqMachine(RuleBasedStateMachine):
    """Sliding-window frequency estimator vs exact window counts."""

    estimator_cls: type

    @initialize(
        window=st.integers(20, 200),
        eps=st.sampled_from([0.3, 0.15]),
    )
    def setup(self, window, eps):
        self.window = window
        self.eps = eps
        self.est = self.estimator_cls(window, eps)
        self.items: deque[int] = deque(maxlen=window)

    @rule(data=st.data())
    def ingest(self, data):
        length = data.draw(st.integers(1, 50))
        seed = data.draw(st.integers(0, 2**31 - 1))
        universe = data.draw(st.integers(1, 12))
        chunk = np.random.default_rng(seed).integers(
            0, universe, size=length, dtype=np.int64
        )
        self.est.ingest(chunk)
        self.items.extend(int(x) for x in chunk)

    @invariant()
    def estimates_bracket_true_frequencies(self):
        if not hasattr(self, "est"):
            return
        true = Counter(self.items)
        for item in range(12):
            f = true.get(item, 0)
            estimate = self.est.estimate(item)
            assert estimate <= f + 1e-9
            assert estimate >= f - self.eps * self.window - 1e-9

    @invariant()
    def capacity_respected(self):
        if not hasattr(self, "est"):
            return
        assert len(self.est.slots) <= self.est.capacity


class SpaceEfficientMachine(_SlidingFreqMachine):
    estimator_cls = SpaceEfficientSlidingFrequency


class WorkEfficientMachine(_SlidingFreqMachine):
    estimator_cls = WorkEfficientSlidingFrequency


SpaceEfficientMachine.TestCase.settings = STATEFUL_SETTINGS
WorkEfficientMachine.TestCase.settings = STATEFUL_SETTINGS
TestSpaceEfficientStateful = SpaceEfficientMachine.TestCase
TestWorkEfficientStateful = WorkEfficientMachine.TestCase
