"""Checkpoint serialization: codec round-trips and the property that
``load_state(state_dict())`` reproduces every synopsis exactly.

The resilience contract (docs/resilience.md) is *bit-identical restore*:
a synopsis serialized, shipped through the canonical JSON codec, and
loaded into a fresh instance must answer every query identically — and
keep answering identically as both copies ingest more of the stream
(which exercises the restored RNG mid-sequence).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent import SnapshotStore
from repro.core import SBBC, ParallelBasicCounter, ParallelCountMin, ParallelCountSketch
from repro.engine import registry
from repro.engine.fusion import FusedIngestPlan
from repro.engine.registry import BITS
from repro.pram.css import CSS, css_of_bits
from repro.pram.hashing import KWiseHash
from repro.pram.plan import PreparedBatch
from repro.resilience import state as codec
from repro.resilience.state import StateError


class TestCodec:
    def test_ndarray_round_trip(self):
        for arr in (
            np.arange(7, dtype=np.int64),
            np.zeros((3, 4), dtype=np.float64),
            np.array([], dtype=np.int32),
            np.array([[1, 2], [3, 4]], dtype=np.uint8),
        ):
            out = codec.loads(codec.dumps({"a": arr}))["a"]
            assert isinstance(out, np.ndarray)
            assert out.dtype == arr.dtype and out.shape == arr.shape
            assert np.array_equal(out, arr)

    def test_tuple_and_nested_round_trip(self):
        state = {"t": (1, (2, 3)), "l": [1, [2, (3,)]]}
        out = codec.loads(codec.dumps(state))
        assert out["t"] == (1, (2, 3))
        assert out["l"] == [1, [2, (3,)]]

    def test_non_string_keys_round_trip(self):
        state = {"m": {1: 2, (3, 4): "x", "s": 5}}
        out = codec.loads(codec.dumps(state))
        assert out["m"] == {1: 2, (3, 4): "x", "s": 5}

    def test_non_finite_floats_round_trip(self):
        out = codec.loads(codec.dumps({"a": math.inf, "b": -math.inf, "c": math.nan}))
        assert out["a"] == math.inf and out["b"] == -math.inf
        assert math.isnan(out["c"])

    def test_canonical_bytes_are_deterministic(self):
        state = {"b": 2, "a": np.arange(5), "c": {"z": 1, "y": (2, 3)}}
        assert codec.dumps(state) == codec.dumps(state)
        assert codec.checksum(codec.dumps(state)) == codec.checksum(codec.dumps(state))

    def test_unknown_objects_rejected(self):
        with pytest.raises(StateError):
            codec.dumps({"f": lambda: 0})

    def test_version_gate(self):
        state = {"kind": "misra_gries", "version": codec.STATE_VERSION + 1}
        with pytest.raises(StateError):
            codec.expect(state, "misra_gries")
        with pytest.raises(StateError):
            codec.expect({"kind": "other", "version": 1}, "misra_gries")

    def test_rng_state_round_trip(self):
        rng = np.random.default_rng(1234)
        rng.random(17)  # advance mid-sequence
        saved = codec.rng_state(rng)
        clone = codec.restore_rng(codec.loads(codec.dumps({"rng": saved}))["rng"])
        assert np.array_equal(rng.random(100), clone.random(100))

    def test_kwise_hash_round_trip(self):
        h = KWiseHash(4, 1024, np.random.default_rng(5))
        clone = KWiseHash.from_state(codec.loads(codec.dumps(h.state_dict())))
        keys = np.arange(10_000, dtype=np.int64)
        assert np.array_equal(h(keys), clone(keys))


# ---------------------------------------------------------------------------
# load_state(state_dict()) yields identical answers on every registered
# synopsis, for random streams, including after further ingestion.  The
# sweep iterates the registry, so a newly registered operator is covered
# here with no test edit.
# ---------------------------------------------------------------------------

_RESTORABLE = [
    spec for spec in registry.specs()
    if hasattr(spec.cls, "state_dict") and hasattr(spec.cls, "load_state")
]


def _spec_batches(spec, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    high = 2 if spec.input == BITS else 60
    stream = rng.integers(0, high, size=900)
    return [stream[i : i + 150] for i in range(0, 900, 150)]


def _round_trip(spec, batches):
    original = spec.build()
    for batch in batches:
        original.ingest(batch)
    restored = spec.build()
    restored.load_state(codec.loads(codec.dumps(original.state_dict())))
    assert codec.dumps(restored.state_dict()) == codec.dumps(original.state_dict())
    if spec.probe is not None:
        assert repr(spec.probe(restored)) == repr(spec.probe(original))
    if spec.caps.invariant_checked:
        original.check_invariants()
        restored.check_invariants()
    # Continue both: the restored RNG must be mid-sequence-identical.
    for batch in batches:
        original.ingest(batch)
        restored.ingest(batch)
    assert codec.dumps(restored.state_dict()) == codec.dumps(original.state_dict())
    if spec.probe is not None:
        assert repr(spec.probe(restored)) == repr(spec.probe(original))


class TestSynopsisRoundTrip:
    def test_every_core_synopsis_is_restorable(self):
        """The resilience contract covers the whole core layer: every
        core registry entry must expose state_dict + load_state."""
        restorable = {spec.name for spec in _RESTORABLE}
        missing = [
            spec.name for spec in registry.specs()
            if spec.kind == "core" and spec.name not in restorable
        ]
        assert not missing, f"core synopses without checkpoint support: {missing}"

    @pytest.mark.parametrize(
        "spec", _RESTORABLE, ids=[spec.name for spec in _RESTORABLE]
    )
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_registered_synopses(self, spec, seed):
        _round_trip(spec, _spec_batches(spec, seed))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10)
    def test_sbbc_and_basic_counter_advance_path(self, seed):
        """The CSS ``advance`` verb (distinct from ``ingest``) must also
        continue bit-identically after a restore."""

        def advance_round_trip(make, feed, query, batches):
            original = make()
            for batch in batches:
                feed(original, batch)
            restored = make()
            restored.load_state(codec.loads(codec.dumps(original.state_dict())))
            assert repr(query(restored)) == repr(query(original))
            original.check_invariants()
            restored.check_invariants()
            for batch in batches:
                feed(original, batch)
                feed(restored, batch)
            assert repr(query(restored)) == repr(query(original))

        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=900)
        chunks = [bits[i : i + 150] for i in range(0, 900, 150)]
        advance_round_trip(
            lambda: SBBC(300, 8.0),
            lambda o, b: o.advance(CSS(length=len(b), ones=np.flatnonzero(b) + 1)),
            lambda o: (o.t, o.raw_value(), o.value()),
            chunks,
        )
        advance_round_trip(
            lambda: ParallelBasicCounter(300, 0.1),
            lambda o, b: o.advance(css_of_bits(b)),
            lambda o: (o.t, o.query()),
            chunks,
        )


# ---------------------------------------------------------------------------
# load_state reuses what the state leaves unchanged: the hash objects (so
# a fused plan over the operator keeps its stacked kernel) and the RNG's
# generator.  Tables and counter maps are always swapped for copies: a
# published snapshot's arrays must never be overwritten in place.
# ---------------------------------------------------------------------------


def _hashes(op) -> list:
    return list(getattr(op, "hashes", [])) + list(
        getattr(op, "bucket_hashes", [])
    ) + list(getattr(op, "sign_hashes", []))


class TestLoadStateReuse:
    @pytest.mark.parametrize("name", ["ParallelCountMin", "ParallelCountSketch"])
    def test_equal_hashes_keep_objects_and_fused_plan(self, name):
        spec = registry.get(name)
        op = spec.build()
        other = spec.build()
        other.ingest(np.arange(500) % 37)
        before = _hashes(op)
        plan = FusedIngestPlan({"op": op})
        builds = []
        rebuild = plan._build
        plan._build = lambda: (builds.append(1), rebuild())[1]
        plan.execute(PreparedBatch(np.arange(64)))
        op.load_state(other.state_dict())  # coefficients equal by value
        assert all(a is b for a, b in zip(_hashes(op), before))
        op.load_state(codec.loads(codec.dumps(op.state_dict())))
        assert all(a is b for a, b in zip(_hashes(op), before))
        plan.execute(PreparedBatch(np.arange(64)))
        assert builds == []
        reference = spec.build()
        reference.ingest(np.arange(500) % 37)
        reference.ingest(np.arange(64))
        assert codec.dumps(op.state_dict()) == codec.dumps(reference.state_dict())

    @pytest.mark.parametrize("cls", [ParallelCountMin, ParallelCountSketch])
    @pytest.mark.parametrize("delta", [0.1, 0.01])  # same / more rows
    def test_different_seed_replaces_hashes(self, cls, delta):
        op = cls(0.05, 0.1, rng=np.random.default_rng(1))
        source = cls(0.05, delta, rng=np.random.default_rng(99))
        source.ingest(np.random.default_rng(3).integers(0, 200, size=2_000))
        before = _hashes(op)
        op.load_state(source.state_dict())
        assert not any(a is b for a, b in zip(_hashes(op), before))
        keys = np.arange(200)
        assert np.array_equal(op.point_query(keys), source.point_query(keys))
        assert codec.dumps(op.state_dict()) == codec.dumps(source.state_dict())

    def test_in_place_restore_rng_matches_fresh_restore(self):
        source = np.random.default_rng(1234)
        source.random(17)  # mid-sequence
        saved = codec.rng_state(source)
        target = np.random.default_rng(5)
        restored = codec.restore_rng(saved, into=target)
        assert restored is target
        fresh = codec.restore_rng(saved)
        assert fresh is not target
        assert np.array_equal(target.random(100), fresh.random(100))
        assert np.array_equal(target.integers(0, 2**31, size=50),
                              fresh.integers(0, 2**31, size=50))

    def test_restore_rng_rebuilds_on_other_bit_generator(self):
        saved = codec.rng_state(np.random.Generator(np.random.MT19937(7)))
        target = np.random.default_rng(5)  # PCG64
        restored = codec.restore_rng(saved, into=target)
        assert restored is not target
        assert type(restored.bit_generator).__name__ == "MT19937"

    @pytest.mark.parametrize("name", ["ParallelCountMin", "ParallelCountSketch"])
    def test_published_table_survives_two_more_publishes(self, name):
        """A slow reader may still probe the snapshot it holds while two
        more publishes land (the seqlock then makes it retry); those
        publishes must swap the buffer's table, not write into it."""
        spec = registry.get(name)
        live = spec.build()
        store = SnapshotStore({"op": live})
        rng = np.random.default_rng(8)
        live.ingest(rng.integers(0, 100, size=1_000))
        store.publish(items=1_000)
        held = store.read()["op"].table
        frozen = held.copy()
        for _ in range(2):
            live.ingest(rng.integers(0, 100, size=1_000))
            store.publish()
        assert np.array_equal(held, frozen)
        assert not np.array_equal(store.read()["op"].table, frozen)

    def test_published_counters_survive_two_more_publishes(self):
        live = registry.get("ParallelFrequencyEstimator").build()
        store = SnapshotStore({"op": live})
        rng = np.random.default_rng(9)
        live.ingest(rng.integers(0, 50, size=1_000))
        store.publish()
        held = store.read()["op"].counters
        frozen = dict(held)
        for _ in range(2):
            live.ingest(rng.integers(0, 50, size=1_000))
            store.publish()
        assert held == frozen
        assert store.read()["op"].counters != frozen
