"""Registry-driven StreamOperator conformance sweep.

Every exported operator — core or baseline — must (a) be declared in
:mod:`repro.engine.registry`, (b) satisfy the runtime-checkable
:class:`~repro.engine.registry.Synopsis` protocol (both pipeline verbs,
``ingest`` and ``extend``), and (c) declare capability flags that match
its actual class surface, so a stale declaration fails here rather than
misleading a ``repro ops`` user or skipping an operator in the merge
and checkpoint sweeps.

State comparisons go through the resilience codec's canonical
``dumps`` directly: since the ``__map__`` association lists are sorted
at the source (resilience/state.py), two operators that reached the
same counters in different insertion orders serialize to identical
bytes — no test-side canonicalization needed.
"""

from __future__ import annotations

import doctest
import inspect

import pytest

import repro.baselines as baselines
import repro.core as core
from repro.engine import registry
from repro.engine.registry import Capabilities, Synopsis
from repro.resilience.state import dumps

SPECS = registry.specs()
IDS = [spec.name for spec in SPECS]


def _state(op) -> bytes:
    return dumps(op.state_dict())


def _exported_operator_classes():
    """Exported classes that speak ``ingest`` — i.e. stream operators
    (value objects like GammaSnapshot are exported but not operators)."""
    for module in (core, baselines):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) and callable(getattr(obj, "ingest", None)):
                yield name, obj


def test_every_exported_operator_is_registered():
    known = set(registry.names())
    missing = [name for name, _ in _exported_operator_classes() if name not in known]
    assert not missing, f"add registry declarations for: {missing}"


def test_registry_names_match_exported_classes():
    exported = dict(_exported_operator_classes())
    for spec in SPECS:
        assert spec.name in exported, f"{spec.name} registered but not exported"
        assert spec.cls is exported[spec.name]


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_satisfies_synopsis_protocol(spec):
    op = spec.build()
    assert isinstance(op, spec.cls)
    assert isinstance(op, Synopsis), f"{spec.name} lacks ingest()/extend()"


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_declared_capabilities_match_class_surface(spec):
    observed = Capabilities.observe(spec.cls)
    assert spec.caps == observed, (
        f"{spec.name} declares {spec.caps} but the class surface shows "
        f"{observed}"
    )


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_ingest_and_extend_agree(spec):
    """Feeding the same stream through either verb yields the same
    synopsis state (they are the same operation by contract)."""
    batch = registry.sample_feed(spec.input)
    via_ingest, via_extend = spec.build(), spec.build()
    via_ingest.ingest(batch)
    via_extend.extend(batch)
    if spec.probe is not None:
        assert spec.probe(via_ingest) == spec.probe(via_extend)
    if hasattr(via_ingest, "state_dict"):
        assert _state(via_ingest) == _state(via_extend)
    if spec.caps.invariant_checked:
        via_ingest.check_invariants()
        via_extend.check_invariants()


# ----------------------------------------------------------------------
# Capability overrides + windowed-operator sweep
# ----------------------------------------------------------------------
def test_capability_override_declares_non_windowed():
    """The structural verifier sees a `window` ctor parameter and would
    call the drift detectors windowed; the explicit override wins."""

    class _Windowish:
        def __init__(self, window: int = 8) -> None:
            self.window = window

        def ingest(self, values):
            pass

        extend = ingest

    assert Capabilities.observe(_Windowish).windowed

    class _Overridden(_Windowish):
        CAPABILITY_OVERRIDES = {"windowed": False}

    assert not Capabilities.observe(_Overridden).windowed
    for name in ("DDMDriftDetector", "EWMADriftDetector"):
        assert not registry.get(name).caps.windowed, (
            f"{name} sizes its inner estimator with `window` but answers "
            f"whole-stream drift queries; it must not be swept as windowed"
        )


def test_capability_override_rejects_unknown_flags():
    class _Typo:
        CAPABILITY_OVERRIDES = {"windowed": False, "mergable": True}

        def ingest(self, values):
            pass

        extend = ingest

    with pytest.raises(ValueError, match="mergable"):
        Capabilities.observe(_Typo)


def test_registry_module_doctest():
    result = doctest.testmod(registry)
    assert result.attempted > 0 and result.failed == 0


@pytest.mark.parametrize(
    "spec", [s for s in SPECS if s.caps.windowed],
    ids=[s.name for s in SPECS if s.caps.windowed],
)
def test_windowed_operators_answer_last_window_queries(spec):
    """Every operator claiming `windowed` must actually forget items
    that leave the window: after 3W ones followed by W zeros its oracle
    envelope — which is computed from the last-W tail only — must hold.
    An operator that aggregates the whole stream fails its envelope
    here, and an operator without a dedicated oracle can claim anything,
    so falling back to the default checker also fails."""
    import numpy as np

    from repro.fuzz.oracles import ORACLES, check_oracle
    from repro.fuzz.plan import generate_plan

    assert spec.name in ORACLES, (
        f"windowed operator {spec.name} has no envelope oracle; the "
        f"windowed sweep cannot verify it answers last-W queries"
    )
    op = spec.build()
    window = int(
        getattr(op, "window", 0)
        or getattr(getattr(op, "estimator", None), "window", 0)
    )
    assert window > 0, f"{spec.name} claims windowed but has no window"
    stream = np.concatenate(
        [np.ones(3 * window, dtype=np.int64), np.zeros(window, dtype=np.int64)]
    )
    op.ingest(stream)
    plan = generate_plan(spec, 0, 0)
    violations = check_oracle(spec, op, stream, plan)
    assert not violations, violations
