"""Declarative registry of every synopsis the repo exports.

The paper's operators share one duck-typed contract — ``ingest`` /
``extend``, optionally ``ingest_prepared`` (PR3), ``merge`` +
``fresh_clone`` (mergeable summaries, [ACH+13]), ``state_dict`` /
``load_state`` / ``check_invariants`` (PR1) — but until this module the
contract was re-discovered by hand everywhere it mattered: the CLI's
constructor chain, the protocol-conformance sweep, the checkpoint
audit, the span catalog, the profiler's experiment table.  Each
operator module now *declares* itself once, at import time:

>>> from repro.engine import registry
>>> registry.load_all()                      # doctest: +ELLIPSIS
[...]
>>> registry.get("ParallelCountMin").caps.flags()
'MPIC'

and every subsystem iterates :func:`specs` instead of hard-coding the
operator list.  A spec carries the class, a one-line summary, the feed
kind its conformance tests need (``items`` vs ``bits``), declared
:class:`Capabilities` (tested against the class surface — a stale
declaration fails the conformance sweep), a deterministic ``build``
factory, and a canonical ``probe`` query used by round-trip and
merge-algebra tests.
"""

from __future__ import annotations

import inspect
import re
import textwrap
from dataclasses import dataclass, replace
from typing import Any, Callable, Protocol, runtime_checkable

from repro.engine.mergetree import mergeable

__all__ = [
    "Synopsis",
    "Capabilities",
    "SynopsisSpec",
    "register",
    "get",
    "names",
    "specs",
    "registered",
    "servable",
    "create",
    "load_all",
    "sample_feed",
]

#: Feed kinds a spec can declare for its conformance streams.
ITEMS = "items"
BITS = "bits"


@runtime_checkable
class Synopsis(Protocol):
    """The minimal stream-operator contract: both pipeline verbs.

    Everything else — preparation, mergeability, windowing, invariant
    audits — is a *capability*, declared per-operator in its
    :class:`SynopsisSpec` and discoverable via ``spec.caps``.
    """

    def ingest(self, batch: Any) -> None:
        """Fold one minibatch into the synopsis."""
        ...

    def extend(self, items: Any) -> None:
        """Fold a sequence of single arrivals into the synopsis."""
        ...


@dataclass(frozen=True)
class Capabilities:
    """Optional facets of the synopsis contract, as declared flags.

    ``mergeable``
        ``merge(other)`` + ``fresh_clone()`` — the mergeable-summaries
        property that makes sharded ingest
        (:func:`repro.engine.mergetree.merge_tree_ingest`) and elastic
        resharding
        (:class:`repro.resilience.ElasticShardedIngestor`) valid; it also
        selects the fuzzer's ``mergetree`` *and* ``reshard`` differential
        relations for the operator.
    ``preparable``
        ``ingest_prepared(plan)`` — consumes a shared
        :class:`~repro.pram.plan.PreparedBatch` instead of re-encoding.
    ``windowed``
        queries describe the last W arrivals, not the whole stream.
        :meth:`observe` infers this from a ``window`` constructor
        parameter; a class whose ``window`` argument does *not* make
        its answers windowed (the drift detectors size their inner
        estimator with it but answer whole-stream drift queries)
        corrects the inference with a class-level
        ``CAPABILITY_OVERRIDES`` dict, e.g.
        ``CAPABILITY_OVERRIDES = {"windowed": False}``.
    ``invariant_checked``
        ``check_invariants()`` — structural self-audit used by the
        resilience layer's checkpoint quarantine.
    ``concurrent``
        the mergeable surface *plus* the ``state_dict``/``load_state``
        codec — everything the thread-local buffered ingest path
        (:class:`repro.concurrent.ConcurrentIngestor`) needs: buffer
        sketches are ``fresh_clone()``\\ s flushed via ``merge`` and
        reset in place through the codec, and snapshot publication
        reuses buffer clones through the codec.
        Selects the fuzzer's ``staleness`` differential relation.
    """

    mergeable: bool = False
    preparable: bool = False
    windowed: bool = False
    invariant_checked: bool = False
    concurrent: bool = False

    def flags(self) -> str:
        """Compact ``MPWIC`` capability string (``-`` padding omitted):
        the first letter of every capability that is on."""
        return (
            "".join(
                name[0].upper()
                for name in self.__dataclass_fields__
                if getattr(self, name)
            )
            or "-"
        )

    @classmethod
    def legend(cls) -> str:
        """What each :meth:`flags` letter stands for, in flag order."""
        return "  ".join(
            f"{name[0].upper()}={name.replace('_', '-')}"
            for name in cls.__dataclass_fields__
        )

    @classmethod
    def observe(cls, target: type) -> "Capabilities":
        """Capabilities as actually present on the class surface — the
        ground truth that declared flags are tested against.

        Inference is structural (method presence, constructor
        signature); when structure misleads — a ``window`` parameter on
        an operator whose answers are not last-W queries — the class
        states the truth explicitly in a ``CAPABILITY_OVERRIDES`` dict
        of flag-name → bool, which is applied after inference.  Unknown
        flag names in the override are an error, so a typo fails the
        conformance sweep instead of silently changing nothing.
        """
        merges = mergeable(target)
        observed = cls(
            mergeable=merges,
            preparable=callable(getattr(target, "ingest_prepared", None)),
            windowed="window" in inspect.signature(target.__init__).parameters,
            invariant_checked=callable(getattr(target, "check_invariants", None)),
            concurrent=merges
            and callable(getattr(target, "state_dict", None))
            and callable(getattr(target, "load_state", None)),
        )
        overrides = getattr(target, "CAPABILITY_OVERRIDES", None)
        if overrides:
            unknown = set(overrides) - set(cls.__dataclass_fields__)
            if unknown:
                raise ValueError(
                    f"{target.__name__}.CAPABILITY_OVERRIDES names unknown "
                    f"capabilities: {sorted(unknown)}"
                )
            observed = replace(
                observed, **{flag: bool(on) for flag, on in overrides.items()}
            )
        return observed


@dataclass(frozen=True)
class SynopsisSpec:
    """One registry entry: a synopsis class plus how to exercise it."""

    name: str
    cls: type
    summary: str
    input: str  # ITEMS | BITS
    caps: Capabilities
    build: Callable[[], Any]
    probe: Callable[[Any], Any] | None = None

    @property
    def kind(self) -> str:
        """``core`` for the paper's algorithms, ``baseline`` otherwise."""
        return "core" if self.cls.__module__.startswith("repro.core") else "baseline"

    @property
    def servable(self) -> bool:
        """Whether the spec exposes a canonical query probe — the
        contract the streaming service (:mod:`repro.serve`) requires to
        answer ``QUERY <op>`` against a published snapshot.  Servable
        specs are exactly the ones :func:`servable` enumerates."""
        return self.probe is not None

    def probe_source(self) -> str:
        """Human-readable signature of the canonical query probe.

        For ``lambda op: ...`` probes this is the lambda body (e.g.
        ``op.query()``); for named probe functions, the function name
        with its body's return expression when recoverable.  ``repro
        ops --verbose`` and the docs/api.md operator table surface this
        so the query surface each operator serves is discoverable
        without reading its module.  Returns ``"-"`` when the spec has
        no probe.
        """
        if self.probe is None:
            return "-"
        try:
            src = inspect.getsource(self.probe)
        except (OSError, TypeError):
            return getattr(self.probe, "__qualname__", repr(self.probe))
        src = " ".join(textwrap.dedent(src).split())
        lam = re.search(r"lambda op:\s*(.*)", src)
        if lam is not None:
            return _trim_expression(lam.group(1))
        # A named probe function: show `name(op)`, preferring its
        # single return expression when the body is that simple.
        name = getattr(self.probe, "__name__", "probe")
        ret = re.search(r"return\s+(.+?)\s*$", src)
        if ret is not None and src.count("return") == 1:
            return ret.group(1)
        return f"{name}(op)"


def _trim_expression(text: str) -> str:
    """Trim register-call syntax trailing a probe lambda's body: the
    keyword-argument comma and any close-delimiters that belong to the
    enclosing ``register(...)`` call rather than the expression."""
    text = text.strip().rstrip(",").strip()
    while text and text[-1] in ")]}":
        opens = text.count("(") + text.count("[") + text.count("{")
        closes = text.count(")") + text.count("]") + text.count("}")
        if closes <= opens:
            break
        text = text[:-1].rstrip().rstrip(",").rstrip()
    return text


_REGISTRY: dict[str, SynopsisSpec] = {}


def register(
    cls: type,
    *,
    summary: str,
    input: str,
    caps: Capabilities,
    build: Callable[[], Any],
    probe: Callable[[Any], Any] | None = None,
    name: str | None = None,
) -> SynopsisSpec:
    """Declare a synopsis.  Called once at the bottom of each operator
    module; re-registration of the same class is a no-op replace (module
    reloads), while a name collision between two classes is an error."""
    if input not in (ITEMS, BITS):
        raise ValueError(f"input must be {ITEMS!r} or {BITS!r}, got {input!r}")
    name = name if name is not None else cls.__name__
    existing = _REGISTRY.get(name)
    if existing is not None and existing.cls.__qualname__ != cls.__qualname__:
        raise ValueError(
            f"registry name {name!r} already bound to {existing.cls!r}"
        )
    spec = SynopsisSpec(
        name=name, cls=cls, summary=summary, input=input,
        caps=caps, build=build, probe=probe,
    )
    _REGISTRY[name] = spec
    return spec


def get(name: str) -> SynopsisSpec:
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no synopsis named {name!r}; known: {', '.join(names())}"
        ) from None


def names() -> list[str]:
    """Registered names, sorted."""
    load_all()
    return sorted(_REGISTRY)


def specs() -> list[SynopsisSpec]:
    """All registered specs in name order (deterministic sweeps)."""
    load_all()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def registered(module_prefix: str | None = None) -> list[SynopsisSpec]:
    """Specs registered *so far*, in name order, without triggering
    :func:`load_all` — for import-time consumers (the span catalog in
    ``repro.core.__init__`` runs mid-import and must not re-enter the
    package machinery).  Optionally filtered by class-module prefix."""
    out = [_REGISTRY[name] for name in sorted(_REGISTRY)]
    if module_prefix is not None:
        out = [s for s in out if s.cls.__module__.startswith(module_prefix)]
    return out


def servable(module_prefix: str | None = None) -> list[SynopsisSpec]:
    """Specs that declare a canonical query probe, in name order — the
    operator set :mod:`repro.serve` offers tenants (each ``HELLO`` names
    a subset of these; ``QUERY <op>`` runs the probe against the
    tenant's latest published snapshot).  Optionally filtered by
    class-module prefix, like :func:`registered`."""
    out = [s for s in specs() if s.servable]
    if module_prefix is not None:
        out = [s for s in out if s.cls.__module__.startswith(module_prefix)]
    return out


def create(name: str, **kwargs: Any) -> Any:
    """Instantiate a registered synopsis — the CLI's factory path."""
    return get(name).cls(**kwargs)


def load_all() -> list[SynopsisSpec]:
    """Import every operator package so their registrations run.

    Import is the registration mechanism (each module registers itself
    at the bottom), so this is idempotent and cheap after the first
    call.  Kept lazy to avoid import cycles: the registry itself must
    not depend on the operator packages at module level.
    """
    import repro.baselines  # noqa: F401
    import repro.core  # noqa: F401

    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def sample_feed(kind: str, n: int = 200, seed: int = 9):
    """A deterministic conformance stream for a spec's ``input`` kind:
    a skewed item stream over a small universe, or 0/1 bits."""
    import numpy as np

    if kind == BITS:
        return (np.random.default_rng(seed).random(n) < 0.5).astype(np.int64)
    from repro.stream.generators import zipf_stream

    return zipf_stream(n, 64, 1.2, rng=seed + 1)
