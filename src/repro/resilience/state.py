"""Versioned, deterministic state serialization for every synopsis.

Checkpoint/restore (docs/resilience.md) rests on three properties this
module provides:

* **completeness** — ``encode``/``decode`` round-trip every value a
  synopsis holds: NumPy arrays (dtype + shape preserved bit-exactly via
  base64 of the raw buffer), NumPy scalars, tuples, non-string dict
  keys (sketch counter maps are keyed by stream items), and the
  non-finite floats JSON rejects (``SBBC.sigma`` is ``inf``);
* **determinism** — ``dumps`` emits canonical JSON (sorted keys, fixed
  separators, ``__map__`` association lists sorted by encoded key), so
  identical states serialize to identical bytes — *including* counter
  maps built in different insertion orders — and a checkpoint's
  checksum is reproducible;
* **versioning** — every ``state_dict()`` carries a ``kind`` tag and a
  format ``version``; ``expect`` rejects mismatched kinds and states
  written by a *newer* format, turning silent misloads into
  :class:`StateError`.

RNG state travels too (``rng_state``/``restore_rng``): ``buildHist``
draws a fresh hash per minibatch, so bit-identical continuation after a
restore requires resuming the generator mid-sequence.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from typing import Any, Mapping

import numpy as np

__all__ = [
    "STATE_VERSION",
    "StateError",
    "encode",
    "decode",
    "dumps",
    "loads",
    "checksum",
    "header",
    "expect",
    "rng_state",
    "restore_rng",
]

#: Format version stamped into every ``state_dict()``.  Bump when a
#: synopsis's serialized layout changes incompatibly.
STATE_VERSION = 1

_FLOAT_SPECIALS = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


class StateError(ValueError):
    """A state blob is malformed, of the wrong kind, or too new."""


def encode(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-safe plain data."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        if math.isnan(obj):
            return {"__float__": "nan"}
        return {"__float__": "inf" if obj > 0 else "-inf"}
    if isinstance(obj, np.generic):
        return encode(obj.item())
    if isinstance(obj, np.ndarray):
        return {
            "__nd__": {
                "dtype": obj.dtype.str,
                "shape": list(obj.shape),
                "data": base64.b64encode(np.ascontiguousarray(obj).tobytes()).decode(
                    "ascii"
                ),
            }
        }
    if isinstance(obj, tuple):
        return {"__tuple__": [encode(x) for x in obj]}
    if isinstance(obj, (list,)):
        return [encode(x) for x in obj]
    if isinstance(obj, Mapping):
        if all(isinstance(k, str) and not k.startswith("__") for k in obj):
            return {k: encode(v) for k, v in obj.items()}
        # Non-string (or reserved) keys: keep as an association list so
        # integer-keyed counter maps survive JSON.  Pairs are sorted by
        # the canonical JSON of the encoded key: counter maps reach the
        # same contents in different insertion orders (vectorized kernel
        # vs per-item loop, merge-tree vs flat fold), and a canonical
        # encoding must not leak that order into the checkpoint bytes.
        pairs = [[encode(k), encode(v)] for k, v in obj.items()]
        pairs.sort(key=lambda kv: _canonical_key(kv[0]))
        return {"__map__": pairs}
    raise StateError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def decode(obj: Any) -> Any:
    """Inverse of :func:`encode`."""
    if isinstance(obj, list):
        return [decode(x) for x in obj]
    if isinstance(obj, dict):
        if "__float__" in obj:
            return _FLOAT_SPECIALS[obj["__float__"]]
        if "__nd__" in obj:
            spec = obj["__nd__"]
            raw = base64.b64decode(spec["data"])
            arr = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
            return arr.reshape(spec["shape"]).copy()
        if "__tuple__" in obj:
            return tuple(decode(x) for x in obj["__tuple__"])
        if "__map__" in obj:
            return {_freeze(decode(k)): decode(v) for k, v in obj["__map__"]}
        return {k: decode(v) for k, v in obj.items()}
    return obj


def _freeze(key: Any) -> Any:
    """Dict keys must be hashable; lists decoded from JSON become tuples."""
    return tuple(key) if isinstance(key, list) else key


def _canonical_key(encoded_key: Any) -> str:
    """Total order over encoded ``__map__`` keys: their canonical JSON."""
    return json.dumps(
        encoded_key, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def dumps(state: Any) -> bytes:
    """Canonical bytes: identical states yield identical output."""
    return json.dumps(
        encode(state), sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def loads(data: bytes | str) -> Any:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return decode(json.loads(data))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise StateError(f"malformed state blob: {exc}") from exc


def checksum(data: bytes) -> str:
    """SHA-256 hex digest used to detect torn/corrupt checkpoints."""
    return hashlib.sha256(data).hexdigest()


def header(kind: str) -> dict[str, Any]:
    """The (kind, version) preamble every ``state_dict()`` starts with."""
    return {"kind": kind, "version": STATE_VERSION}


def expect(state: Any, kind: str) -> Mapping[str, Any]:
    """Validate a state blob's kind/version before loading it."""
    if not isinstance(state, Mapping):
        raise StateError(f"expected a {kind!r} state mapping, got {type(state).__name__}")
    got = state.get("kind")
    if got != kind:
        raise StateError(f"state kind mismatch: expected {kind!r}, got {got!r}")
    version = state.get("version")
    if not isinstance(version, int) or version < 1:
        raise StateError(f"bad state version for {kind!r}: {version!r}")
    if version > STATE_VERSION:
        raise StateError(
            f"state of kind {kind!r} was written by a newer format "
            f"(version {version} > supported {STATE_VERSION})"
        )
    return state


def rng_state(rng: np.random.Generator) -> dict[str, Any]:
    """Capture a generator's full bit-generator state (JSON-safe)."""
    return dict(rng.bit_generator.state)


def restore_rng(
    state: Mapping[str, Any], into: np.random.Generator | None = None
) -> np.random.Generator:
    """A generator resuming exactly where ``rng_state`` left off.

    With ``into`` whose bit generator is of the recorded class, the
    state is assigned to it in place and ``into`` is returned: no new
    bit generator, so no seeding from OS entropy.  Otherwise a new
    generator is built."""
    name = state.get("bit_generator")
    if into is not None and type(into.bit_generator).__name__ == name:
        into.bit_generator.state = dict(state)
        return into
    try:
        bit_gen_cls = getattr(np.random, str(name))
    except AttributeError as exc:
        raise StateError(f"unknown bit generator {name!r}") from exc
    bit_gen = bit_gen_cls()
    bit_gen.state = dict(state)
    return np.random.Generator(bit_gen)
