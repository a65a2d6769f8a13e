"""Checkpoint journal: one digest-pinned document format for resumable loops.

Three loops resume from disk: :meth:`~repro.sim.faults.FaultCampaign.run`
(kind ``"campaign"``), :func:`~repro.sim.parallel.sweep` (``"sweep"``) and
:func:`~repro.sim.chaos.chaos_search` (``"chaos"``).  Each owns the key,
state encoder and decoder of its kind; this module holds only what they
share:

- the document format (:data:`CHECKPOINT_SCHEMA`, :func:`save_checkpoint`,
  :func:`load_checkpoint`): a ``config_key`` digest pins the exact run
  configuration and a ``state_digest`` pins the state payload, so a
  checkpoint written by a different run, or edited by hand, is rejected
  with :class:`~repro.errors.CheckpointError` instead of silently
  resuming the wrong run;
- the store every loop writes through (:class:`Checkpointer`);
- canonical JSON and its SHA-256 (:func:`canonical_json`,
  :func:`stable_digest`), never Python ``hash()``;
- the bit-exact float codec (``float.hex()``, NaN-safe) and the numpy RNG
  state codec, so a resumed run reproduces the uninterrupted run's report
  **bit-for-bit**;
- the atomic writer (temporary file plus ``os.replace``) that checkpoints
  and chaos replay bundles share.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, TypeVar

import numpy as np

from repro.errors import CheckpointError, ConfigurationError

#: Schema marker stamped into every checkpoint file.
CHECKPOINT_SCHEMA = "xpro-checkpoint-v1"

_T = TypeVar("_T")


def canonical_json(obj: Any) -> str:
    """Canonical JSON text of a JSON-safe object.

    Keys are sorted, separators are minimal and NaN/Infinity are rejected,
    so equal objects always serialise to equal bytes.  Python floats are
    rendered by ``repr`` (shortest round-trip form), which re-parses to
    the identical IEEE-754 value — canonical text is therefore bit-exact
    for float payloads too.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def stable_digest(obj: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json`.

    The only sanctioned way to derive persisted identifiers (scenario
    keys, bundle IDs, config keys): Python's builtin ``hash()`` is salted
    per interpreter run.
    """
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def encode_float(value: float) -> str:
    """Bit-exact text form of one float (NaN/inf-safe, resume-stable)."""
    return float(value).hex()


def decode_float(token: str) -> float:
    """Inverse of :func:`encode_float`."""
    return float.fromhex(token)


def rng_state(generator: np.random.Generator) -> Dict[str, Any]:
    """JSON-safe snapshot of a numpy ``Generator``'s bit-generator state."""
    return generator.bit_generator.state


def restore_rng(state: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a numpy ``Generator`` from :func:`rng_state` output."""
    generator = np.random.default_rng(0)
    generator.bit_generator.state = dict(state)
    return generator


def write_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` through a temporary file plus ``os.replace``.

    A crash mid-write leaves the previous file intact instead of a torn
    one.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, target)
    return target


def save_checkpoint(
    path: str | Path, kind: str, config_key: str, state: Dict[str, Any]
) -> Path:
    """Atomically write one digest-pinned checkpoint document.

    The file carries the schema marker, the run's ``config_key`` and a
    ``state_digest`` (SHA-256 of the canonical state JSON), so
    :func:`load_checkpoint` can reject stale, foreign or hand-edited
    checkpoints.
    """
    try:
        digest = stable_digest(state)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint state is not canonical-JSON-safe: {exc}"
        ) from exc
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": kind,
        "config_key": config_key,
        "state_digest": digest,
        "state": state,
    }
    return write_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(
    path: str | Path, kind: str, config_key: str
) -> Dict[str, Any]:
    """Load and validate one checkpoint document, returning its state.

    Raises :class:`~repro.errors.CheckpointError` when the file is
    missing, unparseable, of the wrong kind, written for a different run
    configuration, or fails its state digest (tampering/corruption).
    """
    target = Path(path)
    try:
        data = json.loads(target.read_text())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{target} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{target}: not a checkpoint file "
            f"(expected schema {CHECKPOINT_SCHEMA!r})"
        )
    if data.get("kind") != kind:
        raise CheckpointError(
            f"{target}: checkpoint kind {data.get('kind')!r} != expected {kind!r}"
        )
    if data.get("config_key") != config_key:
        raise CheckpointError(
            f"{target}: checkpoint was written for a different run "
            f"configuration (config_key {data.get('config_key')} != "
            f"{config_key}); refusing to resume"
        )
    state = data.get("state")
    if not isinstance(state, dict):
        raise CheckpointError(f"{target}: checkpoint misses its state payload")
    if stable_digest(state) != data.get("state_digest"):
        raise CheckpointError(
            f"{target}: state digest mismatch — the checkpoint was edited "
            "or corrupted"
        )
    return state


class Checkpointer:
    """Periodic crash-safe snapshots of one resumable loop.

    Pass one as ``checkpoint=`` to :meth:`~repro.sim.faults.FaultCampaign.
    run` (snapshots every ``every`` events), :func:`~repro.sim.parallel.
    sweep` (every ``every`` grid points) or :func:`~repro.sim.chaos.
    chaos_search` (every ``every`` campaign evaluations), and
    ``resume=True`` to continue from the last snapshot: the resumed run is
    bit-identical to an uninterrupted one.  The loop supplies the kind,
    its config key and the encoded state; the store only decides when a
    snapshot is due, writes it, and validates it on the way back.
    """

    def __init__(self, path: str | Path, every: int) -> None:
        if every < 1:
            raise ConfigurationError("every must be >= 1")
        self.path = Path(path)
        self.every = int(every)
        self.saves = 0

    def due(self, n: int) -> bool:
        """Whether a snapshot is due after ``n`` units of loop progress."""
        return n > 0 and n % self.every == 0

    def save(self, kind: str, key: str, state: Dict[str, Any]) -> Path:
        """Write one snapshot (atomic replace) and count it."""
        path = save_checkpoint(self.path, kind, key, state)
        self.saves += 1
        return path

    def load(
        self, kind: str, key: str, decode: Callable[[Dict[str, Any]], _T]
    ) -> _T:
        """Validate the last snapshot and ``decode`` its state.

        The digest only proves the state is the one that was written, not
        that it is well formed: a hand-made file can carry any JSON under
        a matching digest.  Any lookup, type, value, attribute or overflow
        error while decoding, and any
        :class:`~repro.errors.ConfigurationError` from rebuilding an
        object out of the state, is therefore reported as
        :class:`~repro.errors.CheckpointError` too.
        """
        state = load_checkpoint(self.path, kind, key)
        try:
            return decode(state)
        except (
            LookupError,
            TypeError,
            ValueError,
            AttributeError,
            OverflowError,
            ConfigurationError,
        ) as exc:
            raise CheckpointError(
                f"{self.path}: malformed {kind} checkpoint state "
                f"({type(exc).__name__}: {exc})"
            ) from exc


__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpointer",
    "canonical_json",
    "decode_float",
    "encode_float",
    "load_checkpoint",
    "restore_rng",
    "rng_state",
    "save_checkpoint",
    "stable_digest",
    "write_atomic",
]
