"""JSON documents with a schema marker: the perf, chaos and supervision reports.

Each report is one JSON object whose ``"schema"`` key names its layout.
:func:`write_json_document` pretty-prints one; :func:`read_json_document`
loads one back and turns every way a file can be unusable — missing,
unreadable, not JSON, not an object, another schema — into one
:class:`~repro.errors.ConfigurationError`, which the CLI reports as
``error: ...`` with exit status 2.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from repro.errors import ConfigurationError


def write_json_document(document: Dict[str, Any], path: str | Path) -> Path:
    """Serialise a document to pretty-printed JSON, creating parent dirs."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


def read_json_document(path: str | Path, schema: str, kind: str) -> Dict[str, Any]:
    """Load a JSON object and check its ``"schema"`` marker.

    Args:
        path: The file to read.
        schema: The expected schema identifier.
        kind: What the document is (``"perf report"``, ...), for messages.

    Raises:
        ConfigurationError: If the file cannot be read, is not valid JSON,
            or is not an object carrying ``schema``.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read {kind} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    found = data.get("schema") if isinstance(data, dict) else None
    if found != schema:
        raise ConfigurationError(f"{path}: unknown {kind} schema {found!r}")
    return data
