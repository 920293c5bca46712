"""Deterministic report emission shared by the experiment harness and the CLI.

All floats are rendered with repr (shortest round-trip form), so identical
inputs produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (list, tuple, dict)):
        # canonical container rendering, stable across a JSON round trip
        return json.dumps(_jsonable(x), sort_keys=True, separators=(",", ":"))
    return str(x)


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def config_hash(doc: dict) -> str:
    """sha256 of the canonical JSON encoding of a configuration document.

    The document is built from parsed JSON, which cannot hold a cycle, so the
    encoder's cycle check is skipped; it changes no byte of the encoding.
    """
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str, check_circular=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def comment_header(meta: dict) -> list[str]:
    return [f"# {key}={fmt(val)}" for key, val in meta.items()]


def csv_table(columns: list[str], rows: list[tuple], meta: dict | None = None) -> str:
    lines = comment_header(meta or {})
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def json_report(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
