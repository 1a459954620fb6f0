"""Strict JSON document access helpers used by every parser in the package,
and the canonical JSON writer.

All shipped documents reject unknown keys so that typos surface as
``SchemaError`` with a path instead of being silently ignored.

``dump_json`` writes its text in one recursive pass over plain JSON values.
Its output is byte-equal to ``json.dumps(obj, sort_keys=True, indent=2)``
plus a newline, and anything outside plain JSON values falls back to that
call, so the stdlib's output or exception is what the caller gets.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import SchemaError


def load_json(path) -> object:
    path = Path(path)
    if not path.exists():
        raise SchemaError(str(path), "file not found")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"invalid JSON: {exc}") from exc


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Byte-equal to ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, which
    runs the stdlib's pure-Python encoder whenever ``indent`` is set. Values
    of exactly ``str``, ``int``, ``float``, ``bool``, ``None``, ``list``,
    ``tuple`` and ``dict`` with ``str`` keys are written here; anything else
    (other keys, subclasses such as ``IntEnum``, other types, cycles) falls
    back to that call and gets its output or its exception.
    """
    pieces: list[str] = []
    try:
        _write(obj, pieces.append, "\n", {})
    except (TypeError, ValueError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    pieces.append("\n")
    return "".join(pieces)


_encode_str = json.encoder.encode_basestring_ascii


def _write(value, append, newline: str, texts: dict) -> None:
    """Append the canonical text of ``value``; ``newline`` is the line break
    plus indentation of its own line, and ``texts`` memoizes, for one call of
    ``dump_json``, the text of each dict key and of each float written."""
    kind = type(value)
    if kind is str:
        append(_encode_str(value))
    elif kind is float:
        text = texts.get(value)
        if text is None or not value:  # 0.0 and -0.0 share a slot, not a spelling
            if math.isfinite(value):
                text = float.__repr__(value)
            else:
                text = "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
            texts[value] = text
        append(text)
    elif kind is int:
        append(int.__repr__(value))
    elif kind is bool:
        append("true" if value else "false")
    elif value is None:
        append("null")
    elif kind is dict:
        if not value:
            append("{}")
            return
        inner = newline + "  "
        lead, comma = inner, "," + inner
        append("{")
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError("only str keys are written here")
            text = texts.get(key)
            if text is None:
                text = texts[key] = _encode_str(key) + ": "
            append(lead)
            append(text)
            lead = comma
            _write(item, append, inner, texts)
        append(newline)
        append("}")
    elif kind is list or kind is tuple:
        if not value:
            append("[]")
            return
        inner = newline + "  "
        lead, comma = inner, "," + inner
        append("[")
        for item in value:
            append(lead)
            lead = comma
            _write(item, append, inner, texts)
        append(newline)
        append("]")
    else:
        raise TypeError(f"{kind.__name__} is left to json.dumps")


def write_text(path, text: str) -> None:
    """Write text with LF endings regardless of platform."""
    Path(path).write_bytes(text.encode("utf-8"))


def require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected object, got {type(value).__name__}")
    return value


def require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected array, got {type(value).__name__}")
    return value


def reject_unknown(mapping: dict, allowed, path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}", "unknown key")


def get_required(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return mapping[key]


def get_str(mapping: dict, key: str, path: str) -> str:
    value = get_required(mapping, key, path)
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}.{key}", "expected non-empty string")
    return value


def get_number(mapping: dict, key: str, path: str) -> float:
    value = get_required(mapping, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}", "expected number")
    return float(value)


def get_int(mapping: dict, key: str, path: str) -> int:
    value = get_required(mapping, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}.{key}", "expected integer")
    return value
