"""Strict JSON document access helpers used by every parser in the package,
the canonical JSON writer, and the writer of every CSV output.

All shipped documents reject unknown keys so that typos surface as
``SchemaError`` with a path instead of being silently ignored. Each field
reader looks its key up once and formats a field path only for the fault it
reports; ``reject_unknown`` tests a record's keys against a set built once,
mostly of its type's fields, and gathers unknown keys only when there is one.

``dump_json`` writes its text in one recursive pass over plain JSON values,
laying out each dict shape once per call: the sorted keys, each with its
whole lead text, are memoized under the dict's keys and indentation, since a
run record repeats a few shapes thousands of times, and a list's dict item
with the previous dict item's keys reuses that layout. Its output is byte-equal
to ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, and anything
outside plain JSON values falls back to that call, so the stdlib's output or
exception is what the caller gets.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import MappingProxyType

from .errors import SchemaError


def load_json(path) -> object:
    """The JSON value in a UTF-8 file. A file that cannot be read or decoded,
    including one nested too deeply or holding an integer longer than the
    interpreter converts, raises SchemaError at its path."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(str(path), "file not found")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
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
        _write(obj, pieces.append, "\n", {}, {})
    except (TypeError, KeyError, ValueError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    pieces.append("\n")
    return "".join(pieces)


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _write(value, append, newline: str, texts: dict, layouts: dict) -> None:
    """Append the canonical text of ``value``; ``newline`` is the line break
    plus indentation of its own line.

    Both memos live for one call of ``dump_json``. ``texts`` holds the text
    of each non-zero float written as a dict value (0.0 and -0.0 are equal
    keys with different spellings, so zeros are never served from it).
    ``layouts`` maps a dict's keys, in insertion order, and its ``newline`` to
    the dict's layout (see ``_layout``). Keys match a layout by equality, so a
    key that only equals a ``str`` (a ``str`` subclass, say) is written as
    that ``str`` once a dict with equal keys has been; a shape first met with
    such a key falls back. In a list, a dict item whose keys equal the
    previous dict item's reuses that item's layout without a lookup, since a
    list's items mostly share one; a key that equals a ``str`` but hashes
    otherwise then raises KeyError, and falls back. Containers are tested
    first: the scalars that reach here are a list's items or a bare value,
    which are rare.
    """
    kind = type(value)
    if kind is dict:
        if value:
            _write_dict(value, _layout(tuple(value), newline, layouts), append, texts, layouts)
        else:
            append("{}")
    elif kind is list or kind is tuple:
        if not value:
            append("[]")
            return
        inner = newline + "  "
        lead, comma = inner, "," + inner
        keys = None  # of the last dict item, whose layout is ``layout``
        append("[")
        for item in value:
            append(lead)
            lead = comma
            if type(item) is dict and item:
                item_keys = tuple(item)
                if item_keys != keys:
                    keys, layout = item_keys, _layout(item_keys, inner, layouts)
                _write_dict(item, layout, append, texts, layouts)
            else:
                _write(item, append, inner, texts, layouts)
        append(newline)
        append("]")
    elif kind is str:
        append(_encode_str(value))
    elif kind is float:
        append(_float_text(value))
    elif kind is int:
        append(int.__repr__(value))
    elif kind is bool:
        append("true" if value else "false")
    elif value is None:
        append("null")
    else:
        raise TypeError(f"{kind.__name__} is left to json.dumps")


def _layout(keys: tuple, newline: str, layouts: dict) -> tuple:
    """The layout of a dict with ``keys`` on a line that starts with
    ``newline``, built when that shape is first met: the keys in sorted
    order, each with its whole lead text (``{`` or ``,``, the line break and
    indentation, the encoded key and ``": "``), the indentation of the
    values, and the closing text."""
    layout = layouts.get((keys, newline))
    if layout is None:
        inner = newline + "  "
        lead, comma = "{" + inner, "," + inner
        pairs = []
        for key in sorted(keys):
            if type(key) is not str:
                raise TypeError("only str keys are written here")
            pairs.append((key, lead + _encode_str(key) + ": "))
            lead = comma
        layout = layouts[keys, newline] = (pairs, inner, newline + "}")
    return layout


def _write_dict(value: dict, layout: tuple, append, texts: dict, layouts: dict) -> None:
    """Append a non-empty dict's text by its layout. Its ``str`` values and
    non-zero floats are written here; every other value recurses."""
    pairs, inner, close = layout
    for key, lead in pairs:
        append(lead)
        item = value[key]
        kind = type(item)
        if kind is str:
            append(_encode_str(item))
        elif kind is float and item:
            text = texts.get(item)
            if text is None:
                text = texts[item] = _float_text(item)
            append(text)
        else:
            _write(item, append, inner, texts, layouts)
    append(close)


def csv_text(header, rows) -> str:
    """The text of every CSV output: the header, then one line per row, cells joined by
    commas, floats as ``:.6f``, LF line ends. Names passed ``get_name``, so none is quoted."""
    lines = (",".join(f"{c:.6f}" if isinstance(c, float) else str(c) for c in row) for row in (header, *rows))
    return "".join(line + "\n" for line in lines)


def write_text(path, text: str) -> None:
    """Write text with LF endings regardless of platform."""
    Path(path).write_bytes(text.encode("utf-8"))


def require_mapping(value, path: str) -> dict:
    """A JSON object: a dict, or the read-only view of one that a checked workflow graph holds."""
    if not isinstance(value, (dict, MappingProxyType)):
        raise SchemaError(path, f"expected object, got {type(value).__name__}")
    return value


def require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected array, got {type(value).__name__}")
    return value


def reject_unknown(mapping: dict, allowed: frozenset, path: str) -> None:
    """Refuse a key of ``mapping`` not in ``allowed``, a set, at the least such key by its text."""
    if not allowed.issuperset(mapping):
        raise SchemaError(f"{path}.{min(set(mapping).difference(allowed), key=str)}", "unknown key")


def get_required(mapping: dict, key: str, path: str):
    try:
        return mapping[key]
    except KeyError:
        raise _missing(key, path) from None


def _missing(key: str, path: str) -> SchemaError:
    return SchemaError(f"{path}.{key}", "missing required field")


def get_str(mapping: dict, key: str, path: str) -> str:
    value = get_required(mapping, key, path)
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}.{key}", "expected non-empty string")
    return value


def get_name(mapping: dict, key: str, path: str) -> str:
    """A non-empty string that the CSV outputs write as one unquoted field."""
    value = get_str(mapping, key, path)
    if "," in value or '"' in value or "\r" in value or "\n" in value:
        raise SchemaError(f"{path}.{key}", "must not contain a comma, a double quote, CR or LF")
    return value


def is_finite_number(value) -> bool:
    """Whether ``value`` is a number that converts to a finite float: a bool is
    not a number, and an int past float range is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int that rounds past the largest float
        return False


def get_number(mapping: dict, key: str, path: str) -> float:
    """A finite number; ``json`` reads ``NaN``, ``Infinity`` and integers past float range, no document may hold them.
    A finite float, what a document mostly holds, is returned as it is, without a
    call; every other value takes ``is_finite_number``'s test."""
    try:
        value = mapping[key]
    except KeyError:
        raise _missing(key, path) from None
    if type(value) is float and value - value == 0.0:  # x - x is 0.0 for a finite x, NaN otherwise
        return value
    if not is_finite_number(value):
        raise SchemaError(f"{path}.{key}", "expected finite number")
    return float(value)


def get_int(mapping: dict, key: str, path: str) -> int:
    value = get_required(mapping, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}.{key}", "expected integer")
    return value
