"""Indented JSON output without the pure-Python encoder, which `json.dumps`
falls back to whenever an indent is given; strings are escaped in C."""

import json
from json.encoder import encode_basestring_ascii as _quote

from .errors import SeqcError


def dumps(value) -> str:
    """Exactly `json.dumps(value, indent=2)`.  Values holding anything but
    dicts with str keys, lists, tuples, str, int, bool or None go to it.
    An int past the interpreter's int-string limit is a SeqcError."""
    chunks: list[str] = []
    try:
        _write(value, "\n", chunks.append)
    except (TypeError, RecursionError):
        return json.dumps(value, indent=2)
    except ValueError as exc:
        raise SeqcError(f"cannot write JSON: {exc}") from None
    return "".join(chunks)


def _write(value, newline: str, append) -> None:
    # The type tests json.encoder makes; no value passes two, so order is free.
    if isinstance(value, dict):
        inner = newline + "  "
        opener, separator = "{" + inner, "," + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError
            if type(item) is str:  # the common leaves, written without a call
                append(f"{opener}{_quote(key)}: {_quote(item)}")
            elif type(item) is int:  # not bool, nor a subclass whose text may differ
                append(f"{opener}{_quote(key)}: {item}")
            else:
                append(f"{opener}{_quote(key)}: ")
                _write(item, inner, append)
            opener = separator
        append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        opener, separator = "[" + inner, "," + inner
        for item in value:
            if type(item) is str:
                append(opener + _quote(item))
            else:
                append(opener)
                _write(item, inner, append)
            opener = separator
        append(newline + "]" if value else "[]")
    elif isinstance(value, str):
        append(_quote(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    else:
        raise TypeError
