"""Indented JSON output without the pure-Python encoder, which `json.dumps`
falls back to whenever an indent is given; strings are escaped in C.  A
`Table` is a list of flat objects as keys once and one row of values per
object, each row written with one format and no dict built for it."""

import json
from json.encoder import encode_basestring_ascii as _quote

from .errors import SeqcError


class Table:
    """JSON objects that share `keys`; `rows` holds one tuple of values per object.
    A table with a column not all str or all int is written by `json.dumps`."""

    def __init__(self, keys, rows):
        self.keys, self.rows = tuple(keys), rows


def dumps(value) -> str:
    """Exactly `json.dumps(value, indent=2)`, with a `Table` read as its list
    of dicts.  Values holding anything but dicts with str keys, lists,
    tuples, tables, str, int, bool or None go to it.  An int past the
    interpreter's int-string limit is a SeqcError."""
    chunks: list[str] = []
    try:
        _write(value, "\n", chunks.append)
    except (TypeError, RecursionError):
        return json.dumps(value, indent=2, default=_as_list)
    except ValueError as exc:
        raise SeqcError(f"cannot write JSON: {exc}") from None
    return "".join(chunks)


def _as_list(value):
    if type(value) is not Table:
        return json.JSONEncoder().default(value)  # raises json's TypeError
    return [dict(zip(value.keys, row)) for row in value.rows]


def _write(value, newline: str, append) -> None:
    # The type tests json.encoder makes; no value passes two, so order is free.
    if isinstance(value, dict):
        inner = newline + "  "
        opener, separator = "{" + inner, "," + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError
            append(f"{opener}{_quote(key)}: ")
            _write(item, inner, append)
            opener = separator
        append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        opener, separator = "[" + inner, "," + inner
        for item in value:
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
    elif type(value) is Table and 0 < len(set(value.keys)) == len(value.keys):  # else json.dumps
        append(_table(value, newline) if value.rows else "[]")
    else:
        raise TypeError


def _table(table: Table, newline: str) -> str:
    item, field = newline + "  ", newline + "    "
    row = "{" + ",".join(f"{field}{_quote(key).replace('%', '%%')}: %s"
                         for key in table.keys) + item + "}"
    columns = [_column(values) for values in zip(*table.rows)]
    if len(columns) < len(table.keys):  # rows shorter than the keys: json.dumps
        raise TypeError
    return f"[{item}{(',' + item).join(map(row.__mod__, zip(*columns)))}{newline}]"


def _column(values: tuple):
    """The JSON text of each value in a column of strs or of ints."""
    if type(values[0]) is str:  # `_quote` refuses any later value that is not a str
        return map(_quote, values)
    if set(map(type, values)) != {int}:  # a bool, or a subclass whose text may differ
        raise TypeError
    return map(int.__repr__, values)
