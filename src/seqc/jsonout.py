"""Indented JSON for the documents seqc writes: `graph --json`, the
schedule trace and `generate --json`.  Each is one flat object whose
members are str, int, a list of str, or a `Table`: a list of flat objects
given as its keys once and one row of values per object.  `dumps` writes
exactly what `json.dumps(..., indent=2)` writes for the same object with
each table read as its list of dicts, but escapes strings in C and writes
each row with one format, with no dict built for it."""

from json.encoder import encode_basestring_ascii as _quote

from .errors import SeqcError


class Table:
    """JSON objects that share `keys`; `rows` holds one tuple of values per
    object.  Each column is all str or all int."""

    def __init__(self, keys, rows):
        self.keys, self.rows = tuple(keys), rows


def dumps(document: dict) -> str:
    """`json.dumps(document, indent=2)` for a non-empty dict whose members
    are str, int, a list of str or a `Table`.  An int past the
    interpreter's int-string limit is a SeqcError."""
    chunks = []
    try:
        for key, value in document.items():
            chunks += (",\n  " if chunks else "{\n  "), _quote(key), ": ", _member(value)
    except ValueError as exc:
        raise SeqcError(f"cannot write JSON: {exc}") from None
    chunks.append("\n}")
    return "".join(chunks)  # one join: each concatenation would copy the whole text


def _member(value) -> str:
    if type(value) is Table:
        items = _rows(value)
    elif type(value) is list:
        items = map(_quote, value)
    else:
        return _quote(value) if type(value) is str else int.__repr__(value)
    text = ",\n    ".join(items)
    return f"[\n    {text}\n  ]" if text else "[]"


def _rows(table: Table):
    """Each row's JSON text, written with one format over its columns'
    JSON texts; a column's type is its first value's."""
    row = "{" + ",".join(f"\n      {_quote(key).replace('%', '%%')}: %s"
                         for key in table.keys) + "\n    }"
    columns = [map(_quote, values) if type(values[0]) is str else map(int.__repr__, values)
               for values in zip(*table.rows)]
    return map(row.__mod__, zip(*columns))
