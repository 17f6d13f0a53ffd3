"""Deterministic JSON/CSV emission.

Identical invocations must produce byte-identical output, so floats are
rounded to 12 significant digits and keys are sorted.  Only JSON's types
are written; any other, an exact Fraction or Quad too, raises TypeError, so
a command writes an exact value as a float plus its `exact_str`.

``dump_json`` walks the document once and writes the final text directly:
the bytes equal those of ``json.dumps(..., sort_keys=True, indent=2) + "\\n"``
on the rounded document, without building that copy or running the stdlib's
pure-Python indenting encoder.  A list of same-shape records -- dicts with
the first one's str keys, or arrays of the first one's length, each column
scalars of one type, such as a graph's vertices and edges -- is written
column by column through one %-template built from the sorted keys, with
the same bytes.
Each call keeps one memo of float texts for these columns, so a distinct
nonzero float is formatted once (zeros each time: 0.0 == -0.0, but they
print differently).
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from operator import itemgetter

from .exact import is_exact

SCHEMA_VERSION = 1


def format_float(x: float) -> float:
    """Round to 12 significant digits (stable across invocations)."""
    return float(f"{float(x):.12g}")


def exact_str(value) -> str | None:
    """Lossless string form of an exact scalar (`is_exact`), or None for floats.

    Python refuses to write an int of more than 4,300 digits in decimal by
    default; the limit is lifted while the value is written, then restored.
    """
    if not is_exact(value):
        return None
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # 0: no limit
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _float(x) -> str:
    """JSON text of ``format_float(x)``, non-finite values as ``json`` writes them."""
    x = format_float(x)
    if isfinite(x):
        return repr(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


# JSON text of each scalar type, looked up by exact type; subclasses take the
# isinstance path in _write.
_SCALARS = {
    str: _quote,
    float: _float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


_ARRAYS = {list, tuple}
_RECORDS = {dict, list, tuple}


class _FloatText(dict):
    """Float -> JSON text, each distinct value formatted once; one per `dump_json` call."""

    def __missing__(self, x):
        text = _float(x)
        if x:  # never a zero: 0.0 == -0.0, but they print differently
            self[x] = text
        return text


def _rows(o, nl: str, floats: _FloatText) -> list | None:
    """JSON text of each element of the list ``o`` at indent ``nl``, or None.

    Written through one %-template when the elements are all dicts with the
    first one's str keys, or all arrays of the first one's length, and each
    column holds scalars of one type; any other list returns None.  The
    first element's values, and the last dict's keys, are checked before
    any column is built, so a list of nested elements, or a comb's children
    whose last one has another shape, costs next to nothing here.
    """
    first, last = o[0], o[-1]
    kinds, values = ({dict}, first.values()) if type(first) is dict else (_ARRAYS, first)
    if (not first or not all(map(_SCALARS.__contains__, map(type, values)))
            or (kinds is not _ARRAYS and (type(last) is not dict
                                          or last.keys() != first.keys()))
            or not set(map(type, o)) <= kinds or set(map(len, o)) != {len(first)}):
        return None
    inner = nl + "  "
    if kinds is _ARRAYS:
        cols = list(zip(*o))
        template = "[" + inner + ("," + inner).join(["%s"] * len(first)) + nl + "]"
    else:
        if set(map(type, first)) != {str}:
            return None
        keys = sorted(first)
        try:
            cols = [list(map(itemgetter(k), o)) for k in keys]
        except KeyError:
            return None
        heads = ["," + inner + _quote(k).replace("%", "%%") + ": " for k in keys]
        template = "{" + "%s".join(heads)[1:] + "%s" + nl + "}"
    scalars = {**_SCALARS, float: floats.__getitem__}
    texts = []
    for col in cols:
        types = set(map(type, col))
        if len(types) != 1:  # one type, which the first row showed is a scalar
            return None
        texts.append(list(map(scalars[types.pop()], col)))
    return list(map(template.__mod__, zip(*texts)))


def _write(o, out: list, nl: str, floats: _FloatText) -> None:
    """Append the JSON text of ``o`` to ``out``; ``nl`` is its line's indent."""
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        out.append(scalar(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        head, sep = "{" + inner, "," + inner
        # keys are compared as strings: {10: .., 9: ..} writes "10" first
        for key, value in sorted(dict(zip(map(str, o), o.values())).items()):
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                out.append(head + _quote(key) + ": " + scalar(value))
            else:
                out.append(head + _quote(key) + ": ")
                _write(value, out, inner, floats)
            head = sep
        out.append(nl + "}")
    elif type(o) in _ARRAYS:  # a record, a tuple subclass, is no array
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        head, sep = "[" + inner, "," + inner
        rows = _rows(o, inner, floats) if type(o[0]) in _RECORDS else None
        if rows is not None:
            out.append(head + sep.join(rows) + nl + "]")
            return
        prev = text = None  # the element before, and its text once it repeats
        for value in o:
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                out.append(head + scalar(value))
            elif value is prev:
                if text is None:
                    text = "".join(out[start:])
                out.append(head + text)
            else:
                out.append(head)
                start = len(out)
                _write(value, out, inner, floats)
                text = None
            prev = value
            head = sep
        out.append(nl + "]")
    elif isinstance(o, float):
        out.append(_float(o))
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, str):
        out.append(_quote(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dump_json(doc) -> str:
    """Deterministic JSON text of ``doc``, ending in a newline."""
    out: list[str] = []
    _write(doc, out, "\n", _FloatText())
    out.append("\n")
    return "".join(out)


def dump_csv(header: list[str], rows: list[tuple]) -> str:
    """CSV text, one line per row after the header.  Every cell is an int or
    a float (written at 12 significant digits), so no cell needs quoting."""
    lines = [header, *([f"{v:.12g}" if isinstance(v, float) else str(v) for v in row]
                       for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)
