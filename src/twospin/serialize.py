"""Deterministic JSON/CSV emission.

Identical invocations must produce byte-identical output, so floats are
rounded to 12 significant digits, keys are sorted, and exact numbers
(Fraction/Quad) serialise to both a float and a lossless string.

``dump_json`` walks the document once and writes the final text directly:
the bytes equal those of ``json.dumps(..., sort_keys=True, indent=2) + "\\n"``
on the rounded document, without building that copy or running the stdlib's
pure-Python indenting encoder.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

from .exact import Quad, is_exact

SCHEMA_VERSION = 1


def format_float(x: float) -> float:
    """Round to 12 significant digits (stable across invocations)."""
    return float(f"{float(x):.12g}")


def exact_str(value) -> str | None:
    """Lossless string form of an exact scalar (`is_exact`), or None for floats."""
    return str(value) if is_exact(value) else None


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


def _write(o, out: list, nl: str) -> None:
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
                _write(value, out, inner)
            head = sep
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        head, sep = "[" + inner, "," + inner
        for value in o:
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                out.append(head + scalar(value))
            else:
                out.append(head)
                _write(value, out, inner)
            head = sep
        out.append(nl + "]")
    elif isinstance(o, float):
        out.append(_float(o))
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, (Fraction, Quad)):
        inner = nl + "  "
        out.append("{" + inner + '"exact": ' + _quote(str(o)) + "," + inner
                   + '"float": ' + _float(o) + nl + "}")
    elif isinstance(o, str):
        out.append(_quote(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dump_json(doc) -> str:
    """Deterministic JSON text of ``doc``, ending in a newline."""
    out: list[str] = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def dump_csv(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()
