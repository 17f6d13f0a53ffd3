"""The one-pass JSON writer against the stdlib encoder on the rounded document."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twospin import (Comb, DaryTree, FieldedGraph, Quad, ReductionCertificate,
                     SpinParams, Star)
from twospin.serialize import dump_json, format_float


def oracle_jsonable(obj):
    """Rounded copy of a document: floats at 12 significant digits, string
    keys, tuples as lists."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return obj
    if isinstance(obj, dict):
        return {str(k): oracle_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_jsonable(v) for v in obj]
    return obj


def oracle_dump(doc) -> str:
    return json.dumps(oracle_jsonable(doc), sort_keys=True, indent=2) + "\n"


scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
keys = st.text() | st.integers() | st.booleans()
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(keys, inner, max_size=5)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_dump_json_matches_stdlib_on_rounded_document(doc):
    assert dump_json(doc) == oracle_dump(doc)


@st.composite
def same_shape_rows(draw):
    """A list of same-shape records -- dicts on one key set, or arrays of one
    length -- whose columns each draw from one scalar strategy (sometimes a
    mixed one), with a trailing document that may break the shape."""
    keys = sorted(draw(st.sets(st.text(), max_size=4)))
    column = st.sampled_from([st.none(), st.booleans(), st.integers(), st.floats(),
                              st.text(), scalars])
    columns = [draw(column) for _ in keys]
    rows = [[draw(c) for c in columns] for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        rows = [dict(zip(keys, row)) for row in rows]
    else:
        rows = [tuple(row) if draw(st.booleans()) else row for row in rows]
    if draw(st.integers(0, 3)) == 0:
        rows.append(draw(documents))
    return rows


@settings(max_examples=200, deadline=None)
@given(same_shape_rows())
def test_dump_json_matches_stdlib_on_same_shape_rows(rows):
    assert dump_json(rows) == oracle_dump(rows)
    assert dump_json({"rows": rows}) == oracle_dump({"rows": rows})


@st.composite
def shared_elements(draw):
    """A document whose arrays hold one dict or list object several times, in
    runs of the same object and interleaved with others and with a scalar,
    at two depths."""
    containers = (st.dictionaries(keys, documents, max_size=3)
                  | st.lists(documents, max_size=3) | same_shape_rows())
    pieces = draw(st.lists(containers, min_size=1, max_size=3)) + [draw(scalars)]
    picks = st.lists(st.integers(0, len(pieces) - 1), min_size=1, max_size=8)
    outer = [pieces[i] for i in draw(picks)]
    inner = [[pieces[i] for i in draw(picks)]] * draw(st.integers(1, 3))
    return {"outer": outer, "nested": [pieces[-1], *inner, pieces[-1], *outer]}


@settings(max_examples=200, deadline=None)
@given(shared_elements())
def test_dump_json_matches_stdlib_on_repeated_objects(doc):
    assert dump_json(doc) == oracle_dump(doc)
    assert dump_json(doc["outer"]) == oracle_dump(doc["outer"])


EDGE_CASES = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "negative zero": -0.0,
    "subnormal": 5e-324,
    "rounds up": [0.9999999999995, 9.9999999999999e22, 1.23456789012345e-7, 2 / 3],
    "big ints": [10 ** 40, -(2 ** 70)],
    "bool next to int": [True, 1, False, 0, {"b": True, "i": 1}],
    "none and empties": {"none": None, "dict": {}, "list": [], "tuple": ()},
    "nested": {"a": [[1, (2.5, [])], {"b": {"c": ()}}], "d": ({"e": None},)},
    "non-ascii and control": {"été\n": "∑ \x00\t\"\\  \U0001f600",
                              "\x1f": ["ÿ", "\r"]},
    "int keys": {10: "ten", 9: "nine", 100: "hundred", -1: "minus one", "9a": 0},
    "numpy float64": [np.float64(0.1) * 3, np.float64("inf"), np.float64("nan")],
    # lists of records: the column-by-column path, and shapes that must leave it
    "records with zeros and non-finite": [
        {"id": "a", "field": 0.0}, {"id": "b", "field": -0.0}, {"id": "c", "field": 0.0},
        {"id": "d", "field": math.nan}, {"id": "e", "field": math.inf},
        {"id": "f", "field": -math.inf}, {"id": "g", "field": -0.0}],
    "records with repeated floats": [{"x": 2 / 3, "y": 0.1 * 3, "z": 2 / 3}] * 4
    + [{"x": 0.30000000000000004, "y": 2 / 3, "z": 1e-320}],
    "arrays with zeros and repeats": [[0.0, -0.0], [-0.0, 0.0], [1 / 3, 1 / 3], [1 / 3, -0.0]],
    "percent in key and value": [{"a%": "%s", "%%b": "%d%%"}, {"a%": "%(x)s", "%%b": "%"}],
    "last record has an extra key": [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5, "c": 0}],
    "last record misses a key": [{"a": 1, "b": 2.5}, {"a": 3, "c": 4.5}],
    "last record nests a value": [{"a": 1, "b": 2.5}, {"a": 3, "b": [4.5]}],
    "middle record nests a value": [{"a": 1}, {"a": {"b": 2}}, {"a": 3}],
    "arrays with an empty one": [[1, 2], [], [3, 4]],
    "empty arrays": [[], [], []],
    "arrays of unequal length": [[1, 2], [3], [4, 5]],
    "arrays nesting a value": [[1, "a"], [2, "b"], [3, ["c"]]],
    "tuples and lists": [(1, 2.5), [3, 4.5], (5, -0.0)],
    "numpy float64 in a record": [{"a": 1.5, "b": 2}, {"a": np.float64(2.5), "b": 3}],
    "bool and int in one column": [{"v": True, "w": 1}, {"v": 1, "w": False},
                                   {"v": 0, "w": None}],
    "non-str keys in records": [{1: "a", 2: "b"}, {1: "c", 2: "d"}],
    "one record": [{"b": 1.0, "a": "x"}],
    "one array": [[1.5, "x", None]],
    "one column": [{"a": 1.5}, {"a": -0.0}, {"a": 2 / 3}],
    "arrays of length 1": [[1.5], [-0.0], [2 / 3]],
    "2,000 records": [{"id": f"v{i}", "field": i / 7, "deg": i % 5} for i in range(2000)],
    "2,000 arrays": [(f"v{i}", f"v{i + 1}") for i in range(2000)],
    "quote, backslash, non-ascii and percent in keys": [
        {'q"': 1, "b\\s": 2.5, "été∑\U0001f600": "x", "%s%%": None, "%(a)d": True}] * 2
    + [{'q"': 2, "b\\s": -0.0, "été∑\U0001f600": "y", "%s%%": None, "%(a)d": False}],
    "bool and int in one array column": [[1, True], [True, 1], [0, False]],
}


@pytest.mark.parametrize("doc", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
def test_dump_json_edge_cases(doc):
    assert dump_json(doc) == oracle_dump(doc)


def test_int_keys_sort_as_strings():
    assert dump_json({10: 1, 9: 2}) == '{\n  "10": 1,\n  "9": 2\n}\n'


@pytest.mark.parametrize("value", [object(), np.int64(3), {1, 2}, b"bytes",
                                   Fraction(1, 3), Quad(1, 2, 5)],
                         ids=["object", "numpy int64", "set", "bytes", "Fraction", "Quad"])
def test_unsupported_type_raises_type_error(value):
    with pytest.raises(TypeError):
        dump_json({"x": [value]})
    with pytest.raises(TypeError):
        oracle_dump({"x": [value]})


RECORDS = [SpinParams(1, 2, 3), FieldedGraph({"u": 1.0}, ()), Star(2), DaryTree(2, 3),
           Comb([Star(0)]), ReductionCertificate("k", None, None, 1.0, "r")]


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_records_are_not_json_arrays(record):
    # records are tuple subclasses; only an exact list or tuple is an array
    for doc in (record, {"x": record}, [record], [record, record]):
        with pytest.raises(TypeError):
            dump_json(doc)
