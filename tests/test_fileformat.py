import importlib.resources
import json

import pytest

from metriclie.catalog import catalog_get, catalog_list
from metriclie.errors import InputFormatError
from metriclie.fileformat import (
    dumps_document,
    parse_document,
    parse_rational,
    parse_string,
    serialize_document,
)


def _shipped(name):
    entry = catalog_get(name)
    path = importlib.resources.files("metriclie").joinpath("data", entry.file)
    return path.read_text(encoding="utf-8")


def test_every_shipped_file_is_a_serialization_fixpoint():
    for name in catalog_list():
        text = _shipped(name)
        doc = parse_string(text)
        out = dumps_document(doc.name, doc.spec)
        assert out == text, name          # files are stored canonically
        again = parse_string(out)
        assert again.spec == doc.spec
        assert again.name == doc.name
        assert dumps_document(again.name, again.spec) == out


def test_rational_grammar():
    assert parse_rational("1/3").numerator == 1
    assert parse_rational("-7/2").denominator == 2
    assert parse_rational("0") == 0
    assert parse_rational(5) == 5
    for bad in ("1.5", "1/0", "01/3", "+2", "1/-2", "", "a", "2/", "/3",
                "1 /2", "--3"):
        with pytest.raises(InputFormatError):
            parse_rational(bad)
    with pytest.raises(InputFormatError):
        parse_rational(2.5)
    with pytest.raises(InputFormatError):
        parse_rational(True)


def _minimal(**overrides):
    doc = {
        "name": "tiny",
        "dim": 2,
        "basis": ["e1", "e2"],
        "mode": "bracket",
        "brackets": [],
        "metric": [{"x": "e1", "y": "e1", "value": "1"},
                   {"x": "e2", "y": "e2", "value": "1"}],
    }
    doc.update(overrides)
    return doc


def test_minimal_document_parses():
    doc = parse_document(_minimal())
    assert doc.spec.dim == 2
    assert doc.spec.metric.pair((1, 0), (1, 0)) == 1


def test_unknown_keys_rejected():
    with pytest.raises(InputFormatError):
        parse_document(_minimal(extra=1))


def test_unknown_basis_name_rejected():
    bad = _minimal(brackets=[{"x": "e1", "y": "zz", "value": {"e1": "1"}}])
    with pytest.raises(InputFormatError):
        parse_document(bad)


def test_conflicting_duplicate_entries_rejected():
    bad = _minimal(metric=[{"x": "e1", "y": "e2", "value": "1"},
                           {"x": "e2", "y": "e1", "value": "2"},
                           {"x": "e1", "y": "e1", "value": "1"},
                           {"x": "e2", "y": "e2", "value": "1"}])
    with pytest.raises(InputFormatError):
        parse_document(bad)
    bad = _minimal(brackets=[{"x": "e1", "y": "e2", "value": {"e1": "1"}},
                             {"x": "e2", "y": "e1", "value": {"e1": "1"}}])
    with pytest.raises(InputFormatError):
        parse_document(bad)   # both orientations must antisymmetrize


def test_consistent_duplicate_orientations_accepted():
    ok = _minimal(brackets=[{"x": "e1", "y": "e2", "value": {"e1": "1"}},
                            {"x": "e2", "y": "e1", "value": {"e1": "-1"}}])
    doc = parse_document(ok)
    assert doc.spec.bracket_table.row(0 * 2 + 1)[0] == 1   # [e1, e2]


def test_mode_keys_are_exclusive():
    bad = _minimal(mode="bracket",
                   connection=[{"x": "e1", "y": "e1", "value": {"e1": "1"}}])
    with pytest.raises(InputFormatError):
        parse_document(bad)
    bad = _minimal(mode="connection")
    bad["connection"] = []
    with pytest.raises(InputFormatError):
        parse_document(bad)   # bracket list present in connection mode


def test_self_bracket_must_vanish():
    bad = _minimal(brackets=[{"x": "e1", "y": "e1", "value": {"e2": "1"}}])
    with pytest.raises(InputFormatError):
        parse_document(bad)


def test_serialization_is_sparse_and_canonical():
    doc = parse_document(_minimal())
    obj = serialize_document(doc.name, doc.spec)
    assert obj["brackets"] == []
    assert [e["x"] for e in obj["metric"]] == ["e1", "e2"]
    text = dumps_document(doc.name, doc.spec)
    assert text.endswith("\n")
    assert json.loads(text) == obj
    assert "0.5" not in text


def test_non_json_input_is_a_format_error():
    with pytest.raises(InputFormatError):
        parse_string("not json at all {")
    with pytest.raises(InputFormatError):
        parse_string(json.dumps(["a", "list"]))
