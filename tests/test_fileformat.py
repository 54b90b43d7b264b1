import importlib.resources
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from metriclie.algebra import AlgebraSpec
from metriclie.catalog import catalog_get, catalog_list
from metriclie.errors import InputFormatError
from metriclie.fileformat import (
    _ratio,
    dumps_document,
    format_ratio,
    parse_document,
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
    assert _ratio("1/3") == (1, 3)
    assert _ratio("-7/2") == (-7, 2)
    assert _ratio("0") == (0, 1)
    assert _ratio(5) == (5, 1)
    for bad in ("1.5", "1/0", "01/3", "+2", "1/-2", "", "a", "2/", "/3",
                "1 /2", "--3", "3\n", "-5/7\n"):
        with pytest.raises(InputFormatError):
            _ratio(bad)
    with pytest.raises(InputFormatError):
        _ratio(2.5)
    with pytest.raises(InputFormatError):
        _ratio(True)


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


def _written(f):
    """The ways a document may write the rational f: its canonical string,
    unreduced as p·m/q·m, and for an integer a bare JSON integer ("-0" too
    for zero)."""
    p, q = f.numerator, f.denominator
    forms = [st.just(str(f)),
             st.integers(2, 4).map(lambda m: f"{p * m}/{q * m}")]
    if q == 1:
        forms.append(st.just(p))
    if p == 0:
        forms.append(st.just("-0"))
    return st.one_of(forms)


@st.composite
def _documents(draw):
    """(document, names, mode, table, metric): a random document in either
    mode whose entries, written by `_written`, sometimes twice (in the
    other orientation, for a bracket or the metric) and in any order, say
    table {(a, b): {c: Fraction}} and metric {(a, b): Fraction}."""
    n = draw(st.integers(1, 4))
    names = [f"e{i + 1}" for i in range(n)]
    mode = draw(st.sampled_from(["bracket", "connection"]))
    values = st.fractions(-3, 3, max_denominator=4)
    entries, table, metric = [], {}, {}
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i < j or mode == "connection"]
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)
                     if pairs else st.just([])):
        ks = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        v = {names[k]: draw(values) for k in ks}
        table[(names[i], names[j])] = v
        back = mode == "bracket" and draw(st.booleans())
        given = draw(st.sampled_from(["one", "both"] + ["other"] * back))
        if given != "other":
            entries.append({"x": names[i], "y": names[j], "value": {
                c: draw(_written(x)) for c, x in v.items()}})
        if given != "one":
            a, b, sign = (j, i, -1) if back else (i, j, 1)
            entries.append({"x": names[a], "y": names[b], "value": {
                c: draw(_written(sign * x)) for c, x in v.items()}})
    if mode == "bracket":   # a self-bracket may be written, as zero
        for i in draw(st.lists(st.integers(0, n - 1), unique=True)):
            entries.append({"x": names[i], "y": names[i], "value": {
                names[0]: draw(_written(Fraction(0)))}})
    metric_entries = []
    for i in range(n):
        for j in range(i, n):
            if draw(st.booleans()):
                x = draw(values)
                metric[(names[i], names[j])] = x
                for a, b in [(i, j)] + [(j, i)] * draw(st.booleans()):
                    metric_entries.append({"x": names[a], "y": names[b],
                                           "value": draw(_written(x))})
    doc = {"name": "random", "dim": n, "basis": names, "mode": mode,
           "brackets" if mode == "bracket" else "connection":
           draw(st.permutations(entries)),
           "metric": draw(st.permutations(metric_entries))}
    return doc, names, mode, table, metric


@given(_documents())
@settings(max_examples=60, deadline=None)
def test_the_parse_equals_build_of_the_same_fractions(case):
    """The parse reads each scalar into a reduced pair and each table
    into its integer image; the structure equals the one `build` makes
    from the same entries as Fractions."""
    doc, names, mode, table, metric = case
    key = "brackets" if mode == "bracket" else "connection"
    spec = parse_document(doc).spec
    assert spec == AlgebraSpec.build(names, metric=metric, **{key: table})


@given(st.integers(), st.integers(min_value=1))
@example(0, 7)
@example(-6, 4)
@example(5, 1)
@example(-12, 3)
def test_format_ratio_is_the_string_of_the_fraction(x, d):
    assert format_ratio(x, d) == str(Fraction(x, d))
