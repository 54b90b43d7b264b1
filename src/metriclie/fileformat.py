"""JSON input format for metric Lie algebra structures.

A document looks like::

    {
      "name": "heisenberg3",
      "dim": 3,
      "basis": ["e1", "e2", "e3"],
      "mode": "bracket",
      "brackets": [
        {"x": "e1", "y": "e2", "value": {"e3": "1"}}
      ],
      "metric": [
        {"x": "e1", "y": "e1", "value": "1"},
        {"x": "e2", "y": "e2", "value": "1"},
        {"x": "e3", "y": "e3", "value": "1"}
      ]
    }

Scalars are exact rationals written as strings ("3", "-5/7"); plain JSON
integers are also accepted.  ``mode`` selects whether the structure is
given by Lie brackets (the connection is then derived from the metric) or
directly by connection coefficients under a key ``connection`` with the
same entry shape as ``brackets``.  Brackets are antisymmetrized and the
metric symmetrized; giving both orientations with inconsistent values is
an error.  Serialization is canonical: one orientation per pair, entries
sorted in basis order, values normalized.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .algebra import MODE_BRACKET, MODE_CONNECTION, AlgebraSpec
from .errors import InputFormatError
from .linalg import Mat, SymForm

_RATIONAL_RE = re.compile(r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")

_TOP_KEYS = {"name", "dim", "basis", "mode", "brackets", "connection", "metric"}


@dataclass(frozen=True)
class InputDocument:
    name: str
    spec: AlgebraSpec


def _fail(msg):
    raise InputFormatError(msg)


def parse_rational(value):
    if isinstance(value, bool):
        _fail(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            _fail(f"malformed rational {value!r} (want e.g. \"3\" or \"-5/7\")")
        try:
            return Fraction(value)
        except ValueError as exc:   # more digits than int() converts
            _fail(f"number too long: {exc}")
    _fail(f"not a rational scalar: {value!r}")


def _want(obj, key, types, what):
    if key not in obj:
        _fail(f"missing key {key!r}")
    v = obj[key]
    if not isinstance(v, types):
        _fail(f"{what}: bad type for {key!r}")
    return v


def _entry_pair(entry, index, what):
    if not isinstance(entry, dict) or set(entry) != {"x", "y", "value"}:
        _fail(f"{what} entry must be an object with keys x, y, value")
    x, y = entry["x"], entry["y"]
    if not (isinstance(x, str) and isinstance(y, str)):
        _fail(f"{what} entry names must be strings")
    if x not in index or y not in index:
        _fail(f"{what} entry uses unknown basis name {x!r} or {y!r}")
    return index[x], index[y]


def parse_document(obj) -> InputDocument:
    if not isinstance(obj, dict):
        _fail("document must be a JSON object")
    extra = set(obj) - _TOP_KEYS
    if extra:
        _fail(f"unknown keys: {sorted(extra)}")
    name = _want(obj, "name", str, "document")
    dim = _want(obj, "dim", int, "document")
    if isinstance(dim, bool) or dim < 1:
        _fail("dim must be a positive integer")
    basis = _want(obj, "basis", list, "document")
    if len(basis) != dim or not all(isinstance(b, str) and b for b in basis):
        _fail("basis must list exactly dim nonempty names")
    if len(set(basis)) != dim:
        _fail("basis names must be distinct")
    mode = _want(obj, "mode", str, "document")
    if mode not in (MODE_BRACKET, MODE_CONNECTION):
        _fail(f"mode must be {MODE_BRACKET!r} or {MODE_CONNECTION!r}")
    table_key = "brackets" if mode == MODE_BRACKET else "connection"
    other_key = "connection" if mode == MODE_BRACKET else "brackets"
    if other_key in obj:
        _fail(f"mode {mode!r} forbids key {other_key!r}")
    entries = _want(obj, table_key, list, "document")
    metric_entries = _want(obj, "metric", list, "document")

    index = {b: i for i, b in enumerate(basis)}
    n = dim

    table = [[None] * n for _ in range(n)]
    for entry in entries:
        i, j = _entry_pair(entry, index, table_key)
        val = entry["value"]
        if not isinstance(val, dict):
            _fail(f"{table_key} value must map basis names to rationals")
        v = [Fraction(0)] * n
        for cname, cval in val.items():
            if cname not in index:
                _fail(f"{table_key} value uses unknown basis name {cname!r}")
            v[index[cname]] = parse_rational(cval)
        if table[i][j] is not None and table[i][j] != v:
            _fail(f"conflicting {table_key} entries for "
                  f"({basis[i]}, {basis[j]})")
        table[i][j] = v

    zero = (Fraction(0),) * n
    if mode == MODE_BRACKET:
        # fill the lower half by negation, watching for inconsistent double
        # entries
        for i in range(n):
            if table[i][i] is not None and any(x != 0 for x in table[i][i]):
                _fail(f"nonzero bracket of {basis[i]} with itself")
            table[i][i] = zero
            for j in range(i + 1, n):
                a, b = table[i][j], table[j][i]
                if a is not None and b is not None:
                    if any(x + y != 0 for x, y in zip(a, b)):
                        _fail(f"bracket entries for ({basis[i]}, {basis[j]}) "
                              f"are not antisymmetric")
                elif a is None:
                    a = zero if b is None else tuple(-x for x in b)
                table[i][j] = a
                table[j][i] = tuple(-x for x in a) if any(a) else zero
    rows = tuple(zero if v is None else tuple(v) for r in table for v in r)

    gram = [[None] * n for _ in range(n)]
    for entry in metric_entries:
        i, j = _entry_pair(entry, index, "metric")
        v = parse_rational(entry["value"])
        for a, b in ((i, j), (j, i)):
            if gram[a][b] is not None and gram[a][b] != v:
                _fail(f"conflicting metric entries for "
                      f"({basis[a]}, {basis[b]})")
            gram[a][b] = v
    gram_filled = [[gram[i][j] if gram[i][j] is not None else Fraction(0)
                    for j in range(n)] for i in range(n)]

    form = SymForm(Mat.from_rows(gram_filled, n))
    table = Mat(rows, (n * n, n))   # row i·n + j is the entry for (i, j)
    try:
        if mode == MODE_BRACKET:
            spec = AlgebraSpec(n, tuple(basis), table, form)
        else:
            spec = AlgebraSpec.from_connection(basis, table, form)
    except ValueError as exc:
        _fail(str(exc))
    return InputDocument(name=name, spec=spec)


def parse_string(text: str) -> InputDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc}")
    except ValueError as exc:   # an integer with more digits than int() converts
        _fail(f"number too long: {exc}")
    return parse_document(obj)


def load_path(path) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}")
    return parse_string(text)


def table_entries(names, table: Mat, indices):
    """The sparse entries of a table's Mat, for each index tuple (i, j) or
    (i, j, k) in `indices` whose row (i·n + j, or (i·n + j)·n + k) is
    nonzero: {"x": names[i], "y": names[j], ["z": names[k],] "value":
    {name: rational}}.  Read off the image; a Fraction is built only for
    a printed coordinate."""
    n = table.ncols
    d, rows = table.image()
    out = []
    for idx in indices:
        r = rows[reduce(lambda a, b: a * n + b, idx)]
        if any(r):
            entry = {key: names[i] for key, i in zip("xyz", idx)}
            entry["value"] = {names[k]: str(Fraction(x, d))
                              for k, x in enumerate(r) if x}
            out.append(entry)
    return out


def serialize_document(name: str, spec: AlgebraSpec) -> dict:
    n = spec.dim
    names = list(spec.basis_names)
    bracket = spec.mode == MODE_BRACKET
    key, table = (("brackets", spec.bracket_table) if bracket
                  else ("connection", spec.connection_table))
    # one orientation per bracket pair, every pair of a connection table
    pairs = ((i, j) for i in range(n) for j in range(i + 1 if bracket else 0, n))
    return {
        "name": name,
        "dim": n,
        "basis": names,
        "mode": spec.mode,
        key: table_entries(names, table, pairs),
        "metric": [
            {"x": names[i], "y": names[j], "value": str(spec.gram.entries[i][j])}
            for i in range(n) for j in range(i, n)
            if spec.gram.entries[i][j] != 0
        ],
    }


def dumps_document(name: str, spec: AlgebraSpec) -> str:
    return json.dumps(serialize_document(name, spec), indent=2) + "\n"
