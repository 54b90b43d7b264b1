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

Scalars are exact rationals written as strings ("3", "-5/7", matched in
full); plain JSON integers are also accepted.  ``mode`` selects whether
the structure is given by Lie brackets (the connection is then derived
from the metric) or directly by connection coefficients under a key
``connection`` with the same entry shape as ``brackets``.  Brackets are
antisymmetrized and the metric symmetrized; giving both orientations with
inconsistent values is an error.  Serialization is canonical: one
orientation per pair, entries sorted in basis order, values normalized.

Rationals cross this boundary as integers.  The parse reads each scalar
into its reduced pair (p, q) (`_ratio`), compares duplicate entries on
those pairs, which are equal exactly when the rationals are, and hands
over each table as the integer image of a `linalg.Mat` over the lcm of
its denominators.  Every printed number is formatted from an image entry
(x, D) by `format_ratio`, as str(Fraction(x, D)) would give it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import reduce

from .algebra import MODE_BRACKET, MODE_CONNECTION, AlgebraSpec
from .errors import InputFormatError, PreconditionError
from .linalg import Mat, SymForm, _over_lcm

_RATIONAL_RE = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")

_TOP_KEYS = {"name", "dim", "basis", "mode", "brackets", "connection", "metric"}


@dataclass(frozen=True)
class InputDocument:
    name: str
    spec: AlgebraSpec


def _fail(msg):
    raise InputFormatError(msg)


def _ratio(value):
    """(p, q), the reduced pair (q > 0) of a scalar: a JSON integer, or a
    string "p" or "p/q" in the grammar of `_RATIONAL_RE`, matched in full.
    Reduced pairs are equal exactly when their rationals are."""
    if isinstance(value, str):
        m = _RATIONAL_RE.fullmatch(value)
        if m is None:
            _fail(f"malformed rational {value!r} (want e.g. \"3\" or \"-5/7\")")
        num, den = m.groups()
        try:
            p = int(num)
            if den is None:
                return p, 1
            q = int(den)
        except ValueError as exc:   # more digits than int() converts
            _fail(f"number too long: {exc}")
        g = math.gcd(p, q)
        return (p, q) if g == 1 else (p // g, q // g)
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    _fail(f"not a rational scalar: {value!r}")


def _minus(v):
    return tuple((-p, q) for p, q in v)


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
    zero = ((0, 1),) * n

    # entry i·n + j: the reduced pairs of T_ij, None until given
    table = [None] * (n * n)
    for entry in entries:
        i, j = _entry_pair(entry, index, table_key)
        val = entry["value"]
        if not isinstance(val, dict):
            _fail(f"{table_key} value must map basis names to rationals")
        v = list(zero)
        for cname, cval in val.items():
            if cname not in index:
                _fail(f"{table_key} value uses unknown basis name {cname!r}")
            v[index[cname]] = _ratio(cval)
        v = tuple(v)
        if table[i * n + j] not in (None, v):
            _fail(f"conflicting {table_key} entries for "
                  f"({basis[i]}, {basis[j]})")
        table[i * n + j] = v

    if mode == MODE_BRACKET:
        # fill the lower half by negation, watching for inconsistent double
        # entries
        for i in range(n):
            if table[i * n + i] not in (None, zero):
                _fail(f"nonzero bracket of {basis[i]} with itself")
            for j in range(i + 1, n):
                a, b = table[i * n + j], table[j * n + i]
                if a is None:
                    a = zero if b is None else _minus(b)
                elif b is not None and b != _minus(a):
                    _fail(f"bracket entries for ({basis[i]}, {basis[j]}) "
                          f"are not antisymmetric")
                table[i * n + j], table[j * n + i] = a, _minus(a)

    gram = [[None] * n for _ in range(n)]
    for entry in metric_entries:
        i, j = _entry_pair(entry, index, "metric")
        v = _ratio(entry["value"])
        for a, b in ((i, j), (j, i)):
            if gram[a][b] not in (None, v):
                _fail(f"conflicting metric entries for "
                      f"({basis[a]}, {basis[b]})")
            gram[a][b] = v

    form = SymForm(Mat.from_image(
        *_over_lcm([[v or (0, 1) for v in r] for r in gram]), (n, n)))
    # row i·n + j is the entry for (i, j)
    table = Mat.from_image(*_over_lcm([v or zero for v in table]), (n * n, n))
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
    except RecursionError:
        _fail("invalid JSON: nested too deeply")
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


def format_ratio(x, d):
    """The string str(Fraction(x, d)) gives, for ints x and d > 0: "p" or
    "p/q" in lowest terms, from one gcd.  A numerator or denominator with
    more digits than the interpreter converts to a string is a result that
    cannot be printed: PreconditionError."""
    g = math.gcd(x, d)
    try:
        return str(x // g) if g == d else f"{x // g}/{d // g}"
    except ValueError as exc:
        raise PreconditionError(f"number too long to print: {exc}") from None


def table_entries(names, table: Mat, indices):
    """The sparse entries of a table's Mat, for each index tuple (i, j) or
    (i, j, k) in `indices` whose row (i·n + j, or (i·n + j)·n + k) is
    nonzero: {"x": names[i], "y": names[j], ["z": names[k],] "value":
    {name: rational}}, formatted from the image."""
    n = table.ncols
    d, rows = table.image()
    out = []
    for idx in indices:
        r = rows[reduce(lambda a, b: a * n + b, idx)]
        if any(r):
            entry = {key: names[i] for key, i in zip("xyz", idx)}
            entry["value"] = {names[k]: format_ratio(x, d)
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
    d, g = spec.gram.image()
    return {
        "name": name,
        "dim": n,
        "basis": names,
        "mode": spec.mode,
        key: table_entries(names, table, pairs),
        "metric": [
            {"x": names[i], "y": names[j], "value": format_ratio(g[i][j], d)}
            for i in range(n) for j in range(i, n) if g[i][j]
        ],
    }


def dumps_document(name: str, spec: AlgebraSpec) -> str:
    return json.dumps(serialize_document(name, spec), indent=2) + "\n"
