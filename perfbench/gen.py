"""Seeded inputs for the benchmark workloads.

Every input is an algebra document written with ``dumps_document``.  The
only source of randomness is ``random.Random(seed)``, so a seed always gives
the same files.

* ``catalog-shipped``: the catalog entries exactly as shipped.
* ``catalog-generic``: the same entries after a change of basis whose
  entries are drawn from [-2, 2].
* ``family-ladder``: orthogonal sums of so(3), so(3)⊗Q(√2) and so(3)⊗Q(√3)
  in block-diagonal basis, each block with a seeded rational metric scale.
"""

import random
from fractions import Fraction

from metriclie import (AlgebraSpec, catalog_get, catalog_list,
                       dumps_document, serialize_document)

# Ladder rungs: (name, blocks); a block is None for so(3) or d for so(3)⊗Q(√d).
LADDER = (
    ("so3_so3", (None, None)),
    ("so3q2_so3", (2, None)),
    ("so3q2_so3q3", (2, 3)),
)


def _dense(doc):
    """(names, mode, table, gram) of a serialized document, as Fractions."""
    names = doc["basis"]
    n = len(names)
    idx = {b: i for i, b in enumerate(names)}
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for e in doc["brackets" if doc["mode"] == "bracket" else "connection"]:
        i, j = idx[e["x"]], idx[e["y"]]
        for c, v in e["value"].items():
            table[i][j][idx[c]] = Fraction(v)
            if doc["mode"] == "bracket":
                table[j][i][idx[c]] = -Fraction(v)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for e in doc["metric"]:
        i, j = idx[e["x"]], idx[e["y"]]
        gram[i][j] = gram[j][i] = Fraction(e["value"])
    return names, doc["mode"], table, gram


def _spec(names, mode, table, gram):
    n = len(names)
    pairs = [(i, j) for i in range(n) for j in range(n)
             if mode == "connection" or i < j]
    entries = {(names[i], names[j]): {names[c]: x
                                      for c, x in enumerate(table[i][j]) if x}
               for i, j in pairs if any(table[i][j])}
    metric = {(names[i], names[j]): gram[i][j]
              for i in range(n) for j in range(i, n) if gram[i][j]}
    if mode == "connection":
        return AlgebraSpec.build(names, connection=entries, metric=metric)
    return AlgebraSpec.build(names, brackets=entries, metric=metric)


def _inverse(p):
    """Inverse of a square Fraction matrix, or None if it is singular."""
    n = len(p)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for c in range(n):
        r = next((r for r in range(c, n) if a[r][c]), None)
        if r is None:
            return None
        a[c], a[r] = a[r], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _basis_change(names, mode, table, gram, rng):
    """The structure on the basis whose vectors are the rows of a random
    invertible matrix p with entries in [-2, 2]."""
    n = len(names)
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        pinv = _inverse(p)
        if pinv is not None:
            break

    def image(i, j):
        old = [sum(p[i][a] * p[j][b] * table[a][b][k]
                   for a in range(n) if p[i][a]
                   for b in range(n) if p[j][b]) for k in range(n)]
        return [sum(old[a] * pinv[a][k] for a in range(n)) for k in range(n)]

    new_table = [[image(i, j) for j in range(n)] for i in range(n)]
    new_gram = [[sum(p[i][a] * gram[a][b] * p[j][b]
                     for a in range(n) for b in range(n))
                 for j in range(n)] for i in range(n)]
    return names, mode, new_table, new_gram


def _block(d, scale, prefix):
    """so(3) (d None) or so(3)⊗Q(√d) with scale times its trace form."""
    names = [f"{prefix}e{i}" for i in (1, 2, 3)]
    if d is not None:
        names += [f"{prefix}f{i}" for i in (1, 2, 3)]
    n = len(names)
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        prods = [(i, j, k, 1)]
        if d is not None:   # f = √d·e
            prods += [(i, j + 3, k + 3, 1), (i + 3, j, k + 3, 1),
                      (i + 3, j + 3, k, d)]
        for a, b, c, v in prods:
            table[a][b][c] = Fraction(v)
            table[b][a][c] = -Fraction(v)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * scale * (d if i >= 3 else 1)
    return names, table, gram


def _direct_sum(blocks):
    names = [b for bn, _, _ in blocks for b in bn]
    n = len(names)
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    gram = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for bn, bt, bg in blocks:
        m = len(bn)
        for i in range(m):
            for j in range(m):
                gram[off + i][off + j] = bg[i][j]
                for k in range(m):
                    table[off + i][off + j][off + k] = bt[i][j][k]
        off += m
    return names, "bracket", table, gram


def _scale(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))


def generate(workload, seed):
    """List of (name, document text, facts) for a workload and seed.

    ``facts`` holds what every output must show whatever the seed: the
    catalog's expected record, or the block dimensions of a ladder rung."""
    rng = random.Random(seed)
    out = []
    if workload == "family-ladder":
        for name, kinds in LADDER:
            blocks = [_block(d, _scale(rng), f"b{k}")
                      for k, d in enumerate(kinds)]
            spec = _spec(*_direct_sum(blocks))
            out.append((name, dumps_document(name, spec),
                        {"factor_dims": sorted(len(b[0]) for b in blocks)}))
        return out
    for name in catalog_list():
        entry = catalog_get(name)
        doc = entry.load()
        if workload == "catalog-generic":
            dense = _basis_change(*_dense(serialize_document(name, doc.spec)),
                                  rng)
            text = dumps_document(doc.name, _spec(*dense))
        else:
            text = dumps_document(doc.name, doc.spec)
        out.append((name, text, dict(entry.expected)))
    return out
