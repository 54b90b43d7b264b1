"""Fraction oracles written from the definitions, so that tests check the
engine's integer kernels against sums they do not share with it."""

from fractions import Fraction
from itertools import product


def unit(n, i):
    """The standard basis vector e_i of Q^n."""
    return tuple(Fraction(int(j == i)) for j in range(n))


def mat_vec(rows, v):
    """m·v = (Σ_j m_ij v_j)_i for `rows` the entries of m."""
    return tuple(sum((x * y for x, y in zip(r, v) if x and y), Fraction(0))
                 for r in rows)


def pair(g, x, y):
    """xᵀGy = Σ_ij x_i G_ij y_j for `g` the entries of G."""
    return sum((Fraction(a) * g[i][j] * b for i, a in enumerate(x) if a
                for j, b in enumerate(y) if b), Fraction(0))


def table_at(rows, *vectors):
    """T(x, y, …) = Σ x_i y_j … T_ij… over the nonzero products of weights,
    for `rows` a table's entries, row (i·n + j)·n + … = T_ij…"""
    n = len(vectors[0])
    out = [Fraction(0)] * len(rows[0])
    for terms in product(*[[(i, x) for i, x in enumerate(v) if x]
                           for v in vectors]):
        r, w = 0, Fraction(1)
        for i, x in terms:
            r, w = r * n + i, w * x
        for k, b in enumerate(rows[r]):
            if b:
                out[k] += w * b
    return tuple(out)
