"""Property tests for the exact linear algebra kernel."""

import importlib
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from metriclie import connection_of, linalg
from metriclie.algebra import (
    ConnectionCoeffs,
    left_ops,
    nabla_apply,
    operator_basis,
    right_ops,
)
from metriclie.catalog import catalog_get
from metriclie.decompose import commutant
from metriclie.linalg import (
    Mat,
    RrefResult,
    Subspace,
    SymForm,
    congruent_diagonalize,
    independent_rows,
    int_image,
    kernel,
    minimal_polynomial,
    orthogonal_complement,
    poly_eval_mat,
    rat,
    rational_sqrt,
    row_apply,
    row_space,
    rref,
    solve,
    subspace_complement,
    subspace_intersect,
    subspace_sum,
    table_apply,
    table_pairs,
    unit_vec,
)
from metriclie.poly import (
    coprime_split,
    poly,
    poly_deg,
    poly_mul,
    poly_xgcd,
    rational_roots,
    squarefree_decomposition,
)
from test_algebra import random_spec

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def mats(nmax=4, square=False):
    def build(draw):
        n = draw(st.integers(1, nmax))
        m = n if square else draw(st.integers(1, nmax))
        rows = draw(st.lists(st.lists(fractions, min_size=m, max_size=m),
                             min_size=n, max_size=n))
        return Mat.from_rows(rows, m)
    return st.composite(build)()


def shaped_mats(nmax=4, nrows=None, ncols=None):
    """Matrices of every shape up to nmax × nmax, 0 rows and 0 columns
    included, with many zero entries; nrows or ncols fixes that size."""
    def build(draw):
        r = draw(st.integers(0, nmax)) if nrows is None else nrows
        c = draw(st.integers(0, nmax)) if ncols is None else ncols
        entry = st.one_of(st.just(Fraction(0)), fractions)
        rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                             min_size=r, max_size=r))
        return Mat.from_rows(rows, c)
    return st.composite(build)()


def square_mats(nmax=4):
    """Square matrices n × n, 0 ≤ n ≤ nmax: sparse ones (mostly singular)
    and dense ones (mostly invertible)."""
    return st.one_of(
        st.integers(0, nmax).flatmap(lambda n: shaped_mats(nmax, n, n)),
        mats(nmax, square=True))


def _rref_oracle(m: Mat) -> RrefResult:
    """Fraction Gauss–Jordan on m, carrying the transform along."""
    nr, nc = m.shape
    rows = [list(r) for r in m.entries]
    t = [[Fraction(1 if i == j else 0) for j in range(nr)] for i in range(nr)]
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        t[r], t[p] = t[p], t[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        t[r] = [x * inv for x in t[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                t[i] = [a - f * b for a, b in zip(t[i], t[r])]
        pivots.append(c)
        r += 1
    return RrefResult(Mat.from_rows(rows, nc), r, Mat.from_rows(t, nr), tuple(pivots))


def _check_image(m, want_rows=None):
    """m's image is canonical (D > 0, gcd(D, entries) = 1); given the
    Fraction rows of its value, its entries are those rows, and it equals,
    with the same hash, the Mat built from them."""
    d, a = m.image()
    assert d > 0 and math.gcd(d, *(x for r in a for x in r)) == 1
    if want_rows is not None:
        assert m.entries == tuple(tuple(r) for r in want_rows)
        built = Mat.from_rows(want_rows, m.ncols)
        assert m == built and hash(m) == hash(built)


def subspaces(n):
    vecs = st.lists(st.lists(fractions, min_size=n, max_size=n),
                    min_size=0, max_size=n + 1)
    return vecs.map(lambda vs: Subspace.from_vectors(n, vs))


@given(mats())
@settings(max_examples=60, deadline=None)
def test_rref_is_idempotent(m):
    r1 = rref(m)
    r2 = rref(r1.matrix)
    assert r1.matrix == r2.matrix
    assert r1.pivots == r2.pivots


@given(shaped_mats())
@settings(max_examples=80, deadline=None)
def test_rref_matches_the_gauss_jordan_oracle(m):
    res, want = rref(m), _rref_oracle(m)
    assert res.matrix == want.matrix
    _check_image(res.matrix, want.matrix.entries)
    _check_image(res.transform)
    assert res.rank == want.rank == m.rank()
    assert res.pivots == want.pivots
    assert res.transform.shape == (m.nrows, m.nrows)
    assert res.transform @ m == res.matrix
    assert _rref_oracle(res.transform).rank == m.nrows


@given(square_mats())
@settings(max_examples=80, deadline=None)
def test_inverse_matches_the_gauss_jordan_oracle(m):
    want = _rref_oracle(m)
    if want.rank < m.nrows:
        with pytest.raises(ValueError, match="matrix is singular"):
            m.inverse()
        return
    inv = m.inverse()
    assert inv == want.transform
    _check_image(inv, want.transform.entries)
    assert m @ inv == Mat.identity(m.nrows)


@given(mats())
@settings(max_examples=60, deadline=None)
def test_rank_agrees_with_transpose(m):
    assert m.rank() == m.transpose().rank()


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    subspaces(n), subspaces(n))))
@settings(max_examples=60, deadline=None)
def test_dimension_formula(pair):
    a, b = pair
    s = subspace_sum(a, b)
    i = subspace_intersect(a, b)
    assert s.dim + i.dim == a.dim + b.dim
    assert s.contains_subspace(a) and s.contains_subspace(b)
    assert a.contains_subspace(i) and b.contains_subspace(i)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), subspaces(n))))
@settings(max_examples=60, deadline=None)
def test_complement_is_direct(pair):
    n, a = pair
    c = subspace_complement(a)
    assert subspace_intersect(a, c).dim == 0
    assert subspace_sum(a, c) == Subspace.full(n)


@st.composite
def nondeg_with_subspace(draw):
    n = draw(st.integers(1, 4))
    # shear the identity: determinant stays 1, so the congruence transform
    # of a +/-1 diagonal is always nondegenerate
    p = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        if i != j:
            for t in range(n):
                p[i][t] += c * p[j][t]
    pm = Mat.from_rows(p, n)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    d = Mat.from_rows([[Fraction(signs[i] if i == j else 0)
                        for j in range(n)] for i in range(n)], n)
    return SymForm(pm @ d @ pm.transpose()), draw(subspaces(n))


@given(nondeg_with_subspace())
@settings(max_examples=40, deadline=None)
def test_double_orthocomplement(pair):
    form, h = pair
    hpp = orthogonal_complement(orthogonal_complement(h, form), form)
    assert hpp == h
    assert h.dim + orthogonal_complement(h, form).dim == h.ambient_dim


@st.composite
def sym_forms(draw):
    """Symmetric forms up to 5 × 5 with many zero entries, so that most
    are degenerate; half have a zero diagonal (hyperbolic planes and their
    degenerations), and the rest often a zero diagonal entry before a
    nonzero one, so the swap and the row-sum steps both run."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)), fractions)
    zero_diagonal = draw(st.booleans())
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            g[i][j] = g[j][i] = draw(entry)
    return SymForm(Mat.from_rows(g, n))


def _form(rows):
    return SymForm(Mat.from_rows(rows, len(rows)))


# a hyperbolic plane; zero diagonal at every size; the zero form; and a
# form whose rows 1 and 2 are scaled 3 and 2 by the first step before they
# are added (their diagonals are then zero)
_SPECIAL_FORMS = (
    _form([[0, 1], [1, 0]]),
    _form([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    _form([[0, 0], [0, 0]]),
    _form([[6, 2, 3], [2, Fraction(2, 3), 2], [3, 2, Fraction(3, 2)]]),
)
sym_or_nondeg_forms = st.one_of(
    nondeg_with_subspace().map(lambda pair: pair[0]), sym_forms())


def _with_special_forms(test):
    for form in _SPECIAL_FORMS:
        test = example(form)(test)
    return test


def _congruent_oracle(form):
    """Symmetric Gaussian elimination over Q on the rows of P, from the
    identity: at step i, swap in the first later row with a nonzero
    diagonal, or else add the first later row that pairs with row i, then
    clear column i below it.  Returns (rows of P, diagonal of P·G·Pᵀ)."""
    n = form.dim
    g = [list(r) for r in form.gram.entries]
    p = [[Fraction(int(j == i)) for j in range(n)] for i in range(n)]

    def add_row_col(dst, src, f):
        g[dst] = [a + f * b for a, b in zip(g[dst], g[src])]
        for k in range(n):
            g[k][dst] = g[k][dst] + f * g[k][src]
        p[dst] = [a + f * b for a, b in zip(p[dst], p[src])]

    def swap(i, j):
        g[i], g[j] = g[j], g[i]
        for k in range(n):
            g[k][i], g[k][j] = g[k][j], g[k][i]
        p[i], p[j] = p[j], p[i]

    for i in range(n):
        if g[i][i] == 0:
            j = next((j for j in range(i + 1, n) if g[j][j] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                j = next((j for j in range(i + 1, n) if g[i][j] != 0), None)
                if j is not None:
                    add_row_col(i, j, Fraction(1))
        d = g[i][i]
        if d == 0:
            continue
        for j in range(i + 1, n):
            if g[j][i] != 0:
                add_row_col(j, i, -g[j][i] / d)
    return p, [g[i][i] for i in range(n)]


@_with_special_forms
@given(sym_or_nondeg_forms)
@settings(max_examples=40, deadline=None)
def test_diagonalization_is_congruent(form):
    dg = congruent_diagonalize(form)
    b = dg.basis_change
    prod = b @ form.gram @ b.transpose()
    n = form.dim
    for i in range(n):
        for j in range(n):
            assert prod.entries[i][j] == (dg.diagonal[i] if i == j else 0)
    pos, neg, zero = dg.signature
    assert pos == sum(1 for d in dg.diagonal if d > 0)
    assert neg == sum(1 for d in dg.diagonal if d < 0)
    assert zero == sum(1 for d in dg.diagonal if d == 0)
    assert zero == n - form.gram.rank()


@_with_special_forms
@given(sym_or_nondeg_forms)
@settings(max_examples=40, deadline=None)
def test_diagonalization_scales_the_fraction_oracle_positively(form):
    """Each row of P is primitive and k > 0 times the oracle's row, and
    its diagonal entry k² times the oracle's."""
    dg = congruent_diagonalize(form)
    d, rows = dg.basis_change.image()
    assert d == 1
    want_rows, want_diag = _congruent_oracle(form)
    for r, want, x, w in zip(rows, want_rows, dg.diagonal, want_diag):
        assert math.gcd(*r) == 1
        c = next(c for c, y in enumerate(want) if y)
        k = r[c] / want[c]
        assert k > 0 and list(r) == [k * y for y in want]
        assert x == k * k * w


@given(mats())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    k = kernel(m)
    assert k.dim == m.ncols - m.rank()
    for v in k.rows:
        assert all(x == 0 for x in m.apply(v))


@given(shaped_mats())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_the_rref_oracle(m):
    res = _rref_oracle(m)
    vecs = []
    for f in range(m.ncols):
        if f in res.pivots:
            continue
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for row, p in zip(res.matrix.entries, res.pivots):
            v[p] = -row[f]
        vecs.append(v)
    assert kernel(m) == Subspace.from_vectors(m.ncols, vecs)


@given(st.integers(0, 4).flatmap(
    lambda k: st.tuples(shaped_mats(ncols=k), shaped_mats(nrows=k))))
@settings(max_examples=80, deadline=None)
def test_matmul_matches_the_triple_sum(pair):
    a, b = pair
    want = tuple(
        tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.ncols)),
                  Fraction(0))
              for j in range(b.ncols))
        for i in range(a.nrows))
    prod = a @ b
    assert prod.shape == (a.nrows, b.ncols)
    assert prod.entries == want
    _check_image(prod, want)
    # row i of a·b is (row i of a)·b; column j is a·(column j of b)
    assert tuple(row_apply(a.row(i), b) for i in range(a.nrows)) == want
    assert tuple(a.apply(b.col(j)) for j in range(b.ncols)) == \
        tuple(tuple(r[j] for r in want) for j in range(b.ncols))


# Entries for the contraction kernel: ints, zeros of both types, negatives,
# and denominators that are large coprime primes or powers of 2, so that
# unreduced sums both share and lack common factors.
_PRIMES = (3, 7, 1_000_003, 998_244_353, 2 ** 61 - 1)
wide = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.sampled_from(_PRIMES)),
    st.builds(lambda k, e: Fraction(k, 2 ** e), st.integers(-99, 99),
              st.integers(0, 70)),
)


def _terms(n, m):
    """m coefficients with m vectors in Q^n."""
    return st.tuples(st.lists(wide, min_size=m, max_size=m),
                     st.lists(st.lists(wide, min_size=n, max_size=n),
                              min_size=m, max_size=m))


contractions = st.tuples(st.integers(0, 5), st.integers(0, 6)).flatmap(
    lambda nm: st.tuples(st.just(nm[0]), _terms(*nm)))


class _Recorder:
    """Stands in for Fraction inside linalg and records each (num, den)."""

    def __init__(self):
        self.calls = []

    def __call__(self, num=0, den=1):
        self.calls.append((num, den))
        return Fraction(num, den)


@given(contractions)
@example((3, ([], [])))
@example((2, ([Fraction(1, 2), Fraction(1, 4)], [[1, 0], [Fraction(1, 2), 0]])))
@settings(max_examples=150, deadline=None)
def test_row_apply_and_table_apply_match_the_fraction_sum(case):
    n, (coeffs, vectors) = case
    want = tuple(sum((Fraction(c) * Fraction(v[k]) for c, v in zip(coeffs, vectors)),
                     Fraction(0)) for k in range(n))
    m = Mat.from_rows(vectors, n)
    for got in (row_apply(coeffs, m), table_apply(m, coeffs)):
        assert got == want
        assert all(type(x) is Fraction for x in got)
    # bilinear, on the first k ≤ 3 terms: row a·k + b is vectors[(a + b) % k]
    k = min(len(vectors), 3)
    square = Mat.from_rows([vectors[(a + b) % k] for a in range(k)
                            for b in range(k)], n)
    assert table_apply(square, coeffs[:k], coeffs[:k]) == tuple(
        sum((Fraction(coeffs[a]) * Fraction(coeffs[b])
             * Fraction(vectors[(a + b) % k][j])
             for a in range(k) for b in range(k)), Fraction(0))
        for j in range(n))
    # each nonzero coordinate is built once, from the integer sums
    rec = _Recorder()
    with mock.patch.object(linalg, "Fraction", rec):
        assert row_apply(coeffs, m) == want
        assert table_apply(m, coeffs) == want
    assert len(rec.calls) == 2 * sum(1 for x in want if x)


@given(contractions)
@example((3, ([], [])))
@example((2, ([Fraction(1, 2), Fraction(1, 4)], [[1, 0], [Fraction(1, 2), 0]])))
@example((2, ([1, Fraction(1, 3)], [[1, 0], [0, Fraction(-2, 7)]])))   # a or b empty
@settings(max_examples=150, deadline=None)
def test_table_pairs_matches_the_fraction_sum(case):
    """Row p·l + q of table_pairs(t, a, b) is Σ_ij (a_p)_i (b_q)_j t_ij, for
    t the k² rows vectors[(i + j) % k] and a, b the two halves of the
    windows coeffs[p:p + k], either way round (so one of them may have no
    rows)."""
    n, (coeffs, vectors) = case
    k = min(len(vectors), 3)
    t = [vectors[(i + j) % k] for i in range(k) for j in range(k)]
    windows = [coeffs[p:p + k] for p in range(len(coeffs) - k + 1)]
    half = len(windows) // 2
    for a, b in ((windows[:half], windows[half:]), (windows[half:], windows[:half])):
        got = table_pairs(Mat.from_rows(t, n), Mat.from_rows(a, k), Mat.from_rows(b, k))
        assert got.shape == (len(a) * len(b), n)
        assert got.entries == tuple(tuple(
            sum((Fraction(x[i]) * Fraction(y[j]) * Fraction(t[i * k + j][c])
                 for i in range(k) for j in range(k)), Fraction(0))
            for c in range(n)) for x in a for y in b)
        assert all(type(x) is Fraction for r in got.entries for x in r)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(wide, min_size=n, max_size=n), st.lists(wide, min_size=n, max_size=n))))
@example(([], []))
@example(([Fraction(1, 2), Fraction(1, 4)], [1, 1]))
@settings(max_examples=150, deadline=None)
def test_pair_matches_the_fraction_sum(pair):
    """SymForm.pair is xᵀGy summed in Fractions, for the symmetric
    G = I + x·yᵀ + y·xᵀ, and builds one Fraction."""
    a, b = pair
    n = len(a)
    x, y = [Fraction(v) for v in a], [Fraction(v) for v in b]
    g = [[int(i == j) + x[i] * y[j] + x[j] * y[i] for j in range(n)]
         for i in range(n)]
    want = sum((x[i] * g[i][j] * y[j] for i in range(n) for j in range(n)),
               Fraction(0))
    form = SymForm(Mat.from_rows(g, n))
    got = form.pair(a, b)
    assert got == want and type(got) is Fraction
    rec = _Recorder()
    with mock.patch.object(linalg, "Fraction", rec):
        assert form.pair(a, b) == want
    assert len(rec.calls) == 1


@given(st.integers(0, 5).flatmap(
    lambda m: st.lists(st.lists(wide, min_size=m, max_size=m), max_size=6)))
@example([])
@example([[Fraction(1, 2), 0], [Fraction(0), Fraction(-2, 3)]])
@settings(max_examples=50, deadline=None)
def test_int_image_is_the_table_over_its_common_denominator(rows):
    m = Mat.from_rows(rows, len(rows[0]) if rows else 0)
    d, ints, nonzero = int_image(m)
    assert ints is m.image()[1]   # the Mat's kept image, not a new one
    assert d == math.lcm(1, *(Fraction(x).denominator for r in rows for x in r))
    assert all(type(x) is int for r in ints for x in r)
    assert [[Fraction(x, d) for x in r] for r in ints] == \
        [[Fraction(x) for x in r] for r in rows]
    assert nonzero == [[(k, x) for k, x in enumerate(r) if x] for r in ints]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_row_lowering_equals_the_gram_matrix_product(data):
    """For symmetric G, vᵀG read off the rows of G at v's nonzero
    coordinates (`row_apply`) equals G·v."""
    n = data.draw(st.integers(1, 5))
    entries = st.one_of(st.just(Fraction(0)), fractions)
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = data.draw(entries)
    gram = Mat.from_rows(g, n)
    v = tuple(data.draw(st.lists(entries, min_size=n, max_size=n)))
    assert row_apply(v, gram) == gram.apply(v)


def _reduce_oracle(sub, v):
    """The sequential-subtraction reduction: walk the canonical rows in
    order and subtract v's entry at each pivot times the row."""
    v = tuple(Fraction(x) for x in v)
    coords = []
    for row, p in zip(sub.rows, sub.pivots):
        c = v[p]
        coords.append(c)
        if c != 0:
            v = tuple(a - c * b for a, b in zip(v, row))
    return tuple(coords), v


@given(st.integers(1, 5).flatmap(subspaces))
@settings(max_examples=80, deadline=None)
def test_a_subspace_keeps_the_pivots_of_its_canonical_basis(sub):
    scanned = tuple(next(i for i, x in enumerate(r) if x) for r in sub.rows)
    assert sub.pivots == scanned
    direct = Subspace(sub.ambient_dim, sub.basis)
    assert direct == sub and direct.pivots == scanned
    assert Subspace.full(sub.ambient_dim).pivots == tuple(
        range(sub.ambient_dim))


@given(shaped_mats())
@settings(max_examples=80, deadline=None)
def test_independent_rows_pick_the_first_basis_of_the_row_space(m):
    kept = independent_rows(m.image()[1])
    for i in range(m.nrows):
        before = Mat.from_rows(m.entries[:i], m.ncols).rank()
        with_i = Mat.from_rows(m.entries[:i + 1], m.ncols).rank()
        assert (i in kept) == (with_i > before)
    assert len(kept) == m.rank()


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    subspaces(n), st.lists(wide, min_size=n, max_size=n))))
@settings(max_examples=150, deadline=None)
def test_subspace_reduce_matches_sequential_subtraction(case):
    sub, v = case
    coords, rem = sub.reduce(v)
    assert (coords, rem) == _reduce_oracle(sub, v)
    assert all(type(x) is Fraction for x in coords + rem)
    assert sub.contains(v) == all(x == 0 for x in rem)
    inside = sub.embed(coords)
    assert sub.contains(inside)
    # a Mat's rows at once: v, in or out, next to a row that is in
    for rows in ([], [inside], [inside, v], [v, inside]):
        m = Mat.from_rows(rows, len(v))
        assert sub.contains_rows(m) == all(sub.contains(r) for r in m.entries)


@given(st.integers(1, 4).flatmap(lambda c: st.lists(
    st.lists(wide, min_size=c, max_size=c), min_size=1, max_size=5)))
@settings(max_examples=100, deadline=None)
def test_integer_eliminations_match_the_oracle_on_wide_entries(rows):
    # large coprime and power-of-2 denominators make the pivot entries
    # differ, so every reduction step scales the row being reduced
    m = Mat.from_rows(rows)
    res, want = rref(m), _rref_oracle(m)
    assert res.matrix == want.matrix and res.pivots == want.pivots
    assert all(type(x) is Fraction for r in res.matrix.entries for x in r)
    assert res.transform @ m == res.matrix
    assert row_space(m) == Subspace(
        m.ncols, Mat.from_rows(want.matrix.entries[:want.rank], m.ncols))
    ker = kernel(m)
    assert ker.dim == m.ncols - want.rank
    assert all(m.apply(x) == (Fraction(0),) * m.nrows for x in ker.rows)


@given(mats(), st.lists(fractions, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_solve_solutions_check_out(m, b):
    b = tuple(b[:m.nrows]) + (Fraction(0),) * max(0, m.nrows - len(b))
    x = solve(m, b)
    if x is not None:
        assert m.apply(x) == tuple(b)


@given(mats(nmax=4, square=True))
@settings(max_examples=40, deadline=None)
def test_minimal_polynomial_annihilates(m):
    p = minimal_polynomial(m)
    assert poly_deg(p) >= 1
    assert p[-1] == 1  # monic
    z = poly_eval_mat(p, m)
    assert all(x == 0 for row in z.entries for x in row)


def _minimal_polynomial_oracle(op):
    """The first linear dependence among the flattened powers I, T, T², …"""
    n = op.nrows

    def flat(m):
        return tuple(x for row in m.entries for x in row)

    powers = [Mat.identity(n)]
    while True:
        target = flat(powers[-1] @ op)
        a = Mat.from_rows([flat(m) for m in powers], n * n).transpose()
        x = solve(a, target)
        if x is not None:
            return poly(tuple(-c for c in x) + (Fraction(1),))
        powers.append(powers[-1] @ op)


def _check_minimal_polynomial(m):
    p = minimal_polynomial(m)
    assert p == _minimal_polynomial_oracle(m)
    assert p[-1] == 1
    assert poly_eval_mat(p, m).is_zero()


def _int_square(n, lo=-3, hi=3):
    return st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                    min_size=n, max_size=n)


def _int_square_mats():
    """Integer matrices with n ≤ 5: general, nilpotent (strictly upper
    triangular), scalar, and a block repeated along the diagonal, each
    divided by a drawn denominator, so that the image denominator D of
    `minimal_polynomial` exceeds 1."""
    def integral(draw):
        kind = draw(st.sampled_from(("general", "nilpotent", "scalar",
                                     "repeated")))
        if kind == "repeated":
            k = draw(st.integers(1, 2))
            copies = draw(st.integers(2, 5 // k))
            block = draw(_int_square(k))
            n = k * copies
            rows = [[block[i % k][j % k] if i // k == j // k else 0
                     for j in range(n)] for i in range(n)]
            return Mat.from_rows(rows, n)
        n = draw(st.integers(1, 5))
        if kind == "scalar":
            c = draw(st.integers(-3, 3))
            return Mat.identity(n).scale(c)
        rows = draw(_int_square(n))
        if kind == "nilpotent":
            rows = [[x if j > i else 0 for j, x in enumerate(r)]
                    for i, r in enumerate(rows)]
        return Mat.from_rows(rows, n)

    def build(draw):
        m = integral(draw)
        return m.scale(Fraction(1, draw(st.integers(1, 4))))
    return st.composite(build)()


@given(_int_square_mats())
@settings(max_examples=120, deadline=None)
def test_minimal_polynomial_matches_the_powers_oracle(m):
    _check_minimal_polynomial(m)


def _commutant_oracle(conn):
    """Every operator entry added into every constraint row, zero or not."""
    n = conn.dim
    ops = [m for m in left_ops(conn) + right_ops(conn) if not m.is_zero()]
    rows = []
    for m in ops:
        me = m.entries
        for a in range(n):
            for b in range(n):
                row = [Fraction(0)] * (n * n)
                for c in range(n):
                    row[a * n + c] += me[c][b]
                    row[c * n + b] -= me[a][c]
                if any(x != 0 for x in row):
                    rows.append(row)
    if rows:
        sol = kernel(Mat.from_rows(rows, n * n))
    else:
        sol = Subspace.full(n * n)
    return tuple(Mat.from_rows([r[i * n:(i + 1) * n] for i in range(n)], n)
                 for r in sol.rows)


def test_commutant_matches_the_dense_oracle(shipped_and_generic):
    for label, _, conn in shipped_and_generic:
        assert commutant(conn) == _commutant_oracle(conn), label


def _counting(monkeypatch, name):
    """Count the calls commutant makes to a helper of its module."""
    module = importlib.import_module("metriclie.decompose")
    inner = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def _sparse_connection(n, entries):
    """Raw Γ table with Γ_ij = entries[i, j] and zero elsewhere."""
    zero = (Fraction(0),) * n
    return ConnectionCoeffs(Mat.from_rows(
        [entries.get((i, j), zero) for i in range(n) for j in range(n)], n))


def test_commutant_of_dimension_one_is_everything(monkeypatch):
    # both 1×1 operators are nonzero, and every commutator vanishes
    conn = _sparse_connection(1, {(0, 0): (Fraction(3),)})
    kernels = _counting(monkeypatch, "_kernel_ints")
    assert commutant(conn) == _commutant_oracle(conn) == (Mat.identity(1),)
    assert kernels == []


def test_commutant_of_zero_operators_is_all_matrices():
    conn = _sparse_connection(3, {})
    comm = commutant(conn)
    assert comm == _commutant_oracle(conn)
    assert Subspace.from_vectors(
        9, [sum(a.entries, ()) for a in comm]) == Subspace.full(9)


def test_commutant_of_a_single_operator(monkeypatch):
    # Γ_00 = e1 alone: ∇_{e0} and ∇_{·}e0 are the same operator, e0 ↦ e1,
    # so the second system is zero on the first one's solution
    conn = _sparse_connection(3, {(0, 0): (0, 1, 0)})
    nonzero = [m for m in left_ops(conn) + right_ops(conn) if not m.is_zero()]
    assert len(nonzero) == 2 and nonzero[0] == nonzero[1]
    kernels = _counting(monkeypatch, "_kernel_ints")
    assert commutant(conn) == _commutant_oracle(conn)
    assert len(kernels) == 1


def test_commutant_stops_once_it_reaches_the_scalars(loaded, monkeypatch):
    # ∇_{e1} and ∇_{e2} of so(3) already leave only Q·I: four of the six
    # operators are never read
    _, conn = loaded["so3_killing_neg"]
    rows = _counting(monkeypatch, "_commutator_rows")
    assert commutant(conn) == _commutant_oracle(conn) == (Mat.identity(3),)
    assert len(rows) == 2


@given(random_spec())
@settings(max_examples=30, deadline=None)
def test_commutant_matches_the_dense_oracle_on_random_tables(spec):
    conn = connection_of(spec)
    assert commutant(conn) == _commutant_oracle(conn)


@st.composite
def raw_connections(draw):
    """Raw Γ tables, n ≤ 4, most entries zero: no torsion or compatibility,
    so the L_i and R_j are unrelated and often dependent."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions)
    return ConnectionCoeffs(Mat.from_rows(   # row i·n + j = Γ_ij
        [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n * n)],
        n))


@given(raw_connections())
@settings(max_examples=30, deadline=None)
def test_commutant_matches_the_dense_oracle_on_raw_tables(conn):
    assert commutant(conn) == _commutant_oracle(conn)


def test_the_commutant_imposes_one_operator_per_basis_element(
        loaded, so3_over_fields, monkeypatch):
    """On bi-invariant structures R_j = −L_j, so the operator basis has
    r = n elements and the commutant reads at most n commutator systems,
    not 2n: so3 ⊕ so3 and the n = 12 block ladder rung
    so(3)⊗Q(√2) ⊕ so(3)⊗Q(√3)."""
    for conn in (loaded["so3_x_so3"][1],
                 connection_of(so3_over_fields(2, 3))):
        n = conn.dim
        left, right = operator_basis(conn)
        assert (len(left), len(right)) == (n, 0)
        rows = _counting(monkeypatch, "_commutator_rows")
        assert commutant(conn) == _commutant_oracle(conn)
        assert 0 < len(rows) <= n
        monkeypatch.undo()


def test_commutant_of_a_field_block_in_a_generic_basis(rebased,
                                                       so3_over_fields):
    spec = rebased(so3_over_fields(2))
    conn = connection_of(spec)
    comm = commutant(conn)
    assert comm == _commutant_oracle(conn)
    assert len(comm) == 2   # the centroid Q(√2)


def test_commutant_of_the_twelve_dimensional_generic_sum(rebased,
                                                         so3_over_fields):
    """so(3)⊗Q(√2) ⊕ so(3)⊗Q(√3) in a generic basis: the centroid
    Q(√2) × Q(√3).  A guard on cost too: solved one operator at a time this
    takes about a second, and as one system of all 24 operators' conditions
    it takes minutes."""
    spec = rebased(so3_over_fields(2, 3))
    conn = connection_of(spec)
    comm = commutant(conn)
    assert len(comm) == 4
    flat = Subspace.from_vectors(144, [sum(a.entries, ()) for a in comm])
    assert flat.contains(sum(Mat.identity(12).entries, ()))
    ops = left_ops(conn) + right_ops(conn)
    assert len(ops) == 24
    for a in comm:
        for m in ops:
            assert a @ m == m @ a


@given(shaped_mats())
@settings(max_examples=60, deadline=None)
def test_kernel_ints_are_integral_annihilating_and_span_the_kernel(m):
    vecs = linalg._kernel_ints(m.image()[1], m.ncols)
    for v in vecs:
        assert all(type(x) is int for x in v)
        assert all(sum(x * y for x, y in zip(r, v)) == 0 for r in m.entries)
    span = Subspace.from_vectors(m.ncols, vecs)
    assert len(vecs) == span.dim == m.ncols - m.rank()
    assert span == kernel(m)


def _kernel_ints_dense(rows, ncols):
    """The dense back-substitution: each pivot coordinate solved from its
    integer echelon row by a sum over every column right of the pivot."""
    basis = linalg._echelon(rows, ncols)
    pivset = {p for p, _, _ in basis}
    vecs = []
    for f in range(ncols):
        if f in pivset:
            continue
        x = [0] * ncols
        x[f] = 1
        for p, row, _ in reversed(basis):
            s = sum(row[j] * x[j] for j in range(p + 1, ncols))
            if s:
                g = math.gcd(s, row[p])
                if g != row[p]:
                    x = [v * (row[p] // g) for v in x]
                x[p] = -s // g
        vecs.append(x)
    return vecs


def sparse_int_systems(nmax=7):
    """Integer matrices up to nmax × nmax, most entries 0, so the echelon
    rows have gaps right of their pivots."""
    def build(draw):
        r = draw(st.integers(0, nmax))
        c = draw(st.integers(0, nmax))
        entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 5))
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                             min_size=r, max_size=r)), c
    return st.composite(build)()


@given(sparse_int_systems())
@settings(max_examples=80, deadline=None)
def test_kernel_ints_match_the_dense_back_substitution(system):
    rows, ncols = system
    vecs = linalg._kernel_ints(rows, ncols)
    assert vecs == _kernel_ints_dense(rows, ncols)
    for v in vecs:
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)


def test_minimal_polynomial_matches_the_oracle_on_commutants(
        shipped_and_generic):
    for _, _, conn in shipped_and_generic:
        comm = commutant(conn)
        for a in comm:
            _check_minimal_polynomial(a)
        for i in range(len(comm)):
            for j in range(i + 1, len(comm)):
                _check_minimal_polynomial(comm[i] + comm[j])


@given(mats(nmax=4, square=True))
@settings(max_examples=30, deadline=None)
def test_coprime_split_multiplies_back(m):
    p = minimal_polynomial(m)
    parts = coprime_split(p)
    prod = (Fraction(1),)
    for q in parts:
        prod = poly_mul(prod, q)
    assert prod == p
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            g, _, _ = poly_xgcd(parts[i], parts[j])
            assert poly_deg(g) == 0


def _rational_roots_oracle(p):
    """Trial division: every ±a/b with a dividing the constant term and b
    the leading coefficient of p scaled to integers, the root 0 apart."""
    den = math.lcm(*(x.denominator for x in p))
    ic = [int(x * den) for x in p]
    roots = {Fraction(0)} if ic[0] == 0 else set()
    while ic[0] == 0:
        ic = ic[1:]

    def divisors(c):
        c = abs(c)
        small = [d for d in range(1, math.isqrt(c) + 1) if c % d == 0]
        return small + [c // d for d in small]
    d = len(ic) - 1
    if d:
        roots |= {Fraction(a, b) for a0 in divisors(ic[0])
                  for b in divisors(ic[-1]) for a in (a0, -a0)
                  if sum(c * a**i * b**(d - i) for i, c in enumerate(ic)) == 0}
    return sorted(roots)


def _with_roots(roots, cofactor=(1,)):
    p = poly(cofactor)
    for r in roots:
        p = poly_mul(p, poly([-r, 1]))
    return p


@given(st.lists(fractions, max_size=3), st.lists(fractions, min_size=1,
                                                   max_size=4))
@settings(max_examples=30, deadline=None)
def test_rational_roots_match_trial_division(roots, cofactor):
    p = _with_roots(roots, cofactor)
    assume(poly_deg(p) >= 1)
    for part, _ in squarefree_decomposition(p):
        assert rational_roots(part) == _rational_roots_oracle(part)


@given(st.lists(st.fractions(min_value=-10**6, max_value=10**6,
                             max_denominator=10**4),
                min_size=1, max_size=4, unique=True))
@settings(max_examples=30, deadline=None)
def test_rational_roots_finds_planted_wide_roots(roots):
    # x³ − 2 has no rational root, so the planted ones are all there are;
    # their constant terms reach about 10²⁴, far beyond trial division
    assert rational_roots(_with_roots(roots, (-2, 0, 0, 1))) == sorted(roots)


def test_rational_roots_edge_cases():
    cases = [
        (poly([-2, 0, 0, 1]), []),                    # x³ − 2: none
        (poly([1, 0, 1]), []),                        # x² + 1: none
        (poly([7, 3]), [Fraction(-7, 3)]),            # linear, negative
        (_with_roots([0, 1]), [Fraction(0), Fraction(1)]),
        # 101 and 103 divide the leading coefficient: mod either prime a
        # root with that denominator does not exist, so neither is used
        (_with_roots([Fraction(1, 101), Fraction(2, 103)]),
         [Fraction(1, 101), Fraction(2, 103)]),
        # 1 ≡ 102 mod 101 and 1 ≡ 104 mod 103: a double root there, which
        # Hensel lifting cannot follow, so both primes are skipped
        (_with_roots([1, 102, 104]), [Fraction(1), Fraction(102),
                                      Fraction(104)]),
    ]
    for p, want in cases:
        assert rational_roots(p) == want == _rational_roots_oracle(p)


@given(fractions)
def test_rational_sqrt_of_squares(q):
    r = rational_sqrt(q * q)
    assert r == abs(q)


def test_rational_sqrt_rejects_nonsquares():
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)


@given(shaped_mats())
@example(Mat.from_rows([[2, 4, 6], [1, 3, 5], [3, 7, 11]], 3))
@settings(max_examples=80, deadline=None)
def test_integer_echelon_matches_generic(m):
    # the integer echelon and the Fraction Gauss–Jordan oracle must agree
    want = _rref_oracle(m)
    assert rref(m).matrix == want.matrix
    assert row_space(m) == Subspace(
        m.ncols, Mat.from_rows(want.matrix.entries[:want.rank], m.ncols))


def test_rat_passes_fractions_through_and_refuses_floats():
    x = Fraction(3, 7)
    assert rat(x) is x
    assert rat(2) == Fraction(2) and type(rat(2)) is Fraction
    assert rat("-5/4") == Fraction(-5, 4)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        Mat.from_rows([[Fraction(1), 0.25]], 2)
    # every conversion to an integer image refuses a float too
    eye = Mat.from_rows([[1, 0], [0, 1]])
    conn = ConnectionCoeffs(Mat.from_rows(   # rows Γ_00, Γ_01, Γ_10, Γ_11
        (unit_vec(2, 0), unit_vec(2, 1), unit_vec(2, 1), unit_vec(2, 0)), 2))
    for refuse in (lambda: eye.apply((0.5, 0)),
                   lambda: row_apply((0, 0.5), eye),
                   lambda: Subspace.full(2).contains((1, 0.5)),
                   lambda: Mat(((Fraction(1), 0.25),), (1, 2)).image(),
                   lambda: table_apply(conn.table, (1, 0), (0.5, 0)),
                   lambda: nabla_apply(conn, (0.5, 0), (1, 0)),
                   lambda: SymForm(eye).pair((1, 0), (0.5, 0))):
        with pytest.raises(TypeError, match="floating-point"):
            refuse()


def test_tables_refuse_vectors_of_the_wrong_length():
    """Every vector a table is applied to has as many entries as the
    table's slots: these once answered, or failed with an IndexError."""
    spec = catalog_get("so3_killing_neg").load().spec
    conn = connection_of(spec)
    for refuse in (lambda: nabla_apply(conn, (0, 1, 0), (1, 0)),
                   lambda: spec.bracket_apply((0, 1, 0), (0, 0, 1, 0)),
                   lambda: nabla_apply(conn, (0, 0, 0, 1), (0, 0, 1)),
                   lambda: table_pairs(conn.table, Mat.identity(3), Mat.identity(2)),
                   lambda: table_pairs(conn.table, Mat.identity(2), Mat.identity(2))):
        with pytest.raises(AssertionError):
            refuse()


def test_symmetry_is_checked_on_the_rows_the_gram_holds():
    """A restricted form's Gram b·G·bᵀ keeps only its integer image; an
    asymmetric Gram held only as an image is still refused."""
    form = SymForm(Mat.from_rows([[1, 2, 0], [2, Fraction(1, 3), 1],
                                  [0, 1, 5]]))
    h = Subspace.from_vectors(3, [[1, 1, 0], [0, Fraction(1, 2), 2]])
    sub = form.restrict(h)
    assert sub.gram._entries is None
    g, b = form.gram.entries, h.rows
    assert sub.gram.entries == tuple(
        tuple(sum((x[i] * g[i][j] * y[j] for i in range(3) for j in range(3)),
                  Fraction(0)) for y in b) for x in b)
    with pytest.raises(ValueError, match="symmetric"):
        SymForm(Mat.from_image(3, [[0, 1], [2, 0]], (2, 2)))
