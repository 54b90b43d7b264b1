"""Exact linear algebra over the rationals.

Everything downstream runs on `fractions.Fraction` scalars: matrices,
subspaces kept in reduced row-echelon form, symmetric bilinear forms,
congruent diagonalization, and the minimal-polynomial / coprime-split
machinery behind the splitting-idempotent search.  No floats, no
tolerances — equality everywhere is exact, which is what lets the
decomposition certificates re-verify with zero slack.

Vectors are plain tuples of Fractions.  Subspace bases are canonical
(RREF, no zero rows), so two equal subspaces compare equal as values.

One matrix core, in integers.  Every contraction (matrix products and
applications, table contractions, subspace reduction) runs through
`lin_comb` / `dot`, which accumulate each coordinate as an unreduced
integer numerator/denominator pair and normalize it into a `Fraction`
once, at the end; a term with a zero factor is never added.  Every
elimination (RREF and its transform, inverse, rank, kernel, solve,
subspaces) runs through the integer echelon `_echelon`, and a canonical
basis becomes Fractions only when each entry is divided by its row's
pivot, once.  Whole-table checks that sum products of entries (the
Jacobi identity, the Koszul derivation, torsion, metric compatibility,
bi-invariance) first take the table over one common denominator with
`int_image` and then multiply and add plain ints, building a Fraction only
for a result or a nonzero defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

Rat = Fraction
_ZERO = Fraction(0)


def rat(x) -> Rat:
    """Coerce ints / strings / Fractions; floats are refused on purpose."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floating-point input is not allowed in exact arithmetic")
    return Fraction(x)


def vec(items):
    return tuple(rat(x) for x in items)


def zero_vec(n):
    return (Fraction(0),) * n


def unit_vec(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(k, a):
    return tuple(k * x for x in a)


def vec_is_zero(a):
    return not any(a)


def lin_comb(coeffs, vectors, n):
    """Σ_a coeffs[a]·vectors[a] in Q^n, for Fraction or int entries.

    Each coordinate is accumulated as an unreduced integer pair num/den:
    a term's product p/q is added as is when q equals den, and otherwise
    the two denominators are merged through their gcd, so den stays the
    lcm of the term denominators.  Each nonzero coordinate becomes a
    normalized Fraction once, at the end; a zero one is a shared
    Fraction(0).  A zero coefficient's vector is never read, and a zero
    entry is never multiplied."""
    num = [0] * n
    den = [1] * n
    for c, v in zip(coeffs, vectors):
        cn = c.numerator
        if cn:
            cd = c.denominator
            for k, x in enumerate(v):
                xn = x.numerator
                if xn:
                    p = cn * xn
                    q = cd * x.denominator
                    d = den[k]
                    if q == d:
                        num[k] += p
                    else:
                        g = math.gcd(d, q)
                        num[k] = num[k] * (q // g) + p * (d // g)
                        den[k] = d // g * q
    return tuple(Fraction(a, b) if a else _ZERO for a, b in zip(num, den))


def dot(a, b):
    """Σ_k a_k·b_k, accumulated like one coordinate of `lin_comb`."""
    assert len(a) == len(b)
    num, den = 0, 1
    for x, y in zip(a, b):
        p = x.numerator * y.numerator
        if p:
            q = x.denominator * y.denominator
            if q == den:
                num += p
            else:
                g = math.gcd(den, q)
                num = num * (q // g) + p * (den // g)
                den = den // g * q
    return Fraction(num, den) if num else _ZERO


def int_image(rows):
    """Rows of Fractions (or ints) over one common denominator D, the lcm
    of every entry's denominator: returns (D, ints, nonzero) with
    ints[r][k] = D·rows[r][k] as a plain int and nonzero[r] the pairs
    (k, ints[r][k]) of row r's nonzero entries, in order.  A table of
    vectors is passed as its flat sequence of vectors.  Sums of products
    of entries then run as integer multiply-adds over the nonzero pairs,
    and become Fractions only where a value is reported."""
    rows = [[x.as_integer_ratio() for x in r] for r in rows]
    d = math.lcm(*{q for r in rows for _, q in r})
    ints = [[p * (d // q) if p else 0 for p, q in r] for r in rows]
    return d, ints, [[(k, x) for k, x in enumerate(r) if x] for r in ints]


# ---------------------------------------------------------------------------
# Matrices


@dataclass(frozen=True)
class Mat:
    """Immutable rational matrix; `shape` is explicit so 0-row matrices keep
    their column count."""

    entries: tuple
    shape: tuple

    def __post_init__(self):
        r, c = self.shape
        assert len(self.entries) == r
        for row in self.entries:
            assert len(row) == c

    @staticmethod
    def from_rows(rows, cols=None):
        rows = tuple(vec(r) for r in rows)
        if rows:
            width = len(rows[0])
            assert cols is None or cols == width
            cols = width
        else:
            assert cols is not None, "0-row matrix needs an explicit column count"
        return Mat(rows, (len(rows), cols))

    @staticmethod
    def zeros(r, c):
        return Mat(tuple(zero_vec(c) for _ in range(r)), (r, c))

    @staticmethod
    def identity(n):
        return Mat(tuple(unit_vec(n, i) for i in range(n)), (n, n))

    @property
    def nrows(self):
        return self.shape[0]

    @property
    def ncols(self):
        return self.shape[1]

    @property
    def is_square(self):
        return self.shape[0] == self.shape[1]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self):
        return Mat(tuple(self.col(j) for j in range(self.ncols)),
                   (self.ncols, self.nrows))

    def __add__(self, other):
        assert self.shape == other.shape
        return Mat(tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)),
                   self.shape)

    def __sub__(self, other):
        assert self.shape == other.shape
        return Mat(tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries)),
                   self.shape)

    def __neg__(self):
        return self.scale(Fraction(-1))

    def scale(self, k):
        k = rat(k)
        return Mat(tuple(vec_scale(k, r) for r in self.entries), self.shape)

    def __matmul__(self, other):
        """Row i of the product is Σ_k a_ik·(row k of other), so a zero
        entry of self never touches the other matrix."""
        assert self.ncols == other.nrows, (self.shape, other.shape)
        n = other.ncols
        out = tuple(lin_comb(r, other.entries, n) for r in self.entries)
        return Mat(out, (self.nrows, n))

    def apply(self, v):
        """Matrix times column vector."""
        assert len(v) == self.ncols
        return tuple(dot(r, v) for r in self.entries)

    def trace(self):
        assert self.is_square
        return sum((self.entries[i][i] for i in range(self.nrows)), Fraction(0))

    def is_zero(self):
        return all(vec_is_zero(r) for r in self.entries)

    def rank(self):
        return len(_echelon(self.entries, self.ncols))

    def inverse(self):
        assert self.is_square
        res = rref(self)
        if res.rank != self.nrows:
            raise ValueError("matrix is singular")
        return res.transform


def row_apply(v, m: Mat):
    """Row vector times matrix: Σ_k v_k·(row k of m)."""
    assert len(v) == m.nrows
    return lin_comb(v, m.entries, m.ncols)


def trace_form(mats):
    """Gram matrix T_ab = tr(M_a M_b) = Σ_ij (M_a)_ij (M_b)_ji of square
    matrices given by their rows: one `dot` of M_a's entries, flattened,
    against M_b's, flattened transposed."""
    flat = [sum(m, ()) for m in mats]
    swapped = [sum(zip(*m), ()) for m in mats]
    k = len(flat)
    t = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            t[a][b] = t[b][a] = dot(flat[a], swapped[b])
    return Mat.from_rows(t, k)


# ---------------------------------------------------------------------------
# Row reduction
#
# One path: an integer-scaled echelon pass (`_echelon`), because Fraction
# elimination on the commutant's n²-column systems is far slower.
# A subspace's canonical basis is the Fraction normalization of that
# echelon (`_rref_rows`); `rref` reads the RREF and its transform off the
# canonical rows of [m | I]; a kernel is read off the integer echelon rows
# by back-substitution (`_kernel_ints`), so the constraint rows themselves
# are never normalized.  The commutant solves one operator at a time on
# these integer kernels and builds Fractions only for its final canonical
# basis.


@dataclass(frozen=True)
class RrefResult:
    matrix: Mat
    rank: int
    transform: Mat  # transform @ input == matrix
    pivots: tuple


def rref(m: Mat) -> RrefResult:
    """RREF of m read off the canonical rows of [m | I]: [m | I] has full
    row rank, so those are nrows rows; their left halves are the RREF with
    the zero rows last, their right halves the (invertible) transform, and
    the pivots below ncols are m's pivots."""
    nr, nc = m.shape
    rows, pivots = _rref_rows(
        [r + e for r, e in zip(m.entries, Mat.identity(nr).entries)], nc + nr)
    pivots = tuple(p for p in pivots if p < nc)
    return RrefResult(Mat(tuple(r[:nc] for r in rows), (nr, nc)), len(pivots),
                      Mat(tuple(r[nc:] for r in rows), (nr, nr)), pivots)


def _int_row(row):
    """Clear denominators and divide by the content; leading entry positive.
    Takes Fractions or ints."""
    nums = [x.numerator for x in row]
    dens = [x.denominator for x in row]
    den = math.lcm(*dens)
    ints = nums if den == 1 else [a * (den // d) for a, d in zip(nums, dens)]
    g = math.gcd(*ints)
    if g == 0:
        return None
    lead = next(x for x in ints if x)
    if lead < 0:
        g = -g
    return ints if g == 1 else [x // g for x in ints]


def _clear(r, col, prow, nz):
    """The integer row r with its entry at col cleared against prow, whose
    entry there is positive and whose nonzero columns are nz: r is scaled
    by b // g only when that is not 1, and prow is subtracted only at nz."""
    x, b = r[col], prow[col]
    g = math.gcd(x, b)
    mb, mx = b // g, x // g
    if mb != 1:
        r = [mb * a if a else 0 for a in r]
    for k in nz:
        r[k] -= mx * prow[k]
    return r


def _echelon_add(basis, row):
    """Reduce `row` against the integer echelon `basis` (a list of
    (pivot, int_row, nonzero columns of int_row), sorted by pivot) and insert
    what is left in pivot order.  False when the row reduces to zero.

    The row is cleared (`_clear`) at each basis pivot where it is nonzero;
    once reduced, its content is divided out only when it is not 1."""
    r = _int_row(row)
    if r is None:
        return False
    for pivot, prow, nz in basis:
        if r[pivot]:
            r = _clear(r, pivot, prow, nz)
    lead = next((i for i, x in enumerate(r) if x), None)
    if lead is None:
        return False
    g = math.gcd(*r)
    if r[lead] < 0:
        g = -g
    if g != 1:
        r = [x // g for x in r]
    basis.append((lead, r, [k for k, x in enumerate(r) if x]))
    basis.sort(key=lambda prn: prn[0])
    return True


def _echelon(rows, ncols):
    """Integer echelon basis of the row space: list of (pivot, int_row,
    nonzero columns of int_row), sorted by pivot column."""
    basis = []
    for row in rows:
        _echelon_add(basis, row)
    return basis


def independent_rows(rows):
    """Indices of the rows that are not combinations of the rows before
    them, in order: the first basis of the row space met in a left-to-right
    scan, found by one incremental integer echelon."""
    basis = []
    return [i for i, row in enumerate(rows) if _echelon_add(basis, row)]


def _rref_rows(rows, ncols):
    """Canonical RREF rows (Fractions) of the span of `rows`, plus pivots.

    Back-substitution runs on the integer echelon rows, last pivot first:
    each row is cleared (`_clear`) at every later pivot, against rows that
    are already zero at all other pivots, and its content is divided out.
    Each entry then becomes a Fraction once, divided by the row's
    (positive) pivot entry."""
    basis = _echelon(rows, ncols)
    pivots = [p for p, _, _ in basis]
    ints = [r for _, r, _ in basis]
    nzs = [None] * len(ints)
    for i in reversed(range(len(ints))):
        r = ints[i]
        for j in range(i + 1, len(ints)):
            if r[pivots[j]]:
                r = _clear(r, pivots[j], ints[j], nzs[j])
        g = math.gcd(*r)
        if g != 1:
            r = [x // g for x in r]
        ints[i] = r
        nzs[i] = [k for k, x in enumerate(r) if x]
    out = []
    for p, r in zip(pivots, ints):
        d = r[p]
        out.append(tuple(Fraction(x, d) if x else _ZERO for x in r))
    return out, tuple(pivots)


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n with a canonical (RREF) basis, so equal
    subspaces are equal values."""

    ambient_dim: int
    basis: Mat
    # the pivot column of each canonical row: passed in by `from_vectors`,
    # found once for a basis given directly; equality reads the basis only
    pivots: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.pivots is None:
            object.__setattr__(self, "pivots", tuple(
                next(i for i, x in enumerate(r) if x) for r in self.rows))

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        vectors = [vec(v) for v in vectors]
        for v in vectors:
            assert len(v) == ambient_dim
        rows, pivots = _rref_rows(vectors, ambient_dim)
        return cls(ambient_dim, Mat(tuple(rows), (len(rows), ambient_dim)),
                   pivots)

    @classmethod
    def zero(cls, n):
        return cls.from_vectors(n, [])

    @classmethod
    def full(cls, n):
        return cls(n, Mat.identity(n), tuple(range(n)))

    @property
    def dim(self):
        return self.basis.nrows

    @property
    def rows(self):
        return self.basis.entries

    def reduce(self, v):
        """Return (coords, remainder): v - coords·basis = remainder.  The
        basis is in RREF, so the coordinates are v's pivot entries and the
        remainder is one contraction."""
        v = vec(v)
        assert len(v) == self.ambient_dim
        coords = tuple(v[p] for p in self.pivots)
        rem = lin_comb((1,) + tuple(-c for c in coords), (v,) + self.rows,
                       self.ambient_dim)
        return coords, rem

    def contains(self, v):
        _, rem = self.reduce(v)
        return vec_is_zero(rem)

    def contains_subspace(self, other):
        assert other.ambient_dim == self.ambient_dim
        return all(self.contains(r) for r in other.rows)

    def coords(self, v):
        coords, rem = self.reduce(v)
        if not vec_is_zero(rem):
            raise ValueError("vector is not in the subspace")
        return coords

    def embed(self, coords):
        """Coordinates w.r.t. the canonical basis -> ambient vector."""
        assert len(coords) == self.dim
        return lin_comb(vec(coords), self.rows, self.ambient_dim)


def row_space(m: Mat):
    return Subspace.from_vectors(m.ncols, m.entries)


def column_space(m: Mat):
    return row_space(m.transpose())


def _kernel_ints(rows, ncols):
    """Integer vectors spanning {x : rows·x = 0} in Q^ncols, one per free
    column, for Fraction or int rows.

    One back-substitution through the integer echelon rows per free column
    f: x_f = 1, the other free coordinates 0, and each pivot coordinate
    solved from its row, last pivot first, as a sum over the row's nonzero
    columns only (x_p itself is still 0 there).  x stays integral: when the
    pivot entry does not divide the sum it has to cancel, all of x is
    first multiplied by the missing factor."""
    basis = _echelon(rows, ncols)
    pivset = {p for p, _, _ in basis}
    vecs = []
    for f in range(ncols):
        if f in pivset:
            continue
        x = [0] * ncols
        x[f] = 1
        for p, row, nz in reversed(basis):
            s = 0
            for j in nz:
                if x[j]:
                    s += row[j] * x[j]
            if s:
                g = math.gcd(s, row[p])   # row[p] > 0
                if g != row[p]:
                    scale = row[p] // g
                    x = [v * scale for v in x]
                x[p] = -s // g
        vecs.append(x)
    return vecs


def kernel(m: Mat):
    """{x : m·x = 0} as a Subspace of Q^ncols."""
    return Subspace.from_vectors(m.ncols, _kernel_ints(m.entries, m.ncols))


def solve(m: Mat, b):
    """One solution x of m·x = b, or None if inconsistent."""
    b = vec(b)
    assert len(b) == m.nrows
    aug = Mat.from_rows([row + (bi,) for row, bi in zip(m.entries, b)],
                        m.ncols + 1)
    rows, pivots = _rref_rows(aug.entries, aug.ncols)
    if m.ncols in pivots:
        return None
    x = [Fraction(0)] * m.ncols
    for r, p in zip(rows, pivots):
        x[p] = r[m.ncols]
    return tuple(x)


def subspace_sum(a: Subspace, b: Subspace):
    assert a.ambient_dim == b.ambient_dim
    return Subspace.from_vectors(a.ambient_dim, list(a.rows) + list(b.rows))


def subspace_intersect(a: Subspace, b: Subspace):
    """Zassenhaus: row-reduce [A | A; B | 0]; rows with zero left half carry
    the intersection in their right half."""
    n = a.ambient_dim
    assert b.ambient_dim == n
    stacked = [list(r) + list(r) for r in a.rows] + \
              [list(r) + [Fraction(0)] * n for r in b.rows]
    rows, _ = _rref_rows(stacked, 2 * n)
    inter = [r[n:] for r in rows if vec_is_zero(r[:n])]
    return Subspace.from_vectors(n, inter)


def subspace_complement(a: Subspace, within: Subspace | None = None):
    """Deterministic complement of `a` inside `within` (default: full space):
    keep the rows of `within`'s canonical basis whose pivot column is not a
    pivot column of `a`.  For `within` the full space this picks exactly the
    standard basis vectors at non-pivot positions."""
    if within is None:
        within = Subspace.full(a.ambient_dim)
    assert within.contains_subspace(a), "complement target does not contain the subspace"
    apiv = set(a.pivots)
    rows = [r for r, p in zip(within.rows, within.pivots) if p not in apiv]
    comp = Subspace.from_vectors(a.ambient_dim, rows)
    assert comp.dim == within.dim - a.dim
    assert subspace_sum(a, comp) == within
    return comp


# ---------------------------------------------------------------------------
# Symmetric bilinear forms


@dataclass(frozen=True)
class SymForm:
    gram: Mat

    def __post_init__(self):
        if not self.gram.is_square:
            raise ValueError("gram matrix must be square")
        if self.gram != self.gram.transpose():
            raise ValueError("gram matrix must be symmetric")

    @property
    def dim(self):
        return self.gram.nrows

    def pair(self, x, y):
        return dot(x, row_apply(vec(y), self.gram))

    def is_nondegenerate(self):
        return self.gram.rank() == self.dim

    def restrict(self, sub: Subspace):
        """Gram matrix of the form on the rows of `sub`'s canonical basis."""
        b = sub.basis
        return SymForm(b @ self.gram @ b.transpose())


def orthogonal_complement(h: Subspace, form: SymForm):
    assert h.ambient_dim == form.dim
    if h.dim == 0:
        return Subspace.full(form.dim)
    constraints = Mat.from_rows([row_apply(r, form.gram) for r in h.rows], form.dim)
    return kernel(constraints)


def radical(h: Subspace, form: SymForm):
    """Vectors of h orthogonal to all of h."""
    return subspace_intersect(h, orthogonal_complement(h, form))


@dataclass(frozen=True)
class DiagonalizedForm:
    basis_change: Mat       # rows are the new basis: P · G · Pᵀ is diagonal
    diagonal: tuple
    signature: tuple        # (positive, negative, zero) counts


def congruent_diagonalize(form: SymForm) -> DiagonalizedForm:
    """Symmetric Gaussian elimination over Q (no square roots, so the
    diagonal entries are honest rationals, not unit normalized)."""
    n = form.dim
    g = [list(r) for r in form.gram.entries]
    p = [list(unit_vec(n, i)) for i in range(n)]

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

    pm = Mat.from_rows(p, n)
    check = pm @ form.gram @ pm.transpose()
    diag = []
    for i in range(n):
        for j in range(n):
            if i != j:
                assert check.entries[i][j] == 0
        diag.append(check.entries[i][i])
    sig = (sum(1 for d in diag if d > 0),
           sum(1 for d in diag if d < 0),
           sum(1 for d in diag if d == 0))
    return DiagonalizedForm(pm, tuple(diag), sig)


def rational_sqrt(r):
    """Exact square root of a nonnegative rational, or None."""
    r = rat(r)
    if r < 0:
        return None
    a, b = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if a * a == r.numerator and b * b == r.denominator:
        return Fraction(a, b)
    return None


# ---------------------------------------------------------------------------
# Polynomials (coefficient tuples, low degree first, no trailing zeros)


def poly(coeffs):
    c = [rat(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(p):
    return len(p) - 1


def poly_is_zero(p):
    return len(p) == 0


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n)])


def poly_sub(a, b):
    return poly_add(a, tuple(-x for x in b))


def poly_scale(k, a):
    k = rat(k)
    return poly([k * x for x in a])


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly(out)


def poly_monic(a):
    assert a, "zero polynomial has no monic normalization"
    return poly_scale(1 / a[-1], a)


def poly_divmod(a, b):
    assert b, "division by the zero polynomial"
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while len(r) >= len(b) and any(x != 0 for x in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        f = r[-1] * inv
        shift = len(r) - len(b)
        q[shift] = f
        for i, x in enumerate(b):
            r[shift + i] -= f * x
        r.pop()
    return poly(q), poly(r)


def poly_divexact(a, b):
    q, r = poly_divmod(a, b)
    assert poly_is_zero(r), "inexact polynomial division"
    return q


def poly_gcd(a, b):
    while not poly_is_zero(b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a) if a else ()


def poly_xgcd(a, b):
    """Extended Euclid: returns (g, u, v), g monic, u·a + v·b = g."""
    r0, r1 = poly(a), poly(b)
    u0, u1 = poly([1]), poly([])
    v0, v1 = poly([]), poly([1])
    while not poly_is_zero(r1):
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1))
    assert not poly_is_zero(r0)
    lead = r0[-1]
    return poly_monic(r0), poly_scale(1 / lead, u0), poly_scale(1 / lead, v0)


def poly_derivative(a):
    return poly([i * a[i] for i in range(1, len(a))])


def poly_pow(a, k):
    out = poly([1])
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_eval(a, x):
    x = rat(x)
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def poly_eval_mat(a, m: Mat):
    assert m.is_square
    out = Mat.zeros(m.nrows, m.nrows)
    for c in reversed(a):
        out = out @ m + Mat.identity(m.nrows).scale(c)
    return out


def _reduce_into(echelon, w, q=None):
    """Reduce w against echelon rows (pivot, row, poly) whose rows are 1 at
    their pivot and 0 at every earlier row's pivot; q tracks w as a
    polynomial combination and is reduced alongside.  Returns the pivot of
    the remainder, or None when w reduces to zero."""
    for p, row, rq in echelon:
        c = w[p]
        if c:
            for k, y in enumerate(row):
                if y:
                    w[k] -= c * y
            if q is not None:
                for k, y in enumerate(rq):
                    q[k] -= c * y
    return next((k for k, x in enumerate(w) if x), None)


def minimal_polynomial(op: Mat):
    """Monic minimal polynomial of T, as the lcm of the minimal polynomials
    of the unit vectors e_j (p(T) = 0 exactly when p(T)·e_j = 0 for every j).

    The minimal polynomial of e_j is the first linear dependence of its
    Krylov sequence e_j, T·e_j, T²·e_j, …, found by one incremental
    elimination that keeps each reduced vector together with the
    polynomial q for which it equals q(T)·e_j; the next vector is T applied
    to the last reduced one, so no power of T is ever formed.  An e_j that
    already lies in the T-invariant span of the earlier sequences is
    skipped: its minimal polynomial divides theirs."""
    assert op.is_square and op.nrows >= 1
    n = op.nrows
    cols = op.transpose().entries   # T·w = Σ_k w_k·(column k)
    span = []    # echelon of the T-invariant span of the sequences so far
    result = (Fraction(1),)
    for j in range(n):
        if len(span) == n:
            break
        if _reduce_into(span, list(unit_vec(n, j))) is None:
            continue
        seq = []
        w, q = list(unit_vec(n, j)), [Fraction(1)]
        while True:
            lead = _reduce_into(seq, w, q)
            if lead is None:
                break
            inv = 1 / w[lead]
            w = [x * inv for x in w]
            q = [x * inv for x in q]
            seq.append((lead, w, q))
            w, q = list(lin_comb(w, cols, n)), [Fraction(0)] + q
        q = poly_monic(poly(q))
        result = poly_mul(result, poly_divexact(q, poly_gcd(result, q)))
        for _, row, _ in seq:
            row = list(row)
            lead = _reduce_into(span, row)
            if lead is not None:
                inv = 1 / row[lead]
                span.append((lead, [x * inv for x in row], ()))
    return result


def squarefree_decomposition(p):
    """Yun's algorithm: monic p = Π a_i^i with the a_i squarefree, pairwise
    coprime.  Returns [(a_i, i)] skipping trivial a_i."""
    p = poly_monic(p)
    dp = poly_derivative(p)
    a = poly_gcd(p, dp)
    b = poly_divexact(p, a) if a else p
    c = poly_divexact(dp, a) if a else dp
    d = poly_sub(c, poly_derivative(b))
    out = []
    i = 1
    while poly_deg(b) > 0:
        ai = poly_gcd(b, d)
        if poly_deg(ai) > 0:
            out.append((ai, i))
        b = poly_divexact(b, ai)
        c = poly_divexact(d, ai)
        d = poly_sub(c, poly_derivative(b))
        i += 1
    return out


def _eval_mod(coeffs, x, m):
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % m
    return v


def _reconstruct(x, m, num_bound, den_bound):
    """The fraction a/b ≡ x mod m with |a| ≤ num_bound and
    0 < b ≤ den_bound, or None; unique when m > 2·num_bound·den_bound.
    The extended Euclidean algorithm on (m, x) stops at its first
    remainder a ≤ num_bound, whose cofactor of x is b up to sign."""
    r0, r1, t0, t1 = m, x % m, 0, 1
    while r1 > num_bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return Fraction(r1, t1) if abs(t1) <= den_bound else None


def rational_roots(p):
    """All rational roots of a squarefree polynomial, sorted, found q-adically
    instead of by trial division.

    Scale p to integer coefficients c_0..c_d and divide out the root 0; a
    root a/b in lowest terms then has a | c_0 and b | c_d.  Take the first
    prime q ≥ 101 that does not divide c_d and at which every root of p mod
    q is simple; as p is squarefree, only the primes dividing its
    discriminant fail.  a/b reduces to one of those roots mod q, and
    Newton–Hensel lifting carries each to the unique q-adic root above it,
    modulo some m > 2·|c_0|·|c_d|.  For that m, rational reconstruction with
    |a| ≤ |c_0| and 0 < b ≤ |c_d| returns a/b (Wang 1981; von zur Gathen &
    Gerhard, Modern Computer Algebra, Thm 5.26), and a candidate is kept
    only if it is an exact root."""
    assert poly_deg(p) >= 1
    assert poly_deg(poly_gcd(p, poly_derivative(p))) == 0, \
        "rational_roots needs a squarefree polynomial"
    den = math.lcm(*(x.denominator for x in p))
    ic = [x.numerator * (den // x.denominator) for x in p]
    roots = []
    if ic[0] == 0:
        roots.append(Fraction(0))
        while ic[0] == 0:
            ic = ic[1:]
    if len(ic) == 1:
        return roots
    c0, lead = abs(ic[0]), abs(ic[-1])
    dc = [i * c for i, c in enumerate(ic)][1:]
    q = 99
    while True:
        q += 2
        if lead % q and all(q % k for k in range(3, math.isqrt(q) + 1, 2)):
            mod_roots = [x for x in range(q) if _eval_mod(ic, x, q) == 0]
            if all(_eval_mod(dc, x, q) for x in mod_roots):
                break
    for x in mod_roots:
        m = q
        while m <= 2 * c0 * lead:
            m *= m
            x = (x - _eval_mod(ic, x, m) * pow(_eval_mod(dc, x, m), -1, m)) % m
        r = _reconstruct(x, m, c0, lead)
        if r is not None and poly_eval(p, r) == 0:
            roots.append(r)
    return sorted(roots)


def coprime_split(p):
    """Split monic p into pairwise-coprime monic factors whose product is p:
    one factor (t - r)^i per rational root r of each squarefree part, plus
    the rootless cofactor of each part.  This is not a full factorization —
    pairwise coprimality is all the idempotent construction needs."""
    p = poly_monic(p)
    if poly_deg(p) < 1:
        raise ValueError("constant polynomial cannot be split")
    parts = []
    for a, mult in squarefree_decomposition(p):
        rem = a
        for r in rational_roots(a):
            lin = poly([-r, 1])
            rem = poly_divexact(rem, lin)
            parts.append(poly_pow(lin, mult))
        if poly_deg(rem) > 0:
            parts.append(poly_pow(rem, mult))
    prod = poly([1])
    for q in parts:
        prod = poly_mul(prod, q)
    assert prod == p
    return tuple(parts)
