"""Exact linear algebra over the rationals.

Matrices, subspaces kept in reduced row-echelon form, symmetric bilinear
forms, congruent diagonalization, and the minimal polynomial of a matrix
and its evaluation at one, for the splitting-idempotent search (the
arithmetic of Q[x] is in `poly`).  No floats, no tolerances — equality
everywhere is exact, which is what lets the decomposition certificates
re-verify with zero slack.

A `Mat` holds one canonical integer image: a denominator D > 0 and integer
rows A with gcd(D, every entry of A) = 1, the matrix being A/D.  Equal
matrices have equal images, so equality and hashing compare images.
Products, sums, scaling, transposes, traces, ranks, inverses, RREF, trace
forms and minimal polynomials run on the image in plain ints.  A Mat
holds only its image, made when it is built (`Mat(entries, shape)`
refuses a float), and builds its `entries`, tuples of Fractions, on first
read.  A structure's tables (bracket, connection, curvature) and every
block of vectors are such Mats, one row per index pair, triple or vector:
`stack_rows` puts the rows of several Mats over the lcm of their
denominators, and `select_rows` slices rows from a Mat's image.

Vectors travel in blocks, as the rows of a Mat.  A subspace's basis is
canonical (RREF, no zero rows), so two equal subspaces compare equal as
values; it is a Mat whose image is the primitive integer RREF rows, each
scaled to the lcm of the pivot entries.  Membership is one integer
contraction against that image (`Subspace.contains` tests one vector of
Fractions or ints).

Every elimination (RREF and its transform, inverse, rank, kernel,
subspaces, the Krylov sequences of `minimal_polynomial`) runs through one
integer echelon, built a row at a time by `_echelon_add`, and `_rref_rows`
returns each canonical row as a primitive integer row, positive at its
pivot.  These take integer rows only: Fraction vectors are converted in
one place, `Subspace.from_vectors`.  Congruent diagonalization, being
symmetric, eliminates outside that echelon, and on integer rows too.
There is one contraction kernel, `_row_times`: a sum of integer rows
weighted by integers, such as a row of a product, runs as integer
multiply-adds on the images.  Bases go through a table as matrices:
`table_pairs(t, a, b)` is the Mat of t(a_p, b_q) over all pairs of rows
(mode-n products; Kolda & Bader, SIAM Rev. 51, 2009), and
`Subspace.contains_rows` tests a Mat's rows at once.  Whole-table checks
that sum products of entries (the Jacobi identity, the Koszul
derivation, torsion, metric compatibility, bi-invariance, curvature)
read a table's kept image through `int_image`, which adds each row's
nonzero pairs, and multiply and add plain ints, building a Fraction only
for a result or a nonzero defect.  Floats are refused wherever a value
enters (`poly.rat`, and every conversion to an image).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .poly import (_NO_FLOATS, poly, poly_deg, poly_divexact, poly_gcd,
                   poly_monic, poly_mul, rat)

_ZERO = Fraction(0)


def _common_ints(rows):
    """(D, ints): rows of Fractions (or ints) as integer rows over the lcm
    D of every entry's denominator (`_over_lcm`).  A float has a ratio
    too, so it is refused here as `rat` refuses it."""
    for r in rows:
        if float in map(type, r):
            raise TypeError(_NO_FLOATS)
    return _over_lcm([[x.as_integer_ratio() for x in r] for r in rows])


def _over_lcm(rows):
    """(D, ints): rows of reduced pairs (p, q), q > 0, as the integer rows
    p·(D/q) over the lcm D of the q.  gcd(D, ints) = 1: a prime power
    dividing D fully divides some q, and that entry's scaled p is prime to
    it."""
    d = math.lcm(*{q for r in rows for _, q in r})
    return d, [[p * (d // q) if p else 0 for p, q in r] for r in rows]


def _fractions(ints, d):
    """The vector ints/d, one Fraction per nonzero entry."""
    return tuple(Fraction(x, d) if x else _ZERO for x in ints)


def _row_times(w, rows, n):
    """Σ_k w_k·rows[k] in Z^n; a zero w_k never touches its row."""
    acc = [0] * n
    for x, r in zip(w, rows):
        if x:
            acc = [a + x * y for a, y in zip(acc, r)]
    return acc


# ---------------------------------------------------------------------------
# Matrices


class Mat:
    """Immutable rational matrix; `shape` is explicit so 0-row matrices keep
    their column count.  `Mat(entries, shape)` takes rows of Fractions or
    ints and keeps only their canonical image, the (D, integer rows) that
    `image()` returns and the arithmetic runs on (module docstring).
    Images are shared between matrices and must not be mutated."""

    __slots__ = ("shape", "_den", "_ints")

    def __init__(self, entries, shape):
        r, c = shape
        assert len(entries) == r
        for row in entries:
            assert len(row) == c
        self.shape = shape
        self._den, self._ints = _common_ints(entries)

    @classmethod
    def from_image(cls, den, ints, shape):
        """The matrix ints/den, for den > 0 and lists of int rows, stored on
        its canonical image: the gcd of den and every entry is divided
        out."""
        assert den > 0
        g = math.gcd(den, *(x for r in ints for x in r))
        if g != 1:
            den //= g
            ints = [[x // g for x in r] for r in ints]
        m = cls.__new__(cls)
        m.shape, m._den, m._ints = shape, den, ints
        return m

    def image(self):
        """(D, A): the matrix is A/D, D > 0, gcd(D, entries of A) = 1."""
        return self._den, self._ints

    @property
    def entries(self):
        """Rows as tuples of Fractions, built from the image on each read."""
        return tuple(_fractions(r, self._den) for r in self._ints)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self.image() == other.image()

    def __hash__(self):
        d, a = self.image()
        return hash((self.shape, d, tuple(map(tuple, a))))

    def __repr__(self):
        return f"Mat({self.entries!r}, {self.shape!r})"

    @staticmethod
    def from_rows(rows, cols=None):
        rows = tuple(rows)
        if rows:
            width = len(rows[0])
            assert cols is None or cols == width
            cols = width
        else:
            assert cols is not None, "0-row matrix needs an explicit column count"
        return Mat(rows, (len(rows), cols))

    @staticmethod
    def zeros(r, c):
        return Mat.from_image(1, [[0] * c for _ in range(r)], (r, c))

    @staticmethod
    def identity(n):
        return Mat.from_image(1, [[int(i == j) for j in range(n)]
                                  for i in range(n)], (n, n))

    @property
    def nrows(self):
        return self.shape[0]

    @property
    def ncols(self):
        return self.shape[1]

    @property
    def is_square(self):
        return self.shape[0] == self.shape[1]

    def transpose(self):
        d, a = self.image()
        rows = [list(c) for c in zip(*a)] if a else [[] for _ in range(self.ncols)]
        return Mat.from_image(d, rows, (self.ncols, self.nrows))

    def _plus(self, other, sign):
        assert self.shape == other.shape
        (d1, a), (d2, b) = self.image(), other.image()
        d = math.lcm(d1, d2)
        s, t = d // d1, sign * (d // d2)
        return Mat.from_image(d, [[s * x + t * y for x, y in zip(r, q)]
                                  for r, q in zip(a, b)], self.shape)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k):
        k = rat(k)
        d, a = self.image()
        p = k.numerator
        return Mat.from_image(d * k.denominator, [[p * x for x in r] for r in a],
                              self.shape)

    def __matmul__(self, other):
        """Row i of the product is Σ_k a_ik·(row k of other), in integers
        over the product of the denominators, so a zero entry of self never
        touches the other matrix."""
        assert self.ncols == other.nrows, (self.shape, other.shape)
        (d1, a), (d2, b) = self.image(), other.image()
        n = other.ncols
        return Mat.from_image(d1 * d2, [_row_times(r, b, n) for r in a],
                              (self.nrows, n))

    def trace(self):
        assert self.is_square
        d, a = self.image()
        return Fraction(sum(a[i][i] for i in range(self.nrows)), d)

    def is_zero(self):
        return not any(map(any, self.image()[1]))

    def rank(self):
        return len(_echelon(self.image()[1], self.ncols))

    def inverse(self):
        assert self.is_square
        res = rref(self)
        if res.rank != self.nrows:
            raise ValueError("matrix is singular")
        return res.transform


def stack_rows(mats, ncols):
    """The Mat of the rows of `mats` in turn, each of ncols columns, over
    the lcm of their image denominators."""
    d = math.lcm(*(m.image()[0] for m in mats))
    rows = []
    for m in mats:
        dm, a = m.image()
        rows.extend(a if dm == d else [[d // dm * x for x in r] for r in a])
    return Mat.from_image(d, rows, (len(rows), ncols))


def select_rows(m: Mat, indices):
    """The Mat of m's rows at `indices`, in that order, sliced from its
    image."""
    d, a = m.image()
    return Mat.from_image(d, [a[i] for i in indices], (len(indices), m.ncols))


def table_pairs(t: Mat, a: Mat, b: Mat) -> Mat:
    """Row p·l + q is t(a_p, b_q) = Σ_ij (a_p)_i (b_q)_j t_ij, for the rows
    of a, the l rows of b and a table of k² rows (a and b have k columns):
    each row of a weights t's k-row blocks, flattened, and each row of b
    the k rows of that sum, in ints over the three denominators."""
    k, n, l = a.ncols, t.ncols, b.nrows
    assert b.ncols == k and t.nrows == k * k, (t.shape, a.shape, b.shape)
    (d, rows), (da, ra), (db, rb) = t.image(), a.image(), b.image()
    blocks = [[x for r in rows[i * k:(i + 1) * k] for x in r]
              for i in range(k)]
    out = []
    for w in ra:
        s = _row_times(w, blocks, k * n)
        s = [s[j * n:(j + 1) * n] for j in range(k)]
        out.extend(_row_times(v, s, n) for v in rb)
    return Mat.from_image(d * da * db, out, (a.nrows * l, n))


def int_image(m: Mat):
    """(D, ints, nonzero): m's kept image ints/D (`Mat.image`) and
    nonzero[r] the pairs (k, ints[r][k]) of row r's nonzero entries, in
    order, for integer multiply-adds over a table's Mat."""
    d, ints = m.image()
    return d, ints, [[(k, x) for k, x in enumerate(r) if x] for r in ints]


def trace_form(mats):
    """Gram matrix T_ab = tr(M_a M_b) = Σ_ij (M_a)_ij (M_b)_ji of square
    Mats: over the lcm D of the image denominators, one integer dot
    product of M_a's image, flattened, against M_b's, flattened
    transposed, and T = those sums / D²."""
    d = math.lcm(*(m.image()[0] for m in mats))
    flat, swapped = [], []
    for m in mats:
        dm, a = m.image()
        s = d // dm
        flat.append([s * x for r in a for x in r])
        swapped.append([s * x for c in zip(*a) for x in c])
    k = len(mats)
    t = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            t[a][b] = t[b][a] = sum(map(mul, flat[a], swapped[b]))
    return Mat.from_image(d * d, t, (k, k))


# ---------------------------------------------------------------------------
# Row reduction
#
# One path: an integer-scaled echelon pass (`_echelon`), because Fraction
# elimination on the commutant's n²-column systems is far slower.
# `_rref_rows` back-substitutes the echelon into the canonical rows, each a
# primitive integer row positive at its pivot; a Mat over them
# (`_over_pivots`) scales each to the lcm D of the pivot entries, so the
# image of a canonical basis is D at each row's pivot.  `rref`
# reads the RREF and its transform off the canonical rows of [A | D·I];
# a kernel is read off the integer echelon rows by back-substitution
# (`_kernel_ints`), so the constraint rows themselves are never
# normalized.  The commutant solves one operator at a time on these
# integer kernels.


@dataclass(frozen=True)
class RrefResult:
    matrix: Mat
    rank: int
    transform: Mat  # transform @ input == matrix
    pivots: tuple


def _over_pivots(rows, pivots, lo, hi):
    """The Mat of the slices rows[i][lo:hi], each divided by its row's
    pivot entry rows[i][pivots[i]] > 0."""
    d = math.lcm(*(r[p] for r, p in zip(rows, pivots)))
    return Mat.from_image(d, [[x * (d // r[p]) for x in r[lo:hi]]
                              for r, p in zip(rows, pivots)], (len(rows), hi - lo))


def rref(m: Mat) -> RrefResult:
    """RREF of m = A/D read off the canonical rows of [A | D·I], the row
    space of [m | I]: it has full row rank, so those are nrows rows; their
    left halves are the RREF with the zero rows last, their right halves
    the (invertible) transform, and the pivots below ncols are m's
    pivots."""
    nr, nc = m.shape
    d, a = m.image()
    rows, pivots = _rref_rows(
        [r + [d if k == i else 0 for k in range(nr)] for i, r in enumerate(a)],
        nc + nr)
    left = tuple(p for p in pivots if p < nc)
    return RrefResult(_over_pivots(rows, pivots, 0, nc), len(left),
                      _over_pivots(rows, pivots, nc, nc + nr), left)


def _int_row(row):
    """A new list: the integer row with its content divided out, leading
    entry positive; None for a zero row.  math.gcd refuses anything but
    ints, a Fraction or a float included."""
    g = math.gcd(*row)
    if g == 0:
        return None
    if next(x for x in row if x) < 0:
        g = -g
    return list(row) if g == 1 else [x // g for x in row]


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
    what is left in pivot order.  Returns the inserted entry, or None when
    the row reduces to zero.

    The row is cleared (`_clear`) at each basis pivot where it is nonzero;
    once reduced, its content is divided out only when it is not 1."""
    r = _int_row(row)
    if r is None:
        return None
    for pivot, prow, nz in basis:
        if r[pivot]:
            r = _clear(r, pivot, prow, nz)
    lead = next((i for i, x in enumerate(r) if x), None)
    if lead is None:
        return None
    g = math.gcd(*r)
    if r[lead] < 0:
        g = -g
    if g != 1:
        r = [x // g for x in r]
    entry = (lead, r, [k for k, x in enumerate(r) if x])
    basis.append(entry)
    basis.sort(key=lambda prn: prn[0])
    return entry


def _echelon(rows, ncols):
    """Integer echelon basis of the row space: list of (pivot, int_row,
    nonzero columns of int_row), sorted by pivot column."""
    basis = []
    for row in rows:
        _echelon_add(basis, row)
    return basis


def independent_rows(rows):
    """Indices of the integer rows that are not combinations of the rows
    before them, in order: the first basis of the row space met in a
    left-to-right scan, found by one incremental integer echelon."""
    basis = []
    return [i for i, row in enumerate(rows) if _echelon_add(basis, row)]


def _rref_rows(rows, ncols):
    """Canonical RREF rows of the span of the integer `rows`, each as a
    primitive integer row positive at its pivot, plus the pivots.

    Back-substitution runs on the integer echelon rows, last pivot first:
    each row is cleared (`_clear`) at every later pivot, against rows that
    are already zero at all other pivots, and its content is divided
    out."""
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
    return ints, tuple(pivots)


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n with a canonical (RREF) basis, so equal
    subspaces are equal values.  The basis image is the primitive RREF
    rows scaled to the lcm D of their pivot entries: D at each row's pivot
    and 0 at the others'."""

    ambient_dim: int
    basis: Mat
    # the pivot column of each canonical row: passed in by `from_vectors`,
    # found once for a basis given directly; equality reads the basis only
    pivots: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.pivots is None:
            object.__setattr__(self, "pivots", tuple(
                next(i for i, x in enumerate(r) if x)
                for r in self.basis.image()[1]))

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        """The span of vectors of ints (reduced as they are) or Fractions,
        which are first put over one common denominator (`_common_ints`)."""
        vectors = list(vectors)
        assert all(len(v) == ambient_dim for v in vectors)
        if not all(type(x) is int for v in vectors for x in v):
            vectors = _common_ints(vectors)[1]
        rows, pivots = _rref_rows(vectors, ambient_dim)
        return cls(ambient_dim, _over_pivots(rows, pivots, 0, ambient_dim),
                   pivots)

    @classmethod
    def full(cls, n):
        return cls(n, Mat.identity(n), tuple(range(n)))

    @property
    def dim(self):
        return self.basis.nrows

    def _residual(self, w):
        """D·w − Σ_i w[p_i]·(row i of the basis image), for an integer
        vector w: zero exactly when w lies in the subspace, and D times w's
        remainder."""
        d, b = self.basis.image()
        r = [d * x for x in w]
        for p, row in zip(self.pivots, b):
            c = w[p]
            if c:
                r = [x - c * y for x, y in zip(r, row)]
        return r

    def contains(self, v):
        """v (Fractions or ints) lies in the subspace; membership does not
        see scale, so v's numerators over its common denominator are
        tested."""
        return not any(self._residual(_common_ints([v])[1][0]))

    def contains_rows(self, m: Mat):
        """Every row of m lies in the subspace, tested on m's image."""
        assert m.ncols == self.ambient_dim
        return not any(any(self._residual(r)) for r in m.image()[1])

    def contains_subspace(self, other):
        assert other.ambient_dim == self.ambient_dim
        return self.contains_rows(other.basis)


def mats_span(mats, n):
    """The span of n×n Mats as a subspace of Q^(n²), each flattened
    row-major from its own image (a scale changes no span)."""
    return Subspace.from_vectors(n * n, [[x for r in m.image()[1] for x in r]
                                         for m in mats])


def _as_mats(sol, n):
    """The rows of a subspace of flattened n×n matrices, sliced from its
    basis image."""
    d, rows = sol.basis.image()
    return tuple(Mat.from_image(d, [r[i * n:(i + 1) * n] for i in range(n)],
                                (n, n)) for r in rows)


def row_space(m: Mat):
    return Subspace.from_vectors(m.ncols, m.image()[1])


def column_space(m: Mat):
    return row_space(m.transpose())


def _kernel_ints(rows, ncols):
    """Integer vectors spanning {x : rows·x = 0} in Q^ncols, one per free
    column, for integer rows.

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
    return Subspace.from_vectors(m.ncols, _kernel_ints(m.image()[1], m.ncols))


def subspace_sum(a: Subspace, b: Subspace):
    assert a.ambient_dim == b.ambient_dim
    return Subspace.from_vectors(a.ambient_dim,
                                 a.basis.image()[1] + b.basis.image()[1])


def subspace_intersect(a: Subspace, b: Subspace):
    """Zassenhaus: row-reduce [A | A; B | 0] on the basis images; rows
    with zero left half carry the intersection in their right half."""
    n = a.ambient_dim
    assert b.ambient_dim == n
    stacked = [r + r for r in a.basis.image()[1]] + \
              [r + [0] * n for r in b.basis.image()[1]]
    rows, _ = _rref_rows(stacked, 2 * n)
    return Subspace.from_vectors(n, [r[n:] for r in rows if not any(r[:n])])


def subspace_complement(a: Subspace, within: Subspace | None = None):
    """Deterministic complement of `a` inside `within` (default: full space):
    keep the rows of `within`'s canonical basis whose pivot column is not a
    pivot column of `a`.  For `within` the full space this picks exactly the
    standard basis vectors at non-pivot positions."""
    if within is None:
        within = Subspace.full(a.ambient_dim)
    assert within.contains_subspace(a), "complement target does not contain the subspace"
    apiv = set(a.pivots)
    rows = [r for r, p in zip(within.basis.image()[1], within.pivots)
            if p not in apiv]
    comp = Subspace.from_vectors(a.ambient_dim, rows)
    assert comp.dim == within.dim - a.dim
    assert subspace_sum(a, comp) == within
    return comp


# ---------------------------------------------------------------------------
# Symmetric bilinear forms


@dataclass(frozen=True)
class SymForm:
    gram: Mat
    # (G⁻¹, or None when G is singular), kept by `inverse` on first use
    _inverse: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.gram.is_square:
            raise ValueError("gram matrix must be square")
        # symmetry does not see scale: test the image rows
        e = self.gram.image()[1]
        if any(e[i][j] != e[j][i] for i in range(self.dim) for j in range(i)):
            raise ValueError("gram matrix must be symmetric")

    @property
    def dim(self):
        return self.gram.nrows

    def inverse(self):
        """G⁻¹, or None when G is singular: one elimination on first use,
        kept on the form (a structure's metric is inverted by `validate`
        and read by the connection's derivation)."""
        if not self._inverse:
            res = rref(self.gram)
            object.__setattr__(self, "_inverse", (
                res.transform if res.rank == self.dim else None,))
        return self._inverse[0]

    def is_nondegenerate(self):
        """G has full rank: read off the kept `inverse` when there is one,
        else one rank test (a sub-form, checked once, is never
        inverted)."""
        if self._inverse:
            return self._inverse[0] is not None
        return self.gram.rank() == self.dim

    def restrict(self, sub: Subspace):
        """Gram matrix of the form on the rows of `sub`'s canonical basis."""
        b = sub.basis
        return SymForm(b @ self.gram @ b.transpose())


def orthogonal_complement(h: Subspace, form: SymForm):
    assert h.ambient_dim == form.dim
    if h.dim == 0:
        return Subspace.full(form.dim)
    return kernel(h.basis @ form.gram)


def radical(h: Subspace, form: SymForm):
    """Vectors of h orthogonal to all of h."""
    return subspace_intersect(h, orthogonal_complement(h, form))


@dataclass(frozen=True)
class DiagonalizedForm:
    basis_change: Mat       # rows are the new basis: P · G · Pᵀ is diagonal
    diagonal: tuple
    signature: tuple        # (positive, negative, zero) counts


def congruent_diagonalize(form: SymForm) -> DiagonalizedForm:
    """Symmetric Gaussian elimination on the integer rows p_i of P, paired
    through the Gram image (no square roots, so the diagonal entries are
    honest rationals).  Step i swaps in the first later row with
    ⟨p_j, p_j⟩ ≠ 0 if p_i has none, or else adds the first later p_j with
    ⟨p_i, p_j⟩ ≠ 0; then p_j ← (|d|/g)·p_j − sign(d)·(b/g)·p_i for every
    later row, d = ⟨p_i, p_i⟩, b = ⟨p_j, p_i⟩, g = gcd(d, b), and its
    content is divided out.  Each row is so primitive and a positive
    multiple num/den of the row that these steps give over Q, and adding
    rows in that ratio keeps it one.  The diagonal is read off P·G·Pᵀ."""
    n = form.dim
    _, a = form.gram.image()
    p = [[int(k == j) for k in range(n)] for j in range(n)]
    scale = [(1, 1)] * n

    def pair(x, y):
        return sum(map(mul, _row_times(x, a, n), y))

    def settle(j, row, num, den):
        c = math.gcd(*row)
        k = math.gcd(num, den * c)
        p[j], scale[j] = [x // c for x in row], (num // k, den * c // k)

    for i in range(n):
        if not pair(p[i], p[i]):
            j = next((j for j in range(i + 1, n) if pair(p[j], p[j])), n)
            if j < n:
                p[i], p[j], scale[i], scale[j] = p[j], p[i], scale[j], scale[i]
            else:
                j = next((j for j in range(i + 1, n) if pair(p[i], p[j])), n)
                if j < n:
                    (ni, di), (nj, dj) = scale[i], scale[j]
                    settle(i, [nj * di * x + ni * dj * y
                               for x, y in zip(p[i], p[j])], ni * nj, 1)
        ai = _row_times(p[i], a, n)
        d = sum(map(mul, ai, p[i]))
        if not d:
            continue
        for j in range(i + 1, n):
            b = sum(map(mul, ai, p[j]))
            if b:
                g = math.gcd(d, b)
                s, t = abs(d) // g, (b if d > 0 else -b) // g
                num, den = scale[j]
                settle(j, [s * x - t * y for x, y in zip(p[j], p[i])],
                       num * s, den)

    pm = Mat.from_image(1, p, (n, n))
    dc, c = (pm @ form.gram @ pm.transpose()).image()
    assert not any(c[i][j] for i in range(n) for j in range(n) if i != j)
    ds = [c[i][i] for i in range(n)]
    sig = (sum(x > 0 for x in ds), sum(x < 0 for x in ds), ds.count(0))
    return DiagonalizedForm(pm, tuple(Fraction(x, dc) for x in ds), sig)


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
# Matrix polynomials (the arithmetic of Q[x] is in `poly`)


def poly_eval_mat(a, m: Mat):
    assert m.is_square
    out = Mat.zeros(m.nrows, m.nrows)
    for c in reversed(a):
        out = out @ m + Mat.identity(m.nrows).scale(c)
    return out


def minimal_polynomial(op: Mat):
    """Monic minimal polynomial of T = A/D, from that of its integer image
    A: p_T(x) = p_A(D·x)/D^deg p_A.

    p_A is the lcm of the minimal polynomials of the unit vectors e_j
    (p(A) = 0 exactly when p(A)·e_j = 0 for every j).  That of e_j is the
    first linear dependence of its Krylov sequence e_j, A·e_j, A²·e_j, …
    Each vector w is reduced together with the integer polynomial q for
    which w = q(A)·e_j, as the row [w | q] of one integer echelon
    (`_echelon_add`); q has degree at most n, so the row has 2n + 1
    columns.  The next vector is A applied to the last reduced w, with q
    shifted up one degree, so no power of A is ever formed.  A row whose
    pivot falls in the q half has w = 0: then q(A)·e_j = 0, and q over its
    leading coefficient is the minimal polynomial of e_j.  An e_j that
    already lies in the A-invariant span of the earlier sequences is
    skipped: its minimal polynomial divides theirs."""
    assert op.is_square and op.nrows >= 1
    n = op.nrows
    d, a = op.image()
    span = []    # integer echelon of the A-invariant span of the sequences so far
    result = (Fraction(1),)
    for j in range(n):
        if len(span) == n:
            break
        e = [int(k == j) for k in range(n)]
        if not _echelon_add(span, e):
            continue
        seq, row = [], e + [1] + [0] * n
        while True:
            pivot, row, _ = _echelon_add(seq, row)
            if pivot >= n:
                break
            w = row[:n]
            row = [sum(map(mul, r, w)) for r in a] + [0] + row[n:-1]
        q = poly_monic(poly(row[n:]))
        result = poly_mul(result, poly_divexact(q, poly_gcd(result, q)))
        for _, kept, _ in seq:
            _echelon_add(span, kept[:n])
    k = poly_deg(result)
    return tuple(c / d ** (k - i) for i, c in enumerate(result))
