"""Lie algebra structures carrying a nondegenerate symmetric bilinear form.

An `AlgebraSpec` holds the structure constants, the Gram matrix, and the
mode.  In "bracket" mode the metric connection is derived from the product
rule ⟨∇_X Y, Z⟩ = ½(⟨[X,Y],Z⟩ − ⟨[Y,Z],X⟩ + ⟨[Z,X],Y⟩); in "connection"
mode the coefficient table is given directly (the induced bracket is its
antisymmetrization) — this is how structures whose bracket table fails the
Jacobi identity are carried around without pretending they are Lie
algebras.  Either way the table is checked against the two defining
identities (zero torsion and metric compatibility) before anything
downstream is allowed to use it.

Index conventions: brackets[i][j][a] = c_ij^a with [e_i,e_j] = Σ_a c_ij^a e_a,
and gamma[i][j][a] = Γ_ij^a with ∇_{e_i} e_j = Σ_a Γ_ij^a e_a.  Each table
is held once as the Mat of its n² vectors, row i·n + j = T_ij
(`AlgebraSpec.bracket_table`, `ConnectionCoeffs.table`), built on first
use and kept; every contraction and check reads that one integer image.
A table applied to two vectors is `linalg.table_apply` (T(x, y) =
Σ_ij x_i y_j T_ij), and to two bases `linalg.table_pairs`, the Mat of
T(a_p, b_q) over all pairs of rows (`restrict`, `transform_spec`).  Γ is
sliced into the 2n operators L_i = ∇_{e_i}· and R_j = ∇_·e_j in one
place (`left_op`, `right_op`); conditions linear in those operators are
imposed on one basis of their span (`operator_basis`): T keeps the span
of H when the rows of H·Tᵀ lie in it.  The structure checks are integer
multiply-adds on the images, each over its denominator D: the Jacobi
defect D²·Σ_cyclic Σ_b c_ij^b c_bk ([[e_i,e_j],e_k] =
Σ_b c_ij^b [e_b,e_k]); the Koszul formula Γ_ij = G⁻¹·½(c_ijk − c_jki +
c_kij) with c_ijk = (G·c_ij)_k; torsion Γ_ij − Γ_ji − c_ij; and
compatibility ⟨Γ_ij,e_k⟩ + ⟨Γ_ik,e_j⟩ = 0 by the same lowering through G
(`skew_defects`, which on c is bi-invariance).  Fractions are built only
for Γ and for the value of a nonzero defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .errors import PreconditionError
from .linalg import (
    Mat,
    Subspace,
    SymForm,
    _fractions,
    _row_times,
    independent_rows,
    int_image,
    rat,
    table_apply,
    table_pairs,
    vec,
    vec_scale,
    vec_sub,
    zero_vec,
)

MODE_BRACKET = "bracket"
MODE_CONNECTION = "connection"
_KEPT = dict(default=None, init=False, repr=False, compare=False)


def _coerce_table(table, n):
    t = tuple(tuple(vec(v) for v in row) for row in table)
    assert len(t) == n
    for row in t:
        assert len(row) == n
        for v in row:
            assert len(v) == n
    return t


def _negated(u, v):
    """u = −v, for vectors of reduced Fractions, without arithmetic."""
    return all(x.numerator == -y.numerator and x.denominator == y.denominator
               for x, y in zip(u, v))


def _kept_table(obj, name, rows):
    """The Mat of the vectors in rows, flattened (a table's row i·n + j is
    T_ij), built on first use and kept on obj as `name`."""
    if getattr(obj, name) is None:
        vectors = tuple(v for row in rows for v in row)
        object.__setattr__(obj, name,
                           Mat(vectors, (len(vectors), len(vectors[0]))))
    return getattr(obj, name)


def _nested(table: Mat):
    """T[i][j] = row i·n + j of a table's Mat, as tuples of Fractions."""
    n, e = table.ncols, table.entries
    return tuple(e[i * n:(i + 1) * n] for i in range(n))


def antisymmetrize(table):
    n = len(table)
    return tuple(tuple(vec_sub(table[i][j], table[j][i]) for j in range(n))
                 for i in range(n))


@dataclass(frozen=True)
class AlgebraSpec:
    dim: int
    basis_names: tuple
    brackets: tuple          # brackets[i][j] = coordinates of [e_i, e_j]
    metric: SymForm
    mode: str = MODE_BRACKET
    connection_override: tuple | None = None
    # kept on first use: `bracket_table`, `connection_of`, `commutant_of`,
    # `ann_report`
    _bracket_table: Mat | None = field(**_KEPT)
    _connection: ConnectionCoeffs | None = field(**_KEPT)
    _commutant: tuple | None = field(**_KEPT)
    _ann_report: object = field(**_KEPT)

    def __post_init__(self):
        n = self.dim
        assert n >= 1
        assert len(self.basis_names) == n
        assert len(set(self.basis_names)) == n, "basis names must be distinct"
        object.__setattr__(self, "brackets", _coerce_table(self.brackets, n))
        assert self.metric.dim == n
        if self.mode == MODE_BRACKET:
            assert self.connection_override is None
        elif self.mode == MODE_CONNECTION:
            assert self.connection_override is not None
            object.__setattr__(self, "connection_override",
                               _coerce_table(self.connection_override, n))
            if antisymmetrize(self.connection_override) != self.brackets:
                raise ValueError("bracket table must be the antisymmetrization "
                                 "of the connection table")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        c = self.brackets
        for i in range(n):
            for j in range(i, n):
                if not _negated(c[i][j], c[j][i]):
                    raise ValueError("bracket table is not antisymmetric")

    @classmethod
    def build(cls, names, brackets=None, metric=None, connection=None):
        """Convenience constructor from name-keyed sparse dicts.

        brackets / connection: {(name_a, name_b): {name_c: value}}.
        metric: {(name_a, name_b): value}, symmetric completion implied.
        """
        names = tuple(names)
        n = len(names)
        idx = {name: i for i, name in enumerate(names)}

        def entry_vec(d):
            v = [Fraction(0)] * n
            for name, value in d.items():
                v[idx[name]] = rat(value)
            return tuple(v)

        gram = [[Fraction(0)] * n for _ in range(n)]
        for (a, b), value in (metric or {}).items():
            gram[idx[a]][idx[b]] = rat(value)
            gram[idx[b]][idx[a]] = rat(value)
        form = SymForm(Mat.from_rows(gram, n))

        if connection is not None:
            gamma = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
            for (a, b), d in connection.items():
                gamma[idx[a]][idx[b]] = entry_vec(d)
            gamma = tuple(tuple(row) for row in gamma)
            return cls.from_connection(names, gamma, form)

        table = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
        for (a, b), d in (brackets or {}).items():
            v = entry_vec(d)
            table[idx[a]][idx[b]] = v
            table[idx[b]][idx[a]] = vec_scale(Fraction(-1), v)
        return cls(n, names, tuple(tuple(row) for row in table), form)

    @classmethod
    def from_connection(cls, names, gamma, metric):
        names = tuple(names)
        n = len(names)
        gamma = _coerce_table(gamma, n)
        return cls(n, names, antisymmetrize(gamma), metric,
                   mode=MODE_CONNECTION, connection_override=gamma)

    @property
    def gram(self):
        return self.metric.gram

    @property
    def bracket_table(self):
        """The Mat of the n² bracket vectors, row i·n + j = c_ij."""
        return _kept_table(self, "_bracket_table", self.brackets)

    def bracket_apply(self, x, y):
        """Bilinear extension of the bracket table to coordinate vectors."""
        return table_apply(self.bracket_table, x, y)


@dataclass(frozen=True)
class ValidationReport:
    mode: str
    antisymmetry_ok: bool
    jacobi_ok: bool
    jacobi_failures: tuple   # ((name_i, name_j, name_k), defect_vector)
    metric_symmetric_ok: bool
    metric_nondegenerate_ok: bool
    connection_ok: bool | None   # None in bracket mode


def validate(spec: AlgebraSpec) -> ValidationReport:
    n = spec.dim
    names = spec.basis_names
    d, _, nz = int_image(spec.bracket_table)
    # D²·[[e_i,e_j],e_k] = Σ_b C_ij^b·C_bk, with nz[i·n + j] the (b, C_ij^b)
    failures = []
    for i, j, k in combinations(range(n), 3):
        acc = [0] * n
        for p, q in ((i * n + j, k), (j * n + k, i), (k * n + i, j)):
            for b, x in nz[p]:
                for a, y in nz[b * n + q]:
                    acc[a] += x * y
        if any(acc):
            failures.append(((names[i], names[j], names[k]),
                             _fractions(acc, d * d)))
    connection_ok = None
    if spec.mode == MODE_CONNECTION:   # checked once, by the derivation
        try:
            connection_of(spec)
            connection_ok = True
        except PreconditionError:
            connection_ok = False
    return ValidationReport(
        mode=spec.mode,
        antisymmetry_ok=True,   # enforced at construction
        jacobi_ok=not failures,
        jacobi_failures=tuple(failures),
        metric_symmetric_ok=True,   # enforced by SymForm
        metric_nondegenerate_ok=spec.metric.is_nondegenerate(),
        connection_ok=connection_ok,
    )


@dataclass(frozen=True)
class ConnectionCoeffs:
    """gamma[i][j] = coordinates of ∇_{e_i} e_j.  `derive_connection` and
    `connection_of` build it checked, `restrict` as a sub-table of a checked
    one; the raw constructor checks shape only."""

    gamma: tuple
    _table: Mat | None = field(**_KEPT)       # `table`, kept
    _operators: tuple | None = field(**_KEPT)   # `operator_basis`, kept

    def __post_init__(self):
        n = len(self.gamma)
        object.__setattr__(self, "gamma", _coerce_table(self.gamma, n))

    @property
    def dim(self):
        return len(self.gamma)

    @property
    def table(self):
        """The Mat of the n² vectors Γ_ij, row i·n + j."""
        return _kept_table(self, "_table", self.gamma)


def nabla_apply(conn: ConnectionCoeffs, x, y):
    """∇_x y for coordinate vectors x, y."""
    return table_apply(conn.table, x, y)


def operator_basis(conn: ConnectionCoeffs):
    """(left, right): a basis of the span of the 2n ∇-operators
    L_i = ∇_{e_i}· and R_j = ∇_·e_j, as the Mats of `left_op` and
    `right_op`.  L_0 … L_n−1 and then R_0 … R_n−1 are scanned, and an
    operator is kept when it is not a combination of those kept before it
    (`independent_rows` on the flattened images, each scaled by its own
    denominator, which changes no dependence); the L_i come first, so
    `left` spans span{L_i}.  An R_j equal to −L_j (Γ_ij = −Γ_ji for every
    i) lies in that span, so it is dropped by that one Mat comparison
    before the echelon: on a bi-invariant structure no R_j reaches it.
    Found on first use and kept on conn.

    Every "for all ∇-operators" condition is linear in the operator —
    [T, Σ c_k M_k] = Σ c_k [T, M_k], and a subspace kept or killed by a
    spanning set is kept or killed by its whole span — so the commutant,
    the strong-ideal test and the annihilators impose these r ≤ 2n
    operators only."""
    if conn._operators is None:
        left = left_ops(conn)
        ops = list(left) + [r for r, m in zip(right_ops(conn), left)
                            if r != -m]
        kept = independent_rows([[x for r in m.image()[1] for x in r]
                                 for m in ops])
        n = conn.dim
        object.__setattr__(conn, "_operators", (
            tuple(ops[k] for k in kept if k < n),
            tuple(ops[k] for k in kept if k >= n)))
    return conn._operators


def is_strong_ideal(h: Subspace, conn: ConnectionCoeffs) -> bool:
    """h is closed under ∇ in both slots: every operator T of
    `operator_basis`, which spans the L_i and R_j, maps h into h, so the
    rows of H·Tᵀ lie in h, for H h's basis (r ≤ 2n products, not 2n)."""
    left, right = operator_basis(conn)
    return all(h.contains_rows(h.basis @ t.transpose()) for t in left + right)


def _operator(conn: ConnectionCoeffs, flat) -> Mat:
    """The matrix whose columns are the vectors of Γ's image at the flat
    indices `flat`: the one place Γ is sliced into operators."""
    d, g = conn.table.image()
    return Mat.from_image(d, [list(c) for c in zip(*(g[f] for f in flat))],
                          (conn.dim, conn.dim))


def left_op(conn: ConnectionCoeffs, i) -> Mat:
    """Matrix of y ↦ ∇_{e_i} y (column action): columns Γ_i0 … Γ_i,n−1."""
    n = conn.dim
    return _operator(conn, range(i * n, (i + 1) * n))


def right_op(conn: ConnectionCoeffs, j) -> Mat:
    """Matrix of x ↦ ∇_x e_j (column action): columns Γ_0j … Γ_n−1,j."""
    n = conn.dim
    return _operator(conn, range(j, n * n, n))


def left_ops(conn):
    return tuple(left_op(conn, i) for i in range(conn.dim))


def right_ops(conn):
    return tuple(right_op(conn, j) for j in range(conn.dim))


def _lowered(t: Mat, metric: SymForm):
    """(D, low), low[i·n + j][k] = D·⟨T_ij, e_k⟩ = D·(G·T_ij)_k in ints, for
    a table's Mat t (G is symmetric, so that is row T_ij times G)."""
    (d, ints), (dg, g) = t.image(), metric.gram.image()
    return d * dg, [_row_times(r, g, metric.dim) for r in ints]


def skew_defects(t: Mat, metric: SymForm):
    """((i, j, k), ⟨T_ij, e_k⟩ + ⟨T_ik, e_j⟩) for each j ≤ k where that is
    nonzero, for a table's Mat t: none for T = Γ is metric compatibility,
    none for T = c is bi-invariance."""
    n = metric.dim
    d, low = _lowered(t, metric)
    return [((i, j, k), Fraction(x, d))
            for i in range(n) for j in range(n) for k in range(j, n)
            if (x := low[i * n + j][k] + low[i * n + k][j])]


def check_torsion_and_compatibility(conn: ConnectionCoeffs, spec: AlgebraSpec):
    """Zero torsion: ∇_XY − ∇_YX = [X,Y]; compatibility:
    ⟨∇_XY, Z⟩ + ⟨Y, ∇_XZ⟩ = 0 on a raw table.  Returns (ok, defects).
    On images g = D·Γ, b = D′·c, Γ_ij − Γ_ji − c_ij = (D′(g_ij − g_ji) −
    D·b_ij)/(D·D′)."""
    n = spec.dim
    (d, g), (db, b) = conn.table.image(), spec.bracket_table.image()
    defects = []
    for i in range(n):
        for j in range(i + 1, n):
            t = [db * (x - y) - d * z for x, y, z in
                 zip(g[i * n + j], g[j * n + i], b[i * n + j])]
            if any(t):
                defects.append(("torsion", (i, j), _fractions(t, d * db)))
    defects += [("compatibility", ijk, x)
                for ijk, x in skew_defects(conn.table, spec.metric)]
    return (not defects), tuple(defects)


def _keeping(table: Mat) -> ConnectionCoeffs:
    """The connection whose table's Mat is `table`, kept as it is."""
    conn = ConnectionCoeffs(_nested(table))
    object.__setattr__(conn, "_table", table)
    return conn


def derive_connection(spec: AlgebraSpec) -> ConnectionCoeffs:
    """Solve the product-rule identity for the unique torsion-free metric
    connection of the bracket table: with c_ijk = ⟨[e_i,e_j], e_k⟩,
    ⟨∇_{e_i} e_j, e_k⟩ = ½(c_ijk − c_jki + c_kij), and Γ_ij is that
    covector times G⁻¹, summed in ints into the image of Γ's table, which
    the connection keeps."""
    n = spec.dim
    try:
        ginv = spec.gram.inverse()
    except ValueError:
        raise PreconditionError(
            "metric is degenerate; connection is not determined") from None
    d, c = _lowered(spec.bracket_table, spec.metric)   # c[i·n+j][k] = d·c_ijk
    dh, h = ginv.image()
    # G⁻¹ is symmetric, so Γ_ij = ½ Σ_k (c_ijk − c_jki + c_kij)·(row k of G⁻¹)
    rows = [_row_times([c[i * n + j][k] - c[j * n + k][i] + c[k * n + i][j]
                        for k in range(n)], h, n)
            for i, j in product(range(n), repeat=2)]
    conn = _keeping(Mat.from_image(2 * d * dh, rows, (n * n, n)))
    ok, defects = check_torsion_and_compatibility(conn, spec)
    assert ok, f"derived connection fails its defining identities: {defects[:3]}"
    return conn


def connection_of(spec: AlgebraSpec) -> ConnectionCoeffs:
    """The structure's connection table: the override (checked) in
    connection mode, the derived one in bracket mode.  Kept on the spec
    after the first call; a table that fails is refused on every call."""
    if spec._connection is not None:
        return spec._connection
    if spec.mode == MODE_CONNECTION:
        conn = ConnectionCoeffs(spec.connection_override)
        ok, defects = check_torsion_and_compatibility(conn, spec)
        if not ok:
            raise PreconditionError(
                "connection table fails the defining identities: "
                + "; ".join(f"{kind} at {idx}" for kind, idx, _ in defects[:5]))
    else:
        conn = derive_connection(spec)
    object.__setattr__(spec, "_connection", conn)
    return conn


def restrict(spec: AlgebraSpec, h: Subspace) -> AlgebraSpec:
    """Restrict the structure to a strong ideal h.  Basis vectors are the
    rows of h's canonical basis, named after the original basis name at
    each pivot position plus a prime.  Γ's sub-table is read off
    `table_pairs(Γ, H, H)` at h's pivots (the strong-ideal test has put its
    rows in h).  The connection is torsion-free, so the restricted bracket
    table is the antisymmetrized Γ sub-table, and the sub-structure keeps
    that sub-table as its connection."""
    assert h.ambient_dim == spec.dim
    if h.dim == 0:
        raise PreconditionError("cannot restrict to the zero subspace")
    conn = connection_of(spec)
    if not is_strong_ideal(h, conn):
        raise PreconditionError("subspace is not a strong ideal; "
                                "restriction is undefined")
    sub_form = spec.metric.restrict(h)
    if not sub_form.is_nondegenerate():
        raise PreconditionError("metric restricts degenerately to the subspace")
    names = tuple(spec.basis_names[p] + "'" for p in h.pivots)
    d, rows = table_pairs(conn.table, h.basis, h.basis).image()
    sub = _keeping(Mat.from_image(d, [[r[p] for p in h.pivots] for r in rows],
                                  (h.dim * h.dim, h.dim)))
    if spec.mode == MODE_CONNECTION:
        sub_spec = AlgebraSpec.from_connection(names, sub.gamma, sub_form)
    else:
        sub_spec = AlgebraSpec(h.dim, names, antisymmetrize(sub.gamma),
                               sub_form)
    object.__setattr__(sub_spec, "_connection", sub)
    return sub_spec


def transform_spec(spec: AlgebraSpec, p: Mat) -> AlgebraSpec:
    """The same structure written on the basis whose vectors are the rows
    of p (in old coordinates).  p must be invertible."""
    n = spec.dim
    assert p.shape == (n, n)
    pinv = p.inverse()
    gram = SymForm(p @ spec.gram @ p.transpose())
    connection = spec.mode == MODE_CONNECTION
    old = (ConnectionCoeffs(spec.connection_override).table if connection
           else spec.bracket_table)
    # row i·n + j: T(p_i, p_j) in the new coordinates
    table = _nested(table_pairs(old @ pinv, p, p))
    if connection:
        return AlgebraSpec.from_connection(spec.basis_names, table, gram)
    return AlgebraSpec(n, spec.basis_names, table, gram)
