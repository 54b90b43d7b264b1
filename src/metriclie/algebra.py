"""Lie algebra structures carrying a nondegenerate symmetric bilinear form.

An `AlgebraSpec` holds the bracket table, the Gram matrix, and the mode.
In "bracket" mode the metric connection is derived from the product rule
⟨∇_X Y, Z⟩ = ½(⟨[X,Y],Z⟩ − ⟨[Y,Z],X⟩ + ⟨[Z,X],Y⟩); in "connection" mode
the connection table is given directly (the induced bracket is its
antisymmetrization) — this is how structures whose bracket table fails the
Jacobi identity are carried around without pretending they are Lie
algebras.  Either way the table is checked against the two defining
identities (zero torsion and metric compatibility) before anything
downstream is allowed to use it.

Every table is stored once, as the Mat of its n² vectors, row i·n + j =
T_ij (the mode-3 unfolding of Kolda & Bader, SIAM Rev. 51, 2009): the
bracket c (`AlgebraSpec.bracket_table`, [e_i,e_j] = Σ_a c_ij^a e_a), a
given Γ (`AlgebraSpec.connection_table`) and the connection's Γ
(`ConnectionCoeffs.table`, ∇_{e_i} e_j = Σ_a Γ_ij^a e_a).  The parse
hands over integer images and `build` Mats of its Fractions; every table
computed here (`derive_connection`, `restrict`, `transform_spec`, c =
Γ_ij − Γ_ji in connection mode, made once by the constructor) is an
integer image, passed on as it is.  Construction tests antisymmetry on
the image rows, by negation only.  A table applied to two vectors is
`linalg.table_apply` (T(x, y) = Σ_ij x_i y_j T_ij), and to two bases
`linalg.table_pairs`, the Mat of T(a_p, b_q) over all pairs of rows
(`restrict`, `transform_spec`).  Each of the 2n operators L_i =
∇_{e_i}· and R_j = ∇_·e_j is a selection of Γ's rows, transposed
(`left_op`, `right_op`); conditions linear in those operators are imposed
on one basis of their span (`operator_basis`): T keeps the span of H when
the rows of H·Tᵀ lie in it.  The structure checks are integer multiply-adds
on the images, each over its denominator D: the Jacobi defect
D²·Σ_cyclic Σ_b c_ij^b c_bk ([[e_i,e_j],e_k] = Σ_b c_ij^b [e_b,e_k]); the
Koszul formula Γ_ij = G⁻¹·½(c_ijk − c_jki + c_kij) with c_ijk =
(G·c_ij)_k; torsion Γ_ij − Γ_ji − c_ij; and compatibility ⟨Γ_ij,e_k⟩ +
⟨Γ_ik,e_j⟩ = 0 by the same lowering through G (`skew_defects`, which on c
is bi-invariance).  A Jacobi defect is kept as its integer row over D²
(`ValidationReport`); Fractions are built only for the value of a
nonzero torsion or compatibility defect, and for a table's entries or a
Jacobi defect when they are read.  `validate` inverts G once, kept on
the structure's `SymForm` (`SymForm.inverse`), and `derive_connection`
reads that inverse.
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
    select_rows,
    table_apply,
    table_pairs,
)

MODE_BRACKET = "bracket"
MODE_CONNECTION = "connection"
_KEPT = dict(default=None, init=False, repr=False, compare=False)


def _antisymmetrized(t: Mat) -> Mat:
    """The table T_ij − T_ji of a table's Mat, on its image."""
    n = t.ncols
    d, g = t.image()
    return Mat.from_image(d, [[x - y for x, y in zip(g[i * n + j], g[j * n + i])]
                              for i, j in product(range(n), repeat=2)], t.shape)


@dataclass(frozen=True)
class AlgebraSpec:
    dim: int
    basis_names: tuple
    # row i·n + j = coordinates of [e_i, e_j]; None in connection mode
    # makes it the connection table's antisymmetrization (`from_connection`)
    bracket_table: Mat | None
    metric: SymForm
    mode: str = MODE_BRACKET
    connection_table: Mat | None = None   # row i·n + j = ∇_{e_i} e_j
    # kept on first use: `connection_of`, `commutant_of`, `ann_report`
    _connection: ConnectionCoeffs | None = field(**_KEPT)
    _commutant: tuple | None = field(**_KEPT)
    _ann_report: object = field(**_KEPT)

    def __post_init__(self):
        n = self.dim
        assert n >= 1
        assert len(self.basis_names) == n
        assert len(set(self.basis_names)) == n, "basis names must be distinct"
        assert self.metric.dim == n
        if self.mode == MODE_BRACKET:
            assert self.bracket_table.shape == (n * n, n)
            assert self.connection_table is None
            c = self.bracket_table.image()[1]
            for i in range(n):
                for j in range(i, n):
                    if c[i * n + j] != [-x for x in c[j * n + i]]:
                        raise ValueError("bracket table is not antisymmetric")
        elif self.mode == MODE_CONNECTION:
            # an antisymmetrization is antisymmetric
            assert self.connection_table.shape == (n * n, n)
            c = _antisymmetrized(self.connection_table)
            if self.bracket_table is None:
                object.__setattr__(self, "bracket_table", c)
            elif c != self.bracket_table:
                raise ValueError("bracket table must be the antisymmetrization "
                                 "of the connection table")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def build(cls, names, brackets=None, metric=None, connection=None):
        """Convenience constructor from name-keyed sparse dicts.

        brackets / connection: {(name_a, name_b): {name_c: value}}.
        metric: {(name_a, name_b): value}, symmetric completion implied.
        """
        names = tuple(names)
        n = len(names)
        idx = {name: i for i, name in enumerate(names)}

        def table(entries, antisymmetric):
            """The Mat whose row idx[a]·n + idx[b] is the vector of
            entries[(a, b)], and in an antisymmetric table row
            idx[b]·n + idx[a] its negation."""
            rows = [(Fraction(0),) * n] * (n * n)
            for (a, b), d in entries.items():
                v = [Fraction(0)] * n
                for name, value in d.items():
                    v[idx[name]] = rat(value)
                rows[idx[a] * n + idx[b]] = tuple(v)
                if antisymmetric:
                    rows[idx[b] * n + idx[a]] = tuple(-x for x in v)
            return Mat(tuple(rows), (n * n, n))

        gram = [[Fraction(0)] * n for _ in range(n)]
        for (a, b), value in (metric or {}).items():
            gram[idx[a]][idx[b]] = rat(value)
            gram[idx[b]][idx[a]] = rat(value)
        form = SymForm(Mat.from_rows(gram, n))
        if connection is not None:
            return cls.from_connection(names, table(connection, False), form)
        return cls(n, names, table(brackets or {}, True), form)

    @classmethod
    def from_connection(cls, names, connection_table: Mat, metric):
        """The connection-mode structure with this table; its bracket is
        the table's antisymmetrization, one integer pass, made by the
        constructor."""
        names = tuple(names)
        return cls(len(names), names, None, metric, mode=MODE_CONNECTION,
                   connection_table=connection_table)

    @property
    def gram(self):
        return self.metric.gram

    def bracket_apply(self, x, y):
        """Bilinear extension of the bracket table to coordinate vectors."""
        return table_apply(self.bracket_table, x, y)


@dataclass(frozen=True)
class ValidationReport:
    """The structure checks of `validate`.  Each Jacobi defect is kept as
    its integer row over `jacobi_den` (D² for the bracket table's
    denominator D); `jacobi_failures` reads them as Fraction vectors."""

    mode: str
    antisymmetry_ok: bool
    # ((name_i, name_j, name_k), jacobi_den · defect as an integer row)
    jacobi_defects: tuple
    jacobi_den: int
    metric_symmetric_ok: bool
    metric_nondegenerate_ok: bool
    connection_ok: bool | None   # None in bracket mode

    @property
    def jacobi_ok(self):
        return not self.jacobi_defects

    @property
    def jacobi_failures(self):
        """((name_i, name_j, name_k), defect vector of Fractions) for each
        basis triple where the Jacobi identity fails."""
        return tuple((t, _fractions(r, self.jacobi_den))
                     for t, r in self.jacobi_defects)


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
            failures.append(((names[i], names[j], names[k]), acc))
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
        jacobi_defects=tuple(failures),
        jacobi_den=d * d,
        metric_symmetric_ok=True,   # enforced by SymForm
        metric_nondegenerate_ok=spec.metric.inverse() is not None,
        connection_ok=connection_ok,
    )


@dataclass(frozen=True)
class ConnectionCoeffs:
    """The Mat of the n² vectors Γ_ij, row i·n + j = coordinates of
    ∇_{e_i} e_j.  `derive_connection` and `connection_of` build it checked,
    `restrict` as a sub-table of a checked one; the raw constructor checks
    shape only."""

    table: Mat
    _operators: tuple | None = field(**_KEPT)   # `operator_basis`, kept

    def __post_init__(self):
        assert self.table.nrows == self.dim ** 2

    @property
    def dim(self):
        return self.table.ncols


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


def left_op(conn: ConnectionCoeffs, i) -> Mat:
    """Matrix of y ↦ ∇_{e_i} y (column action): columns Γ_i0 … Γ_i,n−1."""
    n = conn.dim
    return select_rows(conn.table, range(i * n, (i + 1) * n)).transpose()


def right_op(conn: ConnectionCoeffs, j) -> Mat:
    """Matrix of x ↦ ∇_x e_j (column action): columns Γ_0j … Γ_n−1,j."""
    n = conn.dim
    return select_rows(conn.table, range(j, n * n, n)).transpose()


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
    """(D, defects): defects yields ((i, j, k), D·(⟨T_ij, e_k⟩ +
    ⟨T_ik, e_j⟩)) in ints, lazily, for each j ≤ k where that is nonzero,
    for a table's Mat t: none for T = Γ is metric compatibility, none for
    T = c is bi-invariance."""
    n = metric.dim
    d, low = _lowered(t, metric)
    return d, (((i, j, k), x)
               for i in range(n) for j in range(n) for k in range(j, n)
               if (x := low[i * n + j][k] + low[i * n + k][j]))


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
    dl, skew = skew_defects(conn.table, spec.metric)
    defects += [("compatibility", ijk, Fraction(x, dl)) for ijk, x in skew]
    return (not defects), tuple(defects)


def derive_connection(spec: AlgebraSpec) -> ConnectionCoeffs:
    """Solve the product-rule identity for the unique torsion-free metric
    connection of the bracket table: with c_ijk = ⟨[e_i,e_j], e_k⟩,
    ⟨∇_{e_i} e_j, e_k⟩ = ½(c_ijk − c_jki + c_kij), and Γ_ij is that
    covector times G⁻¹, summed in ints into the image of Γ's table, which
    the connection keeps."""
    n = spec.dim
    ginv = spec.metric.inverse()
    if ginv is None:
        raise PreconditionError(
            "metric is degenerate; connection is not determined")
    d, c = _lowered(spec.bracket_table, spec.metric)   # c[i·n+j][k] = d·c_ijk
    dh, h = ginv.image()
    # G⁻¹ is symmetric, so Γ_ij = ½ Σ_k (c_ijk − c_jki + c_kij)·(row k of G⁻¹)
    rows = [_row_times([c[i * n + j][k] - c[j * n + k][i] + c[k * n + i][j]
                        for k in range(n)], h, n)
            for i, j in product(range(n), repeat=2)]
    conn = ConnectionCoeffs(Mat.from_image(2 * d * dh, rows, (n * n, n)))
    ok, defects = check_torsion_and_compatibility(conn, spec)
    assert ok, f"derived connection fails its defining identities: {defects[:3]}"
    return conn


def connection_of(spec: AlgebraSpec) -> ConnectionCoeffs:
    """The structure's connection: the given table (checked) in
    connection mode, the derived one in bracket mode.  Kept on the spec
    after the first call; a table that fails is refused on every call."""
    if spec._connection is not None:
        return spec._connection
    if spec.mode == MODE_CONNECTION:
        conn = ConnectionCoeffs(spec.connection_table)
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
    sub = ConnectionCoeffs(Mat.from_image(
        d, [[r[p] for p in h.pivots] for r in rows], (h.dim * h.dim, h.dim)))
    if spec.mode == MODE_CONNECTION:
        sub_spec = AlgebraSpec.from_connection(names, sub.table, sub_form)
    else:
        sub_spec = AlgebraSpec(h.dim, names, _antisymmetrized(sub.table),
                               sub_form)
    object.__setattr__(sub_spec, "_connection", sub)
    return sub_spec


def transform_spec(spec: AlgebraSpec, p: Mat) -> AlgebraSpec:
    """The same structure written on the basis whose vectors are the rows
    of p (in old coordinates), its table the integer product
    `table_pairs(T·P⁻¹, P, P)`.  p must be invertible."""
    n = spec.dim
    assert p.shape == (n, n)
    pinv = p.inverse()
    gram = SymForm(p @ spec.gram @ p.transpose())
    connection = spec.mode == MODE_CONNECTION
    old = spec.connection_table if connection else spec.bracket_table
    # row i·n + j: T(p_i, p_j) in the new coordinates
    table = table_pairs(old @ pinv, p, p)
    if connection:
        return AlgebraSpec.from_connection(spec.basis_names, table, gram)
    return AlgebraSpec(n, spec.basis_names, table, gram)
