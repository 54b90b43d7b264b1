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
and gamma[i][j][a] = Γ_ij^a with ∇_{e_i} e_j = Σ_a Γ_ij^a e_a.  Everything
here contracts these tables through one loop, `linalg.lin_comb`: a table T
gives T(x, y) = Σ_ij x_i y_j T_ij (`table_apply`), T(e_i, v) = Σ_j v_j T_ij
and T(v, e_i) = Σ_j v_j T_ji (`left_images`, `right_images`; for T = Γ both
together are the ∇-images of v, `nabla_images`); the Jacobi defect uses
[[e_i,e_j],e_k] = Σ_a c_ij^a c_ak, so the cyclic sum is one call,
lin_comb(c_ij + c_jk + c_ki, cols[k] + cols[i] + cols[j]) with
cols[k][a] = c_ak; the Koszul formula is
Γ_ij = G⁻¹·½(c_ijk − c_jki + c_kij) with c_ijk = (G·c_ij)_k = ⟨[e_i,e_j],e_k⟩,
one call over the three covectors against ½G⁻¹ stacked three times; the
torsion defect Γ_ij − Γ_ji − c_ij is one call too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError
from .linalg import (
    Mat,
    Subspace,
    SymForm,
    lin_comb,
    rat,
    row_apply,
    vec,
    vec_is_zero,
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


def table_apply(table, x, y):
    """Σ_ij x_i y_j table[i][j]: the bilinear extension of a table."""
    n = len(table)
    return lin_comb(x, [lin_comb(y, row, n) if xi else None
                        for xi, row in zip(x, table)], n)


def left_images(table, v):
    """table(e_i, v) = Σ_j v_j table[i][j], for each i."""
    n = len(table)
    return tuple(lin_comb(v, row, n) for row in table)


def right_images(table, v):
    """table(v, e_i) = Σ_j v_j table[j][i], for each i: the columns of the
    operator y ↦ table(v, y)."""
    n = len(table)
    return tuple(lin_comb(v, (row[i] for row in table), n) for i in range(n))


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
    # kept on first use: `connection_of`, `commutant_of`, `ann_report`
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
                if not vec_is_zero(lin_comb((1, 1), (c[i][j], c[j][i]), n)):
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

    def bracket_apply(self, x, y):
        """Bilinear extension of the bracket table to coordinate vectors."""
        return table_apply(self.brackets, x, y)


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
    c = spec.brackets
    # cols[k][a] = c_ak, so [[e_i,e_j],e_k] = Σ_a c_ij^a c_ak reads cols[k]
    cols = tuple(tuple(row[k] for row in c) for k in range(n))
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                d = lin_comb(c[i][j] + c[j][k] + c[k][i],
                             cols[k] + cols[i] + cols[j], n)
                if not vec_is_zero(d):
                    failures.append(((spec.basis_names[i], spec.basis_names[j],
                                      spec.basis_names[k]), d))
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

    def __post_init__(self):
        n = len(self.gamma)
        object.__setattr__(self, "gamma", _coerce_table(self.gamma, n))

    @property
    def dim(self):
        return len(self.gamma)


def nabla_apply(conn: ConnectionCoeffs, x, y):
    """∇_x y for coordinate vectors x, y."""
    return table_apply(conn.gamma, x, y)


def nabla_images(conn: ConnectionCoeffs, v):
    """∇_{e_i} v = Σ_j v_j Γ_ij, then ∇_v e_i = Σ_j v_j Γ_ji, for each i.
    A subspace is a strong ideal when it holds these for each basis
    vector v."""
    return left_images(conn.gamma, v) + right_images(conn.gamma, v)


def is_strong_ideal(h: Subspace, conn: ConnectionCoeffs) -> bool:
    """h is closed under ∇ in both slots."""
    return all(h.contains(w) for v in h.rows for w in nabla_images(conn, v))


def left_op(conn: ConnectionCoeffs, i) -> Mat:
    """Matrix of y ↦ ∇_{e_i} y (column action)."""
    n = conn.dim
    return Mat.from_rows([[conn.gamma[i][j][k] for j in range(n)]
                          for k in range(n)], n)


def right_op(conn: ConnectionCoeffs, j) -> Mat:
    """Matrix of x ↦ ∇_x e_j (column action)."""
    n = conn.dim
    return Mat.from_rows([[conn.gamma[i][j][k] for i in range(n)]
                          for k in range(n)], n)


def left_ops(conn):
    return tuple(left_op(conn, i) for i in range(conn.dim))


def right_ops(conn):
    return tuple(right_op(conn, j) for j in range(conn.dim))


def check_torsion_and_compatibility(gamma, spec: AlgebraSpec):
    """Zero torsion: ∇_XY − ∇_YX = [X,Y]; compatibility:
    ⟨∇_XY, Z⟩ + ⟨Y, ∇_XZ⟩ = 0 on a raw table.  Returns (ok, defects)."""
    n = spec.dim
    defects = []
    for i in range(n):
        for j in range(i + 1, n):
            d = lin_comb((1, -1, -1),
                         (gamma[i][j], gamma[j][i], spec.brackets[i][j]), n)
            if not vec_is_zero(d):
                defects.append(("torsion", (i, j), d))
    # lowered[i][j][k] = ⟨∇_{e_i} e_j, e_k⟩ = (G·Γ_ij)_k
    lowered = [[row_apply(v, spec.gram) for v in row] for row in gamma]
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                d = lowered[i][j][k] + lowered[i][k][j]
                if d != 0:
                    defects.append(("compatibility", (i, j, k), d))
    return (not defects), tuple(defects)


def derive_connection(spec: AlgebraSpec) -> ConnectionCoeffs:
    """Solve the product-rule identity for the unique torsion-free metric
    connection of the bracket table: with c_ijk = ⟨[e_i,e_j], e_k⟩,
    ⟨∇_{e_i} e_j, e_k⟩ = ½(c_ijk − c_jki + c_kij), and Γ_ij is that
    covector times G⁻¹."""
    n = spec.dim
    form = spec.metric
    if not form.is_nondegenerate():
        raise PreconditionError("metric is degenerate; connection is not determined")
    # G⁻¹ is symmetric, so Γ_ij = Σ_k (c_ijk − c_jki + c_kij)·(row k of ½G⁻¹):
    # one contraction of the three covectors against ½G⁻¹ stacked three times
    half = form.gram.inverse().scale(Fraction(1, 2)).entries * 3
    c = [[row_apply(v, form.gram) for v in row] for row in spec.brackets]
    gamma = []
    for i in range(n):
        # −c_jki and c_kij as vectors over k, for each j
        jki = [tuple(-c[j][k][i] for k in range(n)) for j in range(n)]
        kij = [tuple(c[k][i][j] for k in range(n)) for j in range(n)]
        gamma.append(tuple(lin_comb(c[i][j] + jki[j] + kij[j], half, n)
                           for j in range(n)))
    conn = ConnectionCoeffs(tuple(gamma))
    ok, defects = check_torsion_and_compatibility(conn.gamma, spec)
    assert ok, f"derived connection fails its defining identities: {defects[:3]}"
    return conn


def connection_of(spec: AlgebraSpec) -> ConnectionCoeffs:
    """The structure's connection table: the override (checked) in
    connection mode, the derived one in bracket mode.  Kept on the spec
    after the first call; a table that fails is refused on every call."""
    if spec._connection is not None:
        return spec._connection
    if spec.mode == MODE_CONNECTION:
        ok, defects = check_torsion_and_compatibility(spec.connection_override, spec)
        if not ok:
            raise PreconditionError(
                "connection table fails the defining identities: "
                + "; ".join(f"{kind} at {idx}" for kind, idx, _ in defects[:5]))
        conn = ConnectionCoeffs(spec.connection_override)
    else:
        conn = derive_connection(spec)
    object.__setattr__(spec, "_connection", conn)
    return conn


def restrict(spec: AlgebraSpec, h: Subspace) -> AlgebraSpec:
    """Restrict the structure to a strong ideal h.  Basis vectors are the
    rows of h's canonical basis, named after the original basis name at
    each pivot position plus a prime.  The connection is torsion-free, so
    the restricted bracket table is the antisymmetrized Γ sub-table, and
    the sub-structure keeps that sub-table as its connection."""
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
    gamma = tuple(tuple(h.coords(table_apply(conn.gamma, x, y)) for y in h.rows)
                  for x in h.rows)
    if spec.mode == MODE_CONNECTION:
        sub_spec = AlgebraSpec.from_connection(names, gamma, sub_form)
    else:
        sub_spec = AlgebraSpec(h.dim, names, antisymmetrize(gamma), sub_form)
    object.__setattr__(sub_spec, "_connection", ConnectionCoeffs(gamma))
    return sub_spec


def transform_spec(spec: AlgebraSpec, p: Mat) -> AlgebraSpec:
    """The same structure written on the basis whose vectors are the rows
    of p (in old coordinates).  p must be invertible."""
    n = spec.dim
    assert p.shape == (n, n)
    pinv = p.inverse()
    gram = SymForm(p @ spec.gram @ p.transpose())
    connection = spec.mode == MODE_CONNECTION
    old = spec.connection_override if connection else spec.brackets
    table = tuple(tuple(row_apply(table_apply(old, x, y), pinv)
                        for y in p.entries) for x in p.entries)
    if connection:
        return AlgebraSpec.from_connection(spec.basis_names, table, gram)
    return AlgebraSpec(n, spec.basis_names, table, gram)
