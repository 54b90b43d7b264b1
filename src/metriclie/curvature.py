"""Curvature, Ricci and Killing data, and the classification report.

Conventions: R(X,Y)Z = ∇_X ∇_Y Z − ∇_Y ∇_X Z − ∇_{[X,Y]} Z, and the Ricci
matrix is ric[i][j] = trace of Z ↦ R(Z, e_i) e_j.  Killing form
K(X,Y) = tr(ad X ∘ ad Y).  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraSpec, ConnectionCoeffs, MODE_BRACKET, nabla_apply
from .linalg import Mat, Subspace, unit_vec, vec_is_zero, vec_sub


@dataclass(frozen=True)
class CurvatureTensor:
    coeffs: tuple   # coeffs[i][j][k] = coordinates of R(e_i, e_j) e_k

    @property
    def dim(self):
        return len(self.coeffs)

    def apply(self, x, y, z):
        n = self.dim
        out = (Fraction(0),) * n
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                for k, zk in enumerate(z):
                    if zk == 0:
                        continue
                    c = xi * yj * zk
                    out = tuple(o + c * w for o, w in zip(out, self.coeffs[i][j][k]))
        return out

    def is_zero(self):
        return all(vec_is_zero(v) for plane in self.coeffs
                   for row in plane for v in row)

    def ricci(self) -> Mat:
        """ric[i][j] = trace of Z ↦ R(Z, e_i) e_j."""
        n = self.dim
        return Mat.from_rows(
            [[sum((self.coeffs[m][i][j][m] for m in range(n)), Fraction(0))
              for j in range(n)] for i in range(n)], n)


def curvature_tensor(spec: AlgebraSpec, conn: ConnectionCoeffs) -> CurvatureTensor:
    n = spec.dim
    out = []
    for i in range(n):
        ei = unit_vec(n, i)
        plane = []
        for j in range(n):
            ej = unit_vec(n, j)
            bij = spec.brackets[i][j]
            row = []
            for k in range(n):
                ek = unit_vec(n, k)
                v = nabla_apply(conn, ei, conn.gamma[j][k])
                v = vec_sub(v, nabla_apply(conn, ej, conn.gamma[i][k]))
                v = vec_sub(v, nabla_apply(conn, bij, ek))
                row.append(v)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return CurvatureTensor(tuple(out))


def ricci(spec: AlgebraSpec, conn: ConnectionCoeffs) -> Mat:
    return curvature_tensor(spec, conn).ricci()


def ad_matrix(spec: AlgebraSpec, i) -> Mat:
    """Matrix of ad e_i = [e_i, ·] (column action)."""
    n = spec.dim
    return Mat.from_rows([[spec.brackets[i][j][k] for j in range(n)]
                          for k in range(n)], n)


def killing_form(spec: AlgebraSpec) -> Mat:
    n = spec.dim
    ads = [ad_matrix(spec, i) for i in range(n)]
    return Mat.from_rows([[(ads[i] @ ads[j]).trace() for j in range(n)]
                          for i in range(n)], n)


def is_biinvariant(spec: AlgebraSpec) -> bool:
    """⟨[X,Y],Z⟩ + ⟨Y,[X,Z]⟩ = 0 on all basis triples."""
    n = spec.dim
    form = spec.metric
    for i in range(n):
        for j in range(n):
            ej = unit_vec(n, j)
            for k in range(j, n):
                ek = unit_vec(n, k)
                if form.pair(spec.brackets[i][j], ek) + \
                        form.pair(ej, spec.brackets[i][k]) != 0:
                    return False
    return True


def nilpotency_class(spec: AlgebraSpec):
    """Length of the lower central series, or None if it stabilizes above
    zero (not nilpotent).  Only meaningful for honest bracket tables."""
    n = spec.dim
    current = Subspace.full(n)
    c = 0
    while current.dim > 0:
        nxt_vectors = []
        for i in range(n):
            ei = unit_vec(n, i)
            for v in current.rows:
                nxt_vectors.append(spec.bracket_apply(ei, v))
        nxt = Subspace.from_vectors(n, nxt_vectors)
        if nxt == current:
            return None
        current = nxt
        c += 1
    return c


@dataclass(frozen=True)
class ClassificationReport:
    flat: bool
    ricci_flat: bool
    einstein: Fraction | None   # constant c with ric = c·gram, else None
    biinvariant: bool
    nilpotency_class: int | None
    killing: Mat


def classify(spec: AlgebraSpec, conn: ConnectionCoeffs) -> ClassificationReport:
    n = spec.dim
    r = curvature_tensor(spec, conn)
    ric = r.ricci()
    ricci_flat = ric.is_zero()

    einstein = None
    if ricci_flat:
        einstein = Fraction(0)
    else:
        probe = None
        for i in range(n):
            for j in range(n):
                if spec.gram.entries[i][j] != 0:
                    probe = ric.entries[i][j] / spec.gram.entries[i][j]
                    break
            if probe is not None:
                break
        if probe is not None and ric == spec.gram.scale(probe):
            einstein = probe

    nclass = None
    if spec.mode == MODE_BRACKET:
        nclass = nilpotency_class(spec)

    return ClassificationReport(
        flat=r.is_zero(),
        ricci_flat=ricci_flat,
        einstein=einstein,
        biinvariant=is_biinvariant(spec),
        nilpotency_class=nclass,
        killing=killing_form(spec),
    )
