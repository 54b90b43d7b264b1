"""Curvature, Ricci and Killing data, and the classification report.

Conventions: R(X,Y)Z = ∇_X ∇_Y Z − ∇_Y ∇_X Z − ∇_{[X,Y]} Z, and the Ricci
matrix is ric[i][j] = trace of Z ↦ R(Z, e_i) e_j.  Killing form
K(X,Y) = tr(ad X ∘ ad Y).  Everything is exact.

All of it reads c_ij^a = brackets[i][j][a] and Γ_ij^a = gamma[i][j][a]
(index conventions in `algebra`): R(e_i,e_j)e_k = Σ_a Γ_jk^a Γ_ia −
Σ_a Γ_ik^a Γ_ja − Σ_a c_ij^a Γ_ak for i < j (one `lin_comb` call over
the concatenated coefficients and vectors) and R(e_j,e_i) = −R(e_i,e_j);
K_ij = Σ_{a,b} c_ia^b c_jb^a, symmetric (one `dot` per entry);
bi-invariance is (G·c_ij)_k + (G·c_ik)_j = 0; the lower central series
steps by [e_i, v] = Σ_j v_j c_ij.

Ricci is read off the connection operators without the tensor.  With
L_i: y ↦ ∇_{e_i} y, R_j: x ↦ ∇_x e_j ((R_j)^a_m = Γ_mj^a) and
τ_a = tr R_a = Σ_m Γ_ma^m, summing the m-th coordinate of R(e_m,e_i)e_j
over m gives ric_ij = Σ_a Γ_ij^a τ_a − tr(L_i R_j) + tr(ad_i R_j).  Every
table `connection_of` accepts is torsion-free, so L_i − ad_i = R_i and
ric_ij = ⟨Γ_ij, τ⟩ − tr(R_i R_j) = Σ_a Γ_ij^a τ_a − Σ_{a,m} Γ_mi^a Γ_aj^m:
O(n⁴), and a zero entry of R_i never reads R_j.  R = 0 implies ric = 0,
so `classify` builds the O(n⁵) tensor only for a Ricci-flat structure;
the `curvature` command and `decompose.flat_riemannian_structure` build it
outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraSpec,
    MODE_BRACKET,
    connection_of,
    left_images,
    table_apply,
)
from .linalg import (Mat, Subspace, dot, lin_comb, row_apply, vec_is_zero,
                     zero_vec)


@dataclass(frozen=True)
class CurvatureTensor:
    coeffs: tuple   # coeffs[i][j][k] = coordinates of R(e_i, e_j) e_k

    @property
    def dim(self):
        return len(self.coeffs)

    def apply(self, x, y, z):
        return lin_comb(x, [table_apply(plane, y, z) if xi else None
                            for xi, plane in zip(x, self.coeffs)], self.dim)

    def is_zero(self):
        return all(vec_is_zero(v) for plane in self.coeffs
                   for row in plane for v in row)


def curvature_tensor(spec: AlgebraSpec) -> CurvatureTensor:
    """R(e_i,e_j)e_k for i < j is one contraction,
    lin_comb(Γ_jk + (−Γ_ik) + (−c_ij), Γ_i + Γ_j + cols[k]) with
    cols[k][a] = Γ_ak, so each coordinate is normalized once."""
    n = spec.dim
    g = connection_of(spec).gamma
    cols = tuple(tuple(row[k] for row in g) for k in range(n))   # cols[k][a] = Γ_ak
    out = [[(zero_vec(n),) * n] * n for _ in range(n)]
    for i in range(n):
        neg = tuple(tuple(-x for x in v) for v in g[i])   # neg[k] = −Γ_ik
        for j in range(i + 1, n):
            negc = tuple(-x for x in spec.brackets[i][j])
            gij = g[i] + g[j]
            plane = tuple(lin_comb(g[j][k] + neg[k] + negc, gij + cols[k], n)
                          for k in range(n))
            out[i][j] = plane
            out[j][i] = tuple(tuple(-x for x in v) for v in plane)
    return CurvatureTensor(tuple(tuple(row) for row in out))


def ricci(spec: AlgebraSpec) -> Mat:
    """Row i is one `lin_comb`: ric_ij = Σ_a τ_a Γ_ij^a − Σ_{a,m} Γ_mi^a Γ_aj^m
    over the vectors (Γ_aj^m)_j (module docstring)."""
    n = spec.dim
    g = connection_of(spec).gamma
    tau = [sum((g[m][a][m] for m in range(n)), Fraction(0)) for a in range(n)]
    # over[a][m] = (Γ_aj^m)_j, the vector over j read at coordinate m
    over = [tuple(tuple(row[m] for row in g[a]) for m in range(n))
            for a in range(n)]
    flat = tuple(v for rows in over for v in rows)
    return Mat.from_rows(
        [lin_comb(tau + [-g[m][i][a] for a in range(n) for m in range(n)],
                  over[i] + flat, n) for i in range(n)], n)


def ad_matrix(spec: AlgebraSpec, i) -> Mat:
    """Matrix of ad e_i = [e_i, ·] (column action)."""
    n = spec.dim
    return Mat.from_rows([[spec.brackets[i][j][k] for j in range(n)]
                          for k in range(n)], n)


def killing_form(spec: AlgebraSpec) -> Mat:
    """K_ij = `dot` of (c_ia^b) and (c_jb^a), both flattened over (a, b)."""
    n = spec.dim
    c = spec.brackets
    flat = [sum(row, ()) for row in c]             # c_ia^b at a·n + b
    swapped = [sum(zip(*row), ()) for row in c]   # c_jb^a at a·n + b
    k = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            k[i][j] = k[j][i] = dot(flat[i], swapped[j])
    return Mat.from_rows(k, n)


def is_biinvariant(spec: AlgebraSpec) -> bool:
    """⟨[X,Y],Z⟩ + ⟨Y,[X,Z]⟩ = 0 on all basis triples."""
    n = spec.dim
    for row in spec.brackets:
        lowered = [row_apply(v, spec.gram) for v in row]   # (G·c_ij)_k
        for j in range(n):
            for k in range(j, n):
                if lowered[j][k] + lowered[k][j] != 0:
                    return False
    return True


def nilpotency_class(spec: AlgebraSpec):
    """Length of the lower central series, or None if it stabilizes above
    zero (not nilpotent).  Only meaningful for honest bracket tables."""
    n = spec.dim
    current = Subspace.full(n)
    c = 0
    while current.dim > 0:
        nxt = Subspace.from_vectors(
            n, [w for v in current.rows for w in left_images(spec.brackets, v)])
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


def classify(spec: AlgebraSpec) -> ClassificationReport:
    n = spec.dim
    ric = ricci(spec)
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
        flat=ricci_flat and curvature_tensor(spec).is_zero(),
        ricci_flat=ricci_flat,
        einstein=einstein,
        biinvariant=is_biinvariant(spec),
        nilpotency_class=nclass,
        killing=killing_form(spec),
    )
