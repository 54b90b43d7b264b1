"""Curvature, Ricci and Killing data, and the classification report.

Conventions: R(X,Y)Z = ∇_X ∇_Y Z − ∇_Y ∇_X Z − ∇_{[X,Y]} Z, and the Ricci
matrix is ric[i][j] = trace of Z ↦ R(Z, e_i) e_j.  Killing form
K(X,Y) = tr(ad X ∘ ad Y).  Everything is exact.

All of it reads the tables' Mats, row i·n + j = c_ij or Γ_ij (index
conventions in `algebra`): R(e_i,e_j)e_k = Σ_b Γ_jk^b Γ_ib −
Σ_b Γ_ik^b Γ_jb − Σ_b c_ij^b Γ_bk for i < j and R(e_j,e_i) = −R(e_i,e_j);
K_ij = Σ_{a,b} c_ia^b c_jb^a, symmetric (`linalg.trace_form`);
bi-invariance is (G·c_ij)_k + (G·c_ik)_j = 0; the lower central series
steps by [e_i, v] = Σ_j v_j c_ij, for every basis row v at once
(`linalg.table_pairs(c, I, basis)`).

Ricci is read off the connection operators without the tensor.  With
L_i: y ↦ ∇_{e_i} y, R_j: x ↦ ∇_x e_j ((R_j)^a_m = Γ_mj^a) and
τ_a = tr R_a = Σ_m Γ_ma^m, summing the m-th coordinate of R(e_m,e_i)e_j
over m gives ric_ij = Σ_a Γ_ij^a τ_a − tr(L_i R_j) + tr(ad_i R_j).  Every
table `connection_of` accepts is torsion-free, so L_i − ad_i = R_i and
ric_ij = ⟨Γ_ij, τ⟩ − tr(R_i R_j) = Σ_a Γ_ij^a τ_a − Σ_{a,m} Γ_mi^a Γ_aj^m:
O(n⁴), and a zero entry of R_i never reads R_j.

The tensor and the Ricci form are integer multiply-adds on the kept image
of Γ's table (`ConnectionCoeffs.table`), D its denominator; the table is
torsion-free, so Dc_ij = DΓ_ij − DΓ_ji comes from the same image:
  D²·R(e_i,e_j)e_k = Σ_b (DΓ_jk^b)(DΓ_ib) − (DΓ_ik^b)(DΓ_jb) − (Dc_ij^b)(DΓ_bk),
  D²·ric_ij = Σ_a (DΓ_ij^a)(Dτ_a) − Σ_{a,m} (DΓ_mi^a)(DΓ_aj^m),
  Dτ_a = Σ_m DΓ_ma^m,
each summed over the nonzero pairs of the image (`linalg.int_image`).
The tensor is a table too, the Mat of its n³ vectors (row (i·n + j)·n + k
= R(e_i,e_j)e_k), held as the image of those sums with the R(e_j,e_i)
planes negated in ints, and the Ricci sums are a Mat's image: Fractions
are built only when entries are read.  Bi-invariance and the Killing form
read the bracket table's image; the tensor applied to vectors is
`linalg.table_apply`.
R = 0 implies ric = 0, so `classify` builds the O(n⁵) tensor only for a
Ricci-flat structure; the `curvature` command and
`decompose.flat_riemannian_structure` build it outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraSpec, MODE_BRACKET, connection_of, skew_defects
from .linalg import (Mat, Subspace, int_image, row_space, select_rows,
                     table_apply, table_pairs, trace_form)


@dataclass(frozen=True)
class CurvatureTensor:
    table: Mat   # row (i·n + j)·n + k = coordinates of R(e_i, e_j) e_k

    @property
    def dim(self):
        return self.table.ncols

    def apply(self, x, y, z):
        return table_apply(self.table, x, y, z)

    def is_zero(self):
        return self.table.is_zero()


def curvature_tensor(spec: AlgebraSpec) -> CurvatureTensor:
    """D²·R(e_i,e_j)e_k = Σ_b (DΓ_jk^b)(DΓ_ib) − (DΓ_ik^b)(DΓ_jb) −
    (Dc_ij^b)(DΓ_bk) for i < j, summed in ints over the nonzero pairs of
    Γ's image (g[i·n + j] = D·Γ_ij), with Dc_ij = g[i·n + j] − g[j·n + i];
    the plane R(e_j,e_i) is the plane R(e_i,e_j) negated in ints, and the
    tensor's table is the image of the sums over D²."""
    n = spec.dim
    d, g, nz = int_image(connection_of(spec).table)
    planes = [[[0] * n] * n] * (n * n)   # plane i·n + j holds R(e_i,e_j)
    for i in range(n):
        for j in range(i + 1, n):
            c = [(b, x - y) for b, (x, y) in
                 enumerate(zip(g[i * n + j], g[j * n + i])) if x != y]
            plane = []
            for k in range(n):
                acc = [0] * n
                for b, x in nz[j * n + k]:
                    for m, y in nz[i * n + b]:
                        acc[m] += x * y
                for b, x in nz[i * n + k]:
                    for m, y in nz[j * n + b]:
                        acc[m] -= x * y
                for b, x in c:
                    for m, y in nz[b * n + k]:
                        acc[m] -= x * y
                plane.append(acc)
            planes[i * n + j] = plane
            planes[j * n + i] = [[-x for x in r] for r in plane]
    return CurvatureTensor(Mat.from_image(
        d * d, [r for plane in planes for r in plane], (n ** 3, n)))


def ricci(spec: AlgebraSpec) -> Mat:
    """D²·ric_ij = Σ_a (DΓ_ij^a)(Dτ_a) − Σ_{a,m} (DΓ_mi^a)(DΓ_aj^m) with
    Dτ_a = Σ_m DΓ_ma^m (module docstring), summed in ints over the nonzero
    pairs of Γ's image (g[i·n + j] = D·Γ_ij); the sums over D² are the
    Mat's image, so its Fractions are built only when read."""
    n = spec.dim
    d, g, nz = int_image(connection_of(spec).table)
    tau = [sum(g[m * n + a][m] for m in range(n)) for a in range(n)]
    # over[a·n + m] = the nonzero pairs (j, D·Γ_aj^m) of the vector over j
    over = [[(j, x) for j in range(n) if (x := g[a * n + j][m])]
            for a in range(n) for m in range(n)]
    rows = []
    for i in range(n):
        acc = [sum(x * tau[a] for a, x in nz[i * n + j]) for j in range(n)]
        for m in range(n):
            for a, x in nz[m * n + i]:
                for j, y in over[a * n + m]:
                    acc[j] -= x * y
        rows.append(acc)
    return Mat.from_image(d * d, rows, (n, n))


def ad_matrix(spec: AlgebraSpec, i) -> Mat:
    """Matrix of ad e_i = [e_i, ·] (column action): columns c_i0 …
    c_i,n−1, the transpose of the bracket table's rows i·n … i·n + n − 1."""
    n = spec.dim
    return select_rows(spec.bracket_table, range(i * n, i * n + n)).transpose()


def killing_form(spec: AlgebraSpec) -> Mat:
    """K_ij = tr(ad e_i ∘ ad e_j) = Σ_{a,b} c_ia^b c_jb^a: the trace form of
    the matrices of `ad_matrix`."""
    return trace_form([ad_matrix(spec, i) for i in range(spec.dim)])


def is_biinvariant(spec: AlgebraSpec) -> bool:
    """⟨[X,Y],Z⟩ + ⟨Y,[X,Z]⟩ = 0 on all basis triples: the metric
    compatibility test of `algebra.skew_defects`, applied to c; it stops at
    the first nonzero defect."""
    _, sums = skew_defects(spec.bracket_table, spec.metric)
    return next(sums, None) is None


def nilpotency_class(spec: AlgebraSpec):
    """Length of the lower central series, or None if it stabilizes above
    zero (not nilpotent).  Only meaningful for honest bracket tables.  The
    next term is spanned by the rows [e_i, v] of `table_pairs(c, I, basis)`."""
    n = spec.dim
    current = Subspace.full(n)
    c = 0
    while current.dim > 0:
        nxt = row_space(table_pairs(spec.bracket_table, Mat.identity(n),
                                    current.basis))
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
    ric = ricci(spec)
    ricci_flat = ric.is_zero()

    einstein = None
    if ricci_flat:
        einstein = Fraction(0)
    else:   # probe r·D_g/(D_r·g) at the first nonzero Gram entry g
        (dg, g), (dr, r) = spec.gram.image(), ric.image()
        first = next(((x, y) for gx, rx in zip(g, r) for x, y in zip(gx, rx)
                      if x), None)
        if first is not None:
            probe = Fraction(first[1] * dg, dr * first[0])
            if ric == spec.gram.scale(probe):
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
