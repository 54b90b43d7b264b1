"""Annihilator subspaces and strong ideals.

Ann_R = {X : ∇_Y X = 0 for all Y} (the joint kernel of the left
multiplication operators L_i = ∇_{e_i}·), Ann = Ann_R ∩ {X : ∇_X Y = 0
for all Y} (the joint kernel of the L_i and the R_j = ∇_·e_j), and ∇gg is
the span of all values ∇_X Y (the column span of the L_i).  A vector
killed by some operators is killed by their span, and the column span of
a combination lies in the sum of the column spans, so all three are read
off one basis of span{L_i, R_j} (`operator_basis`): its left part spans
span{L_i}.  Ann is one joint kernel, not an intersection.  For a
nondegenerate metric, Ann_R = (∇gg)^⊥ — compatibility moves the left slot
across the pairing — and the report asserts that identity as a
self-check.  A strong ideal is a subspace closed under ∇ in both slots,
so kept by each operator T of that basis: the rows of H·Tᵀ lie in it,
for its basis H.  Strong ideals are automatically Lie ideals since the
bracket is the antisymmetrized table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraSpec,
    ConnectionCoeffs,
    connection_of,
    is_strong_ideal,  # defined next to operator_basis; re-exported here
    operator_basis,
)
from .linalg import (
    Mat,
    Subspace,
    SymForm,
    kernel,
    orthogonal_complement,
    radical,
)

CASE_ANN_R_FULL = "ANN_R_FULL"
CASE_ANN_R_ZERO = "ANN_R_ZERO"
CASE_ISOTROPIC = "ISOTROPIC"
CASE_ANN_R_EQ_ANN = "ANN_R_EQ_ANN"
CASE_NON_ISOTROPIC = "NON_ISOTROPIC"


def nabla_gg(conn: ConnectionCoeffs) -> Subspace:
    """Span of all values ∇_X Y: the columns Γ_ij of the left operators
    of `operator_basis`, read off their images (scale leaves the span)."""
    left, _ = operator_basis(conn)
    return Subspace.from_vectors(
        conn.dim, [c for m in left for c in zip(*m.image()[1])])


def _joint_kernel(ops, n):
    """{x : T·x = 0 for each Mat T in ops}, from their stacked images."""
    rows = [r for m in ops for r in m.image()[1]]
    return kernel(Mat.from_image(1, rows, (len(rows), n)))


def ann_r(conn: ConnectionCoeffs) -> Subspace:
    left, _ = operator_basis(conn)
    return _joint_kernel(left, conn.dim)


def ann(conn: ConnectionCoeffs) -> Subspace:
    left, right = operator_basis(conn)
    return _joint_kernel(left + right, conn.dim)


def is_isotropic(h: Subspace, form: SymForm) -> bool:
    return form.restrict(h).gram.is_zero()


def strong_ideal_closure(s: Subspace, conn: ConnectionCoeffs) -> Subspace:
    """Smallest strong ideal containing s: saturate under both ∇ slots,
    adding the rows of H·Tᵀ for each operator T of `operator_basis`."""
    left, right = operator_basis(conn)
    ts = [t.transpose() for t in left + right]
    current = s
    while True:
        h = current.basis
        nxt = Subspace.from_vectors(conn.dim, [
            r for m in [h] + [h @ t for t in ts] for r in m.image()[1]])
        if nxt == current:
            return current
        current = nxt


@dataclass(frozen=True)
class AnnReport:
    ann_r: Subspace
    ann: Subspace
    nabla_gg: Subspace
    ann_r_radical: Subspace
    isotropic: bool          # Ann_R isotropic?
    ann_r_equals_ann: bool
    case: str


def ann_report(spec: AlgebraSpec) -> AnnReport:
    if spec._ann_report is not None:   # derived once, kept on the spec
        return spec._ann_report
    n = spec.dim
    conn = connection_of(spec)
    a_r, a, ngg = ann_r(conn), ann(conn), nabla_gg(conn)
    form = spec.metric
    if form.is_nondegenerate():
        assert a_r == orthogonal_complement(ngg, form), \
            "Ann_R must be the orthogonal complement of the nabla span"
    rad = radical(a_r, form)
    iso = is_isotropic(a_r, form)
    eq = a_r == a
    if a_r.dim == n:
        case = CASE_ANN_R_FULL
    elif a_r.dim == 0:
        case = CASE_ANN_R_ZERO
    elif iso:
        case = CASE_ISOTROPIC
    elif eq:
        case = CASE_ANN_R_EQ_ANN
    else:
        case = CASE_NON_ISOTROPIC
    rep = AnnReport(ann_r=a_r, ann=a, nabla_gg=ngg, ann_r_radical=rad,
                    isotropic=iso, ann_r_equals_ann=eq, case=case)
    object.__setattr__(spec, "_ann_report", rep)
    return rep
