"""Annihilator subspaces and strong ideals.

Ann_R = {X : ∇_Y X = 0 for all Y} (the joint kernel of the left
multiplication operators), Ann = Ann_R ∩ {X : ∇_X Y = 0 for all Y}.
For a nondegenerate metric, Ann_R = (∇gg)^⊥ — compatibility moves the
left slot across the pairing — and the report asserts that identity as a
self-check.  A strong ideal is a subspace closed under ∇ in both slots;
strong ideals are automatically Lie ideals since the bracket is the
antisymmetrized table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraSpec,
    ConnectionCoeffs,
    connection_of,
    is_strong_ideal,  # defined next to nabla_images; re-exported here
    left_ops,
    nabla_images,
    right_ops,
)
from .linalg import (
    Mat,
    Subspace,
    SymForm,
    kernel,
    orthogonal_complement,
    radical,
    subspace_intersect,
)

CASE_ANN_R_FULL = "ANN_R_FULL"
CASE_ANN_R_ZERO = "ANN_R_ZERO"
CASE_ISOTROPIC = "ISOTROPIC"
CASE_ANN_R_EQ_ANN = "ANN_R_EQ_ANN"
CASE_NON_ISOTROPIC = "NON_ISOTROPIC"


def nabla_gg(conn: ConnectionCoeffs) -> Subspace:
    """Span of all values ∇_X Y."""
    n = conn.dim
    return Subspace.from_vectors(n, [conn.gamma[i][j]
                                     for i in range(n) for j in range(n)])


def _joint_kernel(ops, n):
    rows = []
    for op in ops:
        if op.is_zero():
            continue
        rows.extend(op.entries)
    if not rows:
        return Subspace.full(n)
    return kernel(Mat.from_rows(rows, n))


def ann_r(conn: ConnectionCoeffs) -> Subspace:
    return _joint_kernel(left_ops(conn), conn.dim)


def ann(conn: ConnectionCoeffs) -> Subspace:
    return subspace_intersect(ann_r(conn),
                              _joint_kernel(right_ops(conn), conn.dim))


def is_isotropic(h: Subspace, form: SymForm) -> bool:
    return form.restrict(h).gram.is_zero()


def strong_ideal_closure(s: Subspace, conn: ConnectionCoeffs) -> Subspace:
    """Smallest strong ideal containing s: saturate under both ∇ slots."""
    n = conn.dim
    current = s
    while True:
        nxt = Subspace.from_vectors(
            n, list(current.rows)
            + [w for v in current.rows for w in nabla_images(conn, v)])
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
    n = spec.dim
    conn = connection_of(spec)
    a_r = ann_r(conn)
    a = subspace_intersect(a_r, _joint_kernel(right_ops(conn), conn.dim))
    ngg = nabla_gg(conn)
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
    return AnnReport(ann_r=a_r, ann=a, nabla_gg=ngg, ann_r_radical=rad,
                     isotropic=iso, ann_r_equals_ann=eq, case=case)
