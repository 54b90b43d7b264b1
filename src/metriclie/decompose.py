"""Decomposition into indecomposable nondegenerate strong ideals, with
machine-checkable certificates, plus the uniqueness machinery: factor
matching, strong-isometry construction, the filtration chain for the
uncovered case, and the flat-Riemannian splitting.

The splitting engine works in the commutant of the 2n connection
operators: a nontrivial idempotent there cuts the structure into two
complementary strong ideals.  One search (`_search`) looks for such an
idempotent in the coprime factorizations of minimal polynomials of
commutant elements (basis elements first, then pairwise sums/differences,
then seeded random combinations) and, when none turns up, returns the
indecomposability evidence instead.  A local commutant skips the loop:
by Dickson's criterion (in characteristic 0, rad C is the radical of the
trace form tr(xy) on C), a trace form of rank 1 means C = Q·1 ⊕ rad C,
whose elements all have a minimal polynomial (t − λ)^k that no coprime
split can cut, so there the SEARCH_EXHAUSTED detail is proven, not
enumerated.  `decompose` recurses on the pieces
of each split; `decomposition_from_factors` runs the same search on each
supplied factor and refuses one that splits.  A piece is carried as a
subspace of the whole space and restricted once, from the top structure,
and that restriction is its one strong-ideal and nondegeneracy test (see
"Pieces" below).  Both hand their pieces to one packager, which
re-verifies every claim from scratch before a Decomposition is returned;
`--recheck` in the CLI is the same verification run again.  Each function
takes a structure alone and reads the connection it carries
(`connection_of`), so a certificate is checked against the structure's
own connection, and a piece keeps the Γ sub-table `restrict` built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraSpec,
    ConnectionCoeffs,
    connection_of,
    left_images,
    left_ops,
    nabla_apply,
    restrict,
    right_images,
    right_ops,
)
from .curvature import curvature_tensor
from .errors import CertificateError, PreconditionError
from .ideals import (
    CASE_ANN_R_EQ_ANN,
    CASE_ANN_R_FULL,
    CASE_ANN_R_ZERO,
    CASE_ISOTROPIC,
    CASE_NON_ISOTROPIC,
    ann,
    ann_r,
    ann_report,
    is_isotropic,
    is_strong_ideal,
    nabla_gg,
)
from .linalg import (
    Mat,
    Subspace,
    column_space,
    congruent_diagonalize,
    coprime_split,
    _kernel_ints,
    kernel,
    lin_comb,
    minimal_polynomial,
    orthogonal_complement,
    poly_eval_mat,
    poly_mul,
    poly_xgcd,
    radical,
    rational_sqrt,
    row_apply,
    solve,
    subspace_complement,
    subspace_intersect,
    subspace_sum,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)

DEFAULT_SEED = 0xC0FFEE
DEFAULT_BUDGET = 64

EVIDENCE_COMMUTANT_TRIVIAL = "COMMUTANT_TRIVIAL"
EVIDENCE_SEARCH_EXHAUSTED = "SEARCH_EXHAUSTED"
EVIDENCE_NOT_CLAIMED = "NOT_CLAIMED"
EVIDENCE_KINDS = (EVIDENCE_COMMUTANT_TRIVIAL, EVIDENCE_SEARCH_EXHAUSTED,
                  EVIDENCE_NOT_CLAIMED)


@dataclass(frozen=True)
class LinearMap:
    matrix: Mat   # column action

    def apply(self, v):
        return self.matrix.apply(v)


@dataclass(frozen=True)
class Evidence:
    kind: str
    detail: str


@dataclass(frozen=True)
class Certificate:
    splitting_idempotents: tuple   # one per factor: projection onto it
    indecomposability_evidence: tuple   # parallel to factors


@dataclass(frozen=True)
class Decomposition:
    factors: tuple
    g0: Subspace | None
    certificate: Certificate
    orthogonal: bool
    case: str
    note: str | None = None


@dataclass(frozen=True)
class Unsupported:
    reason: str


def _req(cond, msg):
    if not cond:
        raise CertificateError(msg)


# ---------------------------------------------------------------------------
# Pieces: a piece of the structure is a subspace of the whole space (its
# carrier), and its tables come from one `restrict` of the top structure.
#
# Restricting from the top gives the same tables as restricting through the
# pieces it was cut from.  Let c have canonical (RREF) basis C and let h be
# a subspace of Q^{dim c} with canonical basis H.  C's pivot columns are
# identity columns, so H·C is in RREF, with pivots at C's pivots picked by
# H's: H·C is the canonical basis of h's image in the whole space.
# Coordinates in it are read at those pivots, which is where coordinates in
# C and then in H are read, so restricting to h inside c and restricting to
# the image of h give equal Γ, bracket and metric tables.


def _to_ambient(carrier, local_sub):
    """The image in the whole space of a subspace given in the coordinates
    of `carrier`'s canonical basis."""
    rows = [row_apply(r, carrier.basis) for r in local_sub.rows]
    return Subspace.from_vectors(carrier.ambient_dim, rows)


# ---------------------------------------------------------------------------
# Commutant and splitting idempotents


def _commutator_rows(m, n):
    """The n² conditions (TM − MT)_ab = 0 on T, for M scaled to integers by
    the lcm of its denominators (the rows span the same space).  T is
    flattened column-major, T[x][y] at y·n + x: on generic bases the
    integer echelon of these rows grows far less than row-major (on the
    first 12-dimensional system of the commutant tests it runs about 8×
    faster).  Each row is a list of (column, integer) pairs, zeros left
    out."""
    d = math.lcm(*(x.denominator for row in m.entries for x in row))
    me = [[x.numerator * (d // x.denominator) for x in row]
          for row in m.entries]
    rows = []
    for a in range(n):
        for b in range(n):
            row = {}
            for c in range(n):
                if me[c][b]:
                    row[c * n + a] = row.get(c * n + a, 0) + me[c][b]
                if me[a][c]:
                    row[b * n + c] = row.get(b * n + c, 0) - me[a][c]
            rows.append([(j, v) for j, v in row.items() if v])
    return rows


def commutant(conn: ConnectionCoeffs):
    """Basis (tuple of Mat) of {T : T commutes with every ∇-operator in
    either slot}, in canonical (RREF) order over T flattened row-major.

    One operator at a time, in integers: the first operator's conditions
    TM − MT = 0 are solved on all of M_n, and each later operator's only
    on the solution so far, as its rows times the current basis (n² rows
    of width dim).  Their integer kernel (`_kernel_ints`) gives the new
    basis as combinations of the old one, and each new vector's content is
    divided out.  An operator whose restricted system is zero is skipped,
    and the loop stops at dimension 1: the identity meets every condition,
    so that line is Q·I.  Fractions appear only in the one canonical form
    at the end."""
    n = conn.dim
    nn = n * n
    basis = None   # integer vectors spanning the solution; None: all of M_n
    for m in left_ops(conn) + right_ops(conn):
        if basis is not None and len(basis) == 1:
            break
        if basis is None:
            cols = None
            width = nn
        else:
            cols = [c if any(c) else None for c in zip(*basis)]
            width = len(basis)
        system = []
        for row in _commutator_rows(m, n):
            r = [0] * width
            for j, v in row:
                if cols is None:
                    r[j] = v
                elif cols[j] is not None:
                    r = [a + v * x for a, x in zip(r, cols[j])]
            if any(r):
                system.append(r)
        if not system:
            continue
        coeffs = _kernel_ints(system, width)
        if basis is not None:
            combos = []
            for y in coeffs:
                t = [0] * nn
                for yi, b in zip(y, basis):
                    if yi:
                        t = [a + yi * x for a, x in zip(t, b)]
                combos.append(t)
            coeffs = combos
        basis = []
        for t in coeffs:
            g = math.gcd(*t)
            basis.append([x // g for x in t] if g != 1 else t)
    if basis is None:
        sol = Subspace.full(nn)
    else:   # column-major back to row-major: T[x][y] moves to x·n + y
        sol = Subspace.from_vectors(nn, [[t[j % n * n + j // n]
                                          for j in range(nn)] for t in basis])
    mats = tuple(Mat.from_rows([r[i * n:(i + 1) * n] for i in range(n)], n)
                 for r in sol.rows)
    flat_id = tuple(x for row in Mat.identity(n).entries for x in row)
    assert sol.contains(flat_id), "commutant must contain the identity"
    return mats


def _is_scalar_mat(m):
    return m == Mat.identity(m.nrows).scale(m.entries[0][0])


def _candidate_mats(comm, seed, budget):
    for t in comm:
        yield t
    for i in range(len(comm)):
        for j in range(i + 1, len(comm)):
            yield comm[i] + comm[j]
            yield comm[i] - comm[j]
    rng = random.Random(seed)
    for _ in range(budget):
        t = None
        for m in comm:
            c = Fraction(rng.randint(-3, 3))
            term = m.scale(c)
            t = term if t is None else t + term
        yield t


def _trace_form(comm):
    """Gram matrix T_ab = tr(C_a C_b) = Σ_ij (C_a)_ij (C_b)_ji of the trace
    form on the commutant basis, read from the entries."""
    nonzero = [[(i, j, x) for i, row in enumerate(c.entries)
                for j, x in enumerate(row) if x] for c in comm]
    k = len(comm)
    t = [[Fraction(0)] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            cb = comm[b].entries
            t[a][b] = t[b][a] = sum((x * cb[j][i] for i, j, x in nonzero[a]),
                                    Fraction(0))
    return Mat.from_rows(t, k)


def _search(conn, seed, budget):
    """Search the commutant C of the connection operators of `conn` for a
    nontrivial idempotent.  Returns (idempotent Mat, None) on a split,
    else (None, Evidence) saying why the structure is taken as
    indecomposable.

    Dickson's criterion decides the local case without a search: in
    characteristic 0, rad C is the radical of the trace form tr(xy) on C,
    so that form has rank dim C/rad C.  Rank 1 means C = Q·1 ⊕ rad C: every
    candidate has minimal polynomial (t − λ)^k, which `coprime_split`
    keeps in one part, so no candidate can split.  The SEARCH_EXHAUSTED
    evidence is then returned at once; its detail names the candidates
    the loop would have tried, and on a local commutant that none of them
    splits is proven, not enumerated."""
    comm = commutant(conn)
    if len(comm) == 1:
        return None, Evidence(EVIDENCE_COMMUTANT_TRIVIAL,
                              "commutant dimension 1")
    ncomm = len(comm)
    exhausted = Evidence(
        EVIDENCE_SEARCH_EXHAUSTED,
        f"no splitting idempotent among {ncomm} commutant basis elements, "
        f"{ncomm * (ncomm - 1)} pairwise sums/differences, and {budget} "
        f"seeded random combinations (seed {seed:#x})")
    if _trace_form(comm).rank() == 1:
        return None, exhausted
    for t in _candidate_mats(comm, seed, budget):
        if t.is_zero() or _is_scalar_mat(t):
            continue
        parts = coprime_split(minimal_polynomial(t))
        if len(parts) < 2:
            continue
        f = parts[0]
        h = (Fraction(1),)
        for q in parts[1:]:
            h = poly_mul(h, q)
        g, u, _ = poly_xgcd(f, h)
        assert g == (Fraction(1),)
        e = poly_eval_mat(poly_mul(u, f), t)
        assert e @ e == e
        if e.is_zero() or e == Mat.identity(conn.dim):
            continue
        return e, None
    return None, exhausted


# ---------------------------------------------------------------------------
# The recursive splitter and the packager


def _split(spec, carrier, orthogonal_mode, seed, budget):
    """(ambient factor, evidence) pairs of the indecomposable pieces of the
    strong ideal `carrier`, splitting recursively wherever the search finds
    an idempotent.  A proper carrier is restricted from the top structure,
    which is its one strong-ideal and nondegeneracy test: split pieces are
    strong ideals of the whole structure, as ∇ vanishes between
    complementary strong ideals and on the annihilator block g0."""
    sub_spec = restrict(spec, carrier) if carrier.dim < spec.dim else spec
    e, ev = _search(connection_of(sub_spec), seed, budget)
    if e is None:
        return [(carrier, ev)]
    h1 = column_space(e)
    if orthogonal_mode:
        h2 = orthogonal_complement(h1, sub_spec.metric)
    else:
        h2 = kernel(e)
    _req(subspace_intersect(h1, h2).dim == 0
         and subspace_sum(h1, h2) == Subspace.full(carrier.dim),
         "split is not a direct sum")
    out = []
    for sub in (h1, h2):
        out.extend(_split(spec, _to_ambient(carrier, sub), orthogonal_mode,
                          seed, budget))
    return out


def _projection_matrix(n, target: Subspace, along: Subspace) -> Mat:
    rows = list(target.rows) + list(along.rows)
    s = Mat.from_rows(rows, n)
    assert s.shape == (n, n), "projection pieces do not span"
    st = s.transpose()
    d = Mat.from_rows([[Fraction(1 if (i == j and i < target.dim) else 0)
                        for j in range(n)] for i in range(n)], n)
    return st @ d @ st.inverse()


def _span_of(n, subspaces):
    out = Subspace.zero(n)
    for s in subspaces:
        out = subspace_sum(out, s)
    return out


def _factor_projections(spec, factors, g0):
    n = spec.dim
    out = []
    for i, f in enumerate(factors):
        others = [x for j, x in enumerate(factors) if j != i]
        if g0 is not None:
            others.append(g0)
        out.append(LinearMap(_projection_matrix(n, f, _span_of(n, others))))
    return tuple(out)


def _pairwise_orthogonal(spec, factors, g0):
    pieces = list(factors) + ([g0] if g0 is not None else [])
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            for x in pieces[i].rows:
                for y in pieces[j].rows:
                    if spec.metric.pair(x, y) != 0:
                        return False
    return True


def _package(spec, pieces, g0, case, note):
    """Sort the (factor, evidence) pieces, attach the projections and the
    orthogonality flag, and verify the result from scratch."""
    pieces = sorted(pieces, key=lambda fe: (fe[0].dim, fe[0].basis.entries))
    factors = tuple(f for f, _ in pieces)
    evidence = tuple(ev for _, ev in pieces)
    dec = Decomposition(
        factors=factors,
        g0=g0,
        certificate=Certificate(_factor_projections(spec, factors, g0), evidence),
        orthogonal=_pairwise_orthogonal(spec, factors, g0),
        case=case,
        note=note,
    )
    verify_decomposition(spec, dec)
    return dec


def decompose(spec: AlgebraSpec, *, seed=DEFAULT_SEED,
              budget=DEFAULT_BUDGET) -> Decomposition:
    if not spec.metric.is_nondegenerate():
        raise PreconditionError("metric is degenerate")
    report = ann_report(spec)
    n = spec.dim
    g0 = None
    note = None

    if report.case == CASE_ANN_R_FULL:
        # every operator vanishes; split along a diagonalizing basis
        pieces = []
        for row in congruent_diagonalize(spec.metric).basis_change.entries:
            line = Subspace.from_vectors(n, [row])
            pieces.extend(_split(spec, line, True, seed, budget))
    elif report.case in (CASE_ANN_R_ZERO, CASE_ANN_R_EQ_ANN):
        g0_sub = subspace_complement(report.ann_r_radical, report.ann_r)
        rest = Subspace.full(n)
        if g0_sub.dim:
            g0 = g0_sub
            rest = orthogonal_complement(g0_sub, spec.metric)
            _req(subspace_intersect(g0_sub, rest).dim == 0,
                 "annihilator complement is degenerate")
        pieces = _split(spec, rest, True, seed, budget)
    elif report.case == CASE_ISOTROPIC:
        pieces = _split(spec, Subspace.full(n), False, seed, budget)
    else:
        assert report.case == CASE_NON_ISOTROPIC
        pieces = [(Subspace.full(n),
                   Evidence(EVIDENCE_NOT_CLAIMED,
                            "Ann_R is non-isotropic and differs from Ann; no "
                            "direct-sum statement covers this case"))]
        note = "no decomposition theorem covers this structure; see filtration"
    return _package(spec, pieces, g0, report.case, note)


def decomposition_from_factors(spec: AlgebraSpec, factors, g0=None, *,
                               seed=DEFAULT_SEED,
                               budget=DEFAULT_BUDGET) -> Decomposition:
    """Package externally supplied factors as a verified Decomposition
    (used to feed alternative decompositions to the comparison tools)."""
    report = ann_report(spec)
    pieces = []
    for f in factors:
        # restrict refuses a factor that is not a nondegenerate strong ideal
        e, ev = _search(connection_of(restrict(spec, f)), seed, budget)
        if e is not None:
            raise PreconditionError("factor is decomposable; not a "
                                    "decomposition into indecomposables")
        pieces.append((f, ev))
    return _package(spec, pieces, g0, report.case, None)


def verify_decomposition(spec: AlgebraSpec, dec: Decomposition):
    """Re-derive every claim the Decomposition makes, on the structure's own
    connection; CertificateError on any mismatch.  The --recheck path."""
    n = spec.dim
    conn = connection_of(spec)
    pieces = list(dec.factors) + ([dec.g0] if dec.g0 is not None else [])
    _req(sum(p.dim for p in pieces) == n and
         _span_of(n, pieces) == Subspace.full(n),
         "pieces do not sum directly to the whole space")
    for f in dec.factors:
        _req(f.dim > 0, "zero factor")
        _req(is_strong_ideal(f, conn), "factor is not a strong ideal")
        _req(spec.metric.restrict(f).is_nondegenerate(),
             "metric restricts degenerately to a factor")
    rep = ann_report(spec)
    if dec.g0 is not None:
        _req(dec.g0.dim > 0, "empty g0 block must be None")
        _req(rep.ann.contains_subspace(dec.g0),
             "g0 is not inside the two-sided annihilator")
        _req(spec.metric.restrict(dec.g0).is_nondegenerate(),
             "metric restricts degenerately to g0")
    _req(dec.orthogonal == _pairwise_orthogonal(spec, dec.factors, dec.g0),
         "orthogonality flag is wrong")
    cert = dec.certificate
    _req(len(cert.splitting_idempotents) == len(dec.factors),
         "certificate idempotent count mismatch")
    _req(len(cert.indecomposability_evidence) == len(dec.factors),
         "certificate evidence count mismatch")
    for ev in cert.indecomposability_evidence:
        _req(ev.kind in EVIDENCE_KINDS, f"unknown evidence kind {ev.kind!r}")
    ops = left_ops(conn) + right_ops(conn)
    for lm, f in zip(cert.splitting_idempotents, dec.factors):
        e = lm.matrix
        _req(e @ e == e, "certificate idempotent is not idempotent")
        for op in ops:
            _req(e @ op == op @ e,
                 "certificate idempotent does not commute with the "
                 "connection operators")
        _req(column_space(e) == f, "idempotent image is not its factor")
        ker = kernel(e)
        _req(ker == _span_of(n, [p for p in pieces if p != f]),
             "idempotent kernel is not the complementary sum")
        _req(is_strong_ideal(ker, conn),
             "idempotent kernel is not a strong ideal")
    _req(dec.case == rep.case, "case tag does not match the structure")


# ---------------------------------------------------------------------------
# Filtration chain for the uncovered (non-isotropic, Ann_R ≠ Ann) case


@dataclass(frozen=True)
class FiltrationChain:
    chain: tuple      # ambient subspaces, strictly decreasing, chain[0] = g
    h_blocks: tuple   # h_blocks[i] ⊕ chain[i+1] = chain[i], h ⊆ Ann_R block


def filtration(spec: AlgebraSpec) -> FiltrationChain:
    """Peel nondegenerate annihilator blocks off until Ann_R is isotropic or
    everything.  A chain member is a strong ideal of its predecessor but
    not always of the whole structure, so unlike a split piece it is
    restricted inside its predecessor; that `restrict` is its one
    strong-ideal test."""
    sub_spec = spec
    carrier = Subspace.full(spec.dim)
    chain = [carrier]
    h_blocks = []
    while True:
        a = ann_r(connection_of(sub_spec))
        form = sub_spec.metric
        if a.dim == sub_spec.dim or is_isotropic(a, form):
            break
        rad = radical(a, form)
        h_local = subspace_complement(rad, a)
        next_local = orthogonal_complement(h_local, form)
        _req(subspace_intersect(h_local, next_local).dim == 0
             and h_local.dim + next_local.dim == sub_spec.dim,
             "annihilator block does not split off")
        sub_spec = restrict(sub_spec, next_local)
        h_blocks.append(_to_ambient(carrier, h_local))
        carrier = _to_ambient(carrier, next_local)
        chain.append(carrier)
    for i in range(len(chain) - 1):
        for x in chain[i].rows:
            for y in chain[i].rows:
                _req(chain[i + 1].contains(spec.bracket_apply(x, y)),
                     "derived vectors escape the next chain member")
    return FiltrationChain(tuple(chain), tuple(h_blocks))


# ---------------------------------------------------------------------------
# Comparison of two decompositions


def nabla_span(conn: ConnectionCoeffs, a: Subspace, b: Subspace) -> Subspace:
    n = conn.dim
    return Subspace.from_vectors(
        n, [nabla_apply(conn, x, y) for x in a.rows for y in b.rows])


def _match_factors(spec, dec_a, dec_b):
    """Pair the factors: literal equality first, then the unique partner
    with a nonzero ∇-interaction; leftovers (inert factors, ∇FF = 0) are
    paired by dimension, preferring a partner whose diagonalized metric
    has the same square-class multiset.  Returns (matching, matched_by)."""
    conn = connection_of(spec)
    fa, fb = dec_a.factors, dec_b.factors
    _req(len(fa) == len(fb), "factor counts differ")
    used = set()
    result = {}
    deferred = []
    for i, f in enumerate(fa):
        eq = [j for j in range(len(fb)) if j not in used and fb[j] == f]
        if eq:
            result[i] = (eq[0], "equal")
            used.add(eq[0])
            continue
        nz = [j for j in range(len(fb)) if j not in used
              and (nabla_span(conn, f, fb[j]).dim > 0
                   or nabla_span(conn, fb[j], f).dim > 0)]
        if len(nz) > 1:
            raise CertificateError("factor matching is ambiguous — this "
                                   "contradicts the uniqueness theorem")
        if nz:
            result[i] = (nz[0], "nabla")
            used.add(nz[0])
        else:
            deferred.append(i)
    for i in deferred:
        js = [j for j in range(len(fb)) if j not in used
              and fb[j].dim == fa[i].dim]
        _req(js, "no dimension-compatible partner for an inert factor")
        key = _inert_class_key(spec, fa[i])
        same = [j for j in js if _inert_class_key(spec, fb[j]) == key]
        pick = same[0] if same else js[0]
        result[i] = (pick, "inert")
        used.add(pick)
    matching = tuple((i, result[i][0]) for i in range(len(fa)))
    matched_by = tuple(result[i][1] for i in range(len(fa)))
    return matching, matched_by


@dataclass(frozen=True)
class CompareReport:
    matching: tuple
    matched_by: tuple
    dims_ok: bool
    nabla_spaces_ok: bool
    cross_vanishing_ok: bool
    projections: tuple     # per A-factor: projection onto its B-partner
    strong_hom_ok: tuple
    isometric: tuple
    g0_dims: tuple | None
    g0_ok: bool | None
    orthogonal: tuple


def compare_decompositions(spec: AlgebraSpec, dec_a: Decomposition,
                           dec_b: Decomposition) -> CompareReport:
    conn = connection_of(spec)
    n = spec.dim
    matching, matched_by = _match_factors(spec, dec_a, dec_b)
    fa, fb = dec_a.factors, dec_b.factors

    dims_ok = all(fa[i].dim == fb[j].dim for i, j in matching)

    nabla_ok = True
    for i, j in matching:
        s = nabla_span(conn, fa[i], fa[i])
        if not (s == nabla_span(conn, fb[j], fb[j])
                and s == nabla_span(conn, fa[i], fb[j])
                and s == nabla_span(conn, fb[j], fa[i])):
            nabla_ok = False

    cross_ok = True
    for i, j in matching:
        for k, l in matching:
            if i == k:
                continue
            if nabla_span(conn, fa[i], fb[l]).dim > 0 or \
                    nabla_span(conn, fb[l], fa[i]).dim > 0:
                cross_ok = False

    projections = []
    strong_hom = []
    isometric = []
    for i, j in matching:
        others = [p for t, p in enumerate(fb) if t != j]
        if dec_b.g0 is not None:
            others.append(dec_b.g0)
        pm = _projection_matrix(n, fb[j], _span_of(n, others))
        projections.append(LinearMap(pm))
        hom = True
        iso = True
        for x in fa[i].rows:
            for y in fa[i].rows:
                if pm.apply(nabla_apply(conn, x, y)) != \
                        nabla_apply(conn, pm.apply(x), pm.apply(y)):
                    hom = False
                if spec.metric.pair(pm.apply(x), pm.apply(y)) != \
                        spec.metric.pair(x, y):
                    iso = False
        strong_hom.append(hom)
        isometric.append(iso)

    g0_dims = None
    g0_ok = None
    if dec_a.g0 is not None or dec_b.g0 is not None:
        da = dec_a.g0.dim if dec_a.g0 is not None else 0
        db = dec_b.g0.dim if dec_b.g0 is not None else 0
        g0_dims = (da, db)
        g0_ok = da == db

    return CompareReport(
        matching=matching,
        matched_by=matched_by,
        dims_ok=dims_ok,
        nabla_spaces_ok=nabla_ok,
        cross_vanishing_ok=cross_ok,
        projections=tuple(projections),
        strong_hom_ok=tuple(strong_hom),
        isometric=tuple(isometric),
        g0_dims=g0_dims,
        g0_ok=g0_ok,
        orthogonal=(dec_a.orthogonal, dec_b.orthogonal),
    )


# ---------------------------------------------------------------------------
# Adapted bases and the strong-isometry builder


@dataclass(frozen=True)
class AdaptedBasis:
    """Basis of a factor F adapted to its annihilator: first k vectors span
    Ann_R ∩ F (isotropic), the next s−k diagonalize a complement of it
    inside ∇FF, the last k are dual partners (⟨X_i, Y_p⟩ = δ_ip, isotropic
    among themselves, orthogonal to the diagonal block)."""

    vectors: tuple
    k: int
    s: int
    diagonal: tuple
    pairings: Mat               # Gram matrix of `vectors`
    corrections: Mat | None = None   # b_pq, filled in by the isometry builder


def adapted_basis(spec: AlgebraSpec, factor: Subspace) -> AdaptedBasis:
    n = spec.dim
    conn = connection_of(spec)
    form = spec.metric
    if not is_strong_ideal(factor, conn):
        raise PreconditionError("adapted basis needs a strong ideal")
    if not form.restrict(factor).is_nondegenerate():
        raise PreconditionError("adapted basis needs a nondegenerate factor")
    a_f = subspace_intersect(ann_r(conn), factor)
    if not is_isotropic(a_f, form):
        raise PreconditionError("factor annihilator is not isotropic")
    nff = nabla_span(conn, factor, factor)
    assert nff.contains_subspace(a_f), \
        "isotropic annihilator must sit inside the nabla span"
    k = a_f.dim
    s = nff.dim
    ann_vecs = list(a_f.rows)

    w = subspace_complement(a_f, within=nff)
    diag_vecs = []
    diag_norms = []
    if w.dim:
        dg = congruent_diagonalize(form.restrict(w))
        for row, d in zip(dg.basis_change.entries, dg.diagonal):
            assert d != 0, "complement of the radical cannot be null"
            diag_vecs.append(row_apply(row, w.basis))
            diag_norms.append(d)

    targets = ann_vecs + diag_vecs        # the s constraint vectors
    dual_vecs = []
    if k:
        a = Mat.from_rows([[form.pair(fr, t) for fr in factor.rows]
                           for t in targets], factor.dim)
        raw = []
        for p in range(k):
            rhs = [Fraction(1 if q == p else 0) for q in range(s)]
            x = solve(a, rhs)
            assert x is not None, "dual partner system must be solvable"
            raw.append(factor.embed(x))
        c = [[form.pair(raw[p], raw[q]) for q in range(k)] for p in range(k)]
        for p in range(k):
            dual_vecs.append(vec_sub(raw[p], lin_comb(
                [c[p][p] / 2] + c[p][p + 1:], ann_vecs[p:], n)))

    vectors = tuple(ann_vecs + diag_vecs + dual_vecs)
    assert len(vectors) == factor.dim
    gram = Mat.from_rows([[form.pair(x, y) for y in vectors] for x in vectors],
                         factor.dim)
    # the adapted pattern
    for a_i in range(len(vectors)):
        for b_i in range(len(vectors)):
            v = gram.entries[a_i][b_i]
            if a_i < k:
                expect = Fraction(1 if b_i == s + a_i else 0)
            elif a_i < s:
                expect = diag_norms[a_i - k] if a_i == b_i else Fraction(0)
            else:
                expect = Fraction(1 if b_i == a_i - s else 0)
            assert v == expect, "adapted basis pairing pattern violated"
    return AdaptedBasis(vectors=vectors, k=k, s=s,
                        diagonal=tuple(diag_norms), pairings=gram)


def _components(n, v, pieces):
    """Split v along an independent (not necessarily spanning) list of
    subspaces; v must lie in their sum."""
    rows = []
    for p in pieces:
        rows.extend(p.rows)
    m = Mat.from_rows(rows, n)
    assert m.rank() == m.nrows, "component pieces are not independent"
    alpha = solve(m.transpose(), v)
    assert alpha is not None, "vector lies outside the pieces"
    out = []
    at = 0
    for p in pieces:
        out.append(lin_comb(alpha[at:at + p.dim], p.rows, n))
        at += p.dim
    return out


def _square_class_key(d):
    s = 1 if d > 0 else -1
    m = abs(d.numerator * d.denominator)
    sf = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            cnt = 0
            while m % p == 0:
                m //= p
                cnt += 1
            if cnt % 2:
                sf *= p
        p += 1
    return s * sf * m


def _diag_lines(spec, factor):
    """Orthogonal line decomposition of an inert factor with norms."""
    form = spec.metric
    out = []
    dg = congruent_diagonalize(form.restrict(factor))
    for row, d in zip(dg.basis_change.entries, dg.diagonal):
        assert d != 0
        out.append((row_apply(row, factor.basis), d))
    return out


def _inert_class_key(spec, factor):
    return sorted(_square_class_key(d) for _, d in _diag_lines(spec, factor))


def _inert_pair_map(spec, f_a, f_b):
    """Source/image vector pairs for an inert factor pair, matching
    orthogonal lines by rational square class; None if impossible."""
    la = sorted(_diag_lines(spec, f_a), key=lambda vd: _square_class_key(vd[1]))
    lb = sorted(_diag_lines(spec, f_b), key=lambda vd: _square_class_key(vd[1]))
    if [_square_class_key(d) for _, d in la] != \
            [_square_class_key(d) for _, d in lb]:
        return None
    sources = []
    images = []
    for (va, da), (vb, db) in zip(la, lb):
        lam = rational_sqrt(da / db)
        if lam is None:
            return None
        sources.append(va)
        images.append(vec_scale(lam, vb))
    return sources, images


def build_strong_isometry(spec: AlgebraSpec, dec_a: Decomposition,
                          dec_b: Decomposition):
    """A rational strong isometry of the whole structure carrying the
    first decomposition onto the second (factor to matched factor, g0 to
    g0).  Requires the one- and two-sided annihilators to coincide and
    both decompositions to be orthogonal; when the annihilators differ the
    uniqueness statement only provides the factor-matching report, not an
    ambient isometry.  Returns LinearMap, or Unsupported when the only
    obstruction is irrational norm matching between inert factors."""
    conn = connection_of(spec)
    n = spec.dim
    form = spec.metric
    report = ann_report(spec)

    if not report.ann_r_equals_ann:
        raise PreconditionError(
            "strong-isometry construction needs the one- and two-sided "
            "annihilators to coincide; compare_decompositions is the "
            "verifier for the isotropic case")
    if not (dec_a.orthogonal and dec_b.orthogonal):
        raise PreconditionError(
            "strong-isometry construction needs orthogonal decompositions")

    matching, _ = _match_factors(spec, dec_a, dec_b)
    fa, fb = dec_a.factors, dec_b.factors
    sources = []
    images = []

    b_pieces = list(fb) + ([dec_b.g0] if dec_b.g0 is not None else [])
    rad = report.ann_r_radical
    failed_inert = []
    for i, j in matching:
        nff = nabla_span(conn, fa[i], fa[i])
        if fa[i] == fb[j]:
            for x in fa[i].rows:
                sources.append(x)
                images.append(x)
            continue
        if nff.dim == 0:
            pair = _inert_pair_map(spec, fa[i], fb[j])
            if pair is None:
                failed_inert.append((i, j))
                continue
            sources.extend(pair[0])
            images.extend(pair[1])
            continue
        # active pair: shared subspaces + adapted basis + corrections
        _req(nff == nabla_span(conn, fb[j], fb[j]),
             "matched factors do not share their nabla span")
        a_f = subspace_intersect(report.ann_r, fa[i])
        _req(a_f == subspace_intersect(report.ann_r, fb[j]),
             "matched factors do not share their annihilator")
        ab = adapted_basis(spec, fa[i])
        k, s = ab.k, ab.s
        for x in ab.vectors[:s]:
            sources.append(x)
            images.append(x)    # the shared block maps identically
        if k:
            comps = [_components(n, ab.vectors[s + p], b_pieces)
                     for p in range(k)]
            if dec_b.g0 is not None:
                p0 = [comps[p][len(fb)] for p in range(k)]
            else:
                p0 = [zero_vec(n) for _ in range(k)]
            b = [[Fraction(0)] * k for _ in range(k)]
            for p in range(k):
                for q in range(k):
                    val = form.pair(p0[p], p0[q])
                    b[p][q] = val / 2 if p == q else val
            for p in range(k):
                sources.append(ab.vectors[s + p])
                images.append(vec_add(comps[p][j],
                                      lin_comb(b[p][p:], ab.vectors[p:k], n)))
    if failed_inert:
        pairs = ", ".join(f"{i}->{j}" for i, j in failed_inert)
        return Unsupported(
            f"inert factor pairs ({pairs}) have no rational square-class "
            f"matching between their diagonal norms")
    if dec_a.g0 is not None or dec_b.g0 is not None:
        _req(dec_a.g0 is not None and dec_b.g0 is not None
             and dec_a.g0.dim == dec_b.g0.dim, "g0 blocks do not match")
        shift_pieces = [rad, dec_b.g0] if rad.dim else [dec_b.g0]
        for u in dec_a.g0.rows:
            sources.append(u)
            images.append(_components(n, u, shift_pieces)[-1])

    sm = Mat.from_rows(sources, n)
    _req(sm.shape == (n, n) and sm.rank() == n,
         "isometry sources do not form a basis")
    tm = Mat.from_rows(images, n)
    m = tm.transpose() @ sm.transpose().inverse()
    _req(m.rank() == n, "constructed map is singular")
    _req(m.transpose() @ form.gram @ m == form.gram,
         "constructed map is not an isometry")
    mcols = [m.col(i) for i in range(n)]   # m·e_i
    for i in range(n):
        for j in range(n):
            _req(m.apply(conn.gamma[i][j])
                 == nabla_apply(conn, mcols[i], mcols[j]),
                 "constructed map does not respect the connection")
    for i, j in matching:
        img = Subspace.from_vectors(n, [m.apply(x) for x in fa[i].rows])
        _req(img == fb[j], "constructed map does not carry factor to factor")
    if dec_a.g0 is not None:
        img = Subspace.from_vectors(n, [m.apply(x) for x in dec_a.g0.rows])
        _req(img == dec_b.g0, "constructed map does not carry g0 to g0")
    return LinearMap(m)


# ---------------------------------------------------------------------------
# Flat Riemannian structures


@dataclass(frozen=True)
class FlatSplit:
    b: Subspace         # abelian block acting by skew rotations
    ann: Subspace       # two-sided annihilator
    derived: Subspace   # [g, g] = ∇gg


@dataclass(frozen=True)
class NotApplicable:
    reason: str


def flat_riemannian_structure(spec: AlgebraSpec):
    conn = connection_of(spec)
    sig = congruent_diagonalize(spec.metric).signature
    if sig[1] or sig[2]:
        return NotApplicable("metric is not positive definite")
    if not curvature_tensor(spec).is_zero():
        return NotApplicable("structure is not flat")
    n = spec.dim
    derived = Subspace.from_vectors(
        n, [spec.brackets[i][j] for i in range(n) for j in range(i + 1, n)])
    _req(derived == nabla_gg(conn),
         "derived subalgebra must equal the nabla span in the flat "
         "Riemannian case")
    a = ann(conn)
    _req(subspace_intersect(a, derived).dim == 0,
         "annihilator meets the derived subalgebra")
    core = subspace_sum(a, derived)
    b = orthogonal_complement(core, spec.metric)
    _req(subspace_sum(core, b) == Subspace.full(n)
         and core.dim + b.dim == n, "orthogonal splitting failed")
    for x in b.rows:
        for y in b.rows:
            _req(vec_is_zero(spec.bracket_apply(x, y)), "b block is not abelian")
    for x in derived.rows:
        for y in derived.rows:
            _req(vec_is_zero(spec.bracket_apply(x, y)),
                 "derived block is not abelian")
    for y in derived.rows:
        _req(all(derived.contains(w) for w in left_images(spec.brackets, y)),
             "derived block is not an ideal")
    _req(derived.dim % 2 == 0, "derived block has odd dimension")
    _req(2 * b.dim <= derived.dim,
         "skew block too large for the derived block")
    # right_images(conn.gamma, u)[j] = ∇_u e_j: the columns of
    # L_u = Σ_a u_a L_a
    for v in core.rows:
        _req(all(vec_is_zero(w) for w in right_images(conn.gamma, v)),
             "∇ must vanish for left slots outside b")
    for u in b.rows:
        lu = right_images(conn.gamma, u)
        _req(lu == right_images(spec.brackets, u),
             "∇_b must act as the adjoint action")
        lowered = [spec.gram.apply(w) for w in lu]   # (G·∇_u e_x)_y
        for x in range(n):
            for y in range(n):
                _req(lowered[x][y] + lowered[y][x] == 0,
                     "∇_b is not skew-adjoint")
    return FlatSplit(b=b, ann=a, derived=derived)
