"""Decomposition into indecomposable nondegenerate strong ideals, with
machine-checkable certificates, plus the uniqueness machinery: factor
matching, strong-isometry construction, the filtration chain for the
uncovered case, and the flat-Riemannian splitting.

The splitting engine works in the commutant of the 2n connection
operators L_i = ∇_{e_i}· and R_j = ∇_·e_j: a nontrivial idempotent there
cuts the structure into two complementary strong ideals.  Commuting with
an operator is linear in it, so the commutant is that of one basis of
span{L_i, R_j} (`operator_basis`, r ≤ 2n operators), and that basis is
all it imposes.  One search (`_search`) looks for such an idempotent in
the coprime factorizations of minimal polynomials of commutant elements
(basis elements first, then pairwise sums/differences, then seeded
random combinations) and, when none turns up, returns the
indecomposability evidence instead.  The minimal polynomial mp of an
element t comes from `linalg` and its split from `poly.coprime_split`;
for the first part f, extended Euclid gives u·f + v·(mp/f) = 1, and
(u·f)(t) is the idempotent.  Where C modulo its radical is Q or
a field of degree 2 or 3, the loop is cut short: by Dickson's criterion
(in characteristic 0, rad C is the radical of the trace form tr(xy) on
C), the trace form's rank r is dim C/rad C; rank 1 means C = Q·1 ⊕ rad C,
and for r = 2 or 3 the first candidate whose minimal polynomial has an
irreducible squarefree part of degree r shows C/rad C to be that field.
Either way every element's minimal polynomial is a power of one
irreducible polynomial, which no coprime split can cut, so there the
SEARCH_EXHAUSTED detail is proven, not enumerated.  C is solved once per
structure and kept on it (`commutant_of`), beside its connection and
annihilator report; a re-based copy (`transform_spec`) inherits it by
conjugation.  `decompose` carries each piece with the projection
onto it along everything outside it, and splits it while the search on
its corner of C (`_corner`, its own commutant) finds an idempotent;
`decomposition_from_factors` searches each supplied factor's corner and
refuses one that splits.  Both hand their pieces to one packager, whose
verifier (`--recheck` in the CLI) is the only test of factors and g0, as
`_factor_projections` is the only direct-sum test.  A failure there is a
CertificateError (exit 3), or a PreconditionError (exit 2) for supplied
factors, which are caller input.  The verifier pins each certificate
idempotent to the projection onto its factor along the other pieces,
which the comparison tools read.
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
    operator_basis,
    restrict,
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
    _as_mats,
    column_space,
    congruent_diagonalize,
    _kernel_ints,
    _row_times,
    kernel,
    mats_span,
    minimal_polynomial,
    orthogonal_complement,
    poly_eval_mat,
    radical,
    rational_sqrt,
    row_space,
    rref,
    select_rows,
    stack_rows,
    subspace_complement,
    subspace_intersect,
    subspace_sum,
    table_pairs,
    trace_form,
)
from .poly import (
    coprime_split,
    poly_deg,
    poly_divexact,
    poly_mul,
    poly_xgcd,
    squarefree_decomposition,
)

DEFAULT_SEED = 0xC0FFEE
DEFAULT_BUDGET = 64

EVIDENCE_COMMUTANT_TRIVIAL = "COMMUTANT_TRIVIAL"
EVIDENCE_SEARCH_EXHAUSTED = "SEARCH_EXHAUSTED"
EVIDENCE_NOT_CLAIMED = "NOT_CLAIMED"
EVIDENCE_KINDS = (EVIDENCE_COMMUTANT_TRIVIAL, EVIDENCE_SEARCH_EXHAUSTED,
                  EVIDENCE_NOT_CLAIMED)


@dataclass(frozen=True)
class Evidence:
    kind: str
    detail: str


@dataclass(frozen=True)
class Certificate:
    splitting_idempotents: tuple   # per factor: projection Mat onto it
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


def _to_ambient(carrier, local_sub):
    """The image in the whole space of a subspace given in the coordinates
    of `carrier`'s canonical basis, whose pivot columns are identity
    columns: the mapped canonical basis is canonical as it stands."""
    return Subspace(carrier.ambient_dim, local_sub.basis @ carrier.basis)


# ---------------------------------------------------------------------------
# Commutant and splitting idempotents


def _commutator_rows(m, n):
    """The n² conditions (TM − MT)_ab = 0 on T, for the Mat M, read off its
    integer image (D·M spans the same conditions).  T is flattened
    column-major, T[x][y] at y·n + x: on generic bases the integer echelon
    of these rows grows far less than row-major (on the first
    12-dimensional system of the commutant tests it runs about 8×
    faster).  Each row is a list of (column, integer) pairs, zeros left
    out."""
    me = m.image()[1]
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

    [T, Σ c_k M_k] = Σ c_k [T, M_k], so T commutes with all 2n operators
    L_i and R_j exactly when it commutes with a basis of their span, and
    only the r ≤ 2n operators of `operator_basis` are imposed (r = n on a
    bi-invariant structure, where R_j = −L_j).  One operator at a time, in
    integers: the first operator's conditions TM − MT = 0 are solved on
    all of M_n, and each later operator's only on the solution so far, as
    its rows times the current basis (n² rows of width dim).  Their integer
    kernel (`_kernel_ints`) gives the new basis as combinations of the old
    one, and each new vector's content is divided out.  An operator whose
    restricted system is zero is skipped, and the loop stops at dimension
    1: the identity meets every condition, so that line is Q·I.  No
    Fraction is built: the canonical basis is reduced from the integer
    vectors, and the matrices are sliced from its image."""
    n = conn.dim
    nn = n * n
    basis = None   # integer vectors spanning the solution; None: all of M_n
    left, right = operator_basis(conn)
    for m in left + right:
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
            coeffs = [_row_times(y, basis, nn) for y in coeffs]
        basis = []
        for t in coeffs:
            g = math.gcd(*t)
            basis.append([x // g for x in t] if g != 1 else t)
    if basis is None:
        sol = Subspace.full(nn)
    else:   # column-major back to row-major: T[x][y] moves to x·n + y
        sol = Subspace.from_vectors(nn, [[t[j % n * n + j // n]
                                          for j in range(nn)] for t in basis])
    assert sol.contains([int(k % (n + 1) == 0) for k in range(nn)]), \
        "commutant must contain the identity"
    return _as_mats(sol, n)


def commutant_of(spec: AlgebraSpec):
    """`commutant` of the structure's connection, kept on the spec."""
    if spec._commutant is None:
        object.__setattr__(spec, "_commutant", commutant(connection_of(spec)))
    return spec._commutant


def _corner(spec, e, piece):
    """Canonical basis of e·C·e on h = im e, on h's canonical basis H, for
    C = `commutant_of(spec)`: coordinates on h are read at its pivots, so
    e·T·e there is A·T·Hᵀ with A the rows of e at those pivots.  When h and
    h′ = ker e are strong ideals (h′ is a sum of pieces and g0 ⊆ Ann),
    ∇_x y ∈ h ∩ h′ = 0 for x in one and y in the other, and this is h's
    own commutant, so the search on it is the one on restrict(spec, h):
    ⊇: every L_y and R_y keeps h and h′, so e ∈ C, and e·T·e ∈ C for
       T ∈ C maps h into h, where it commutes with h's operators.
    ⊆: extend S on h by 0 on h′.  For y ∈ h, L_y and R_y act on h as h's
       and vanish on h′; for y ∈ h′, they kill h and keep h′.  So they
       commute with S ⊕ 0, which is in C and is e·(S ⊕ 0)·e.
    Skipping `restrict` weakens no check: each piece is a sum of factors,
    which the verifier checks to be nondegenerate strong ideals that sum
    directly with g0 ⊆ Ann to the whole space."""
    if piece.dim == 1:   # e restricts to 1 there, spanning all of M_1 = Q
        return (Mat.identity(1),)
    a = select_rows(e, piece.pivots)
    ht, k = piece.basis.transpose(), piece.dim
    return _as_mats(mats_span([a @ t @ ht for t in commutant_of(spec)], k),
                    k)


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


def _search(comm, seed, budget):
    """Search the commutant C with canonical basis `comm` for a
    nontrivial idempotent.  Returns (idempotent Mat, None) on a split,
    else (None, Evidence) saying why the structure is taken as
    indecomposable.

    Dickson's criterion ends the search early where C/rad C is Q or a
    field of degree 2 or 3: in characteristic 0, rad C is the radical of
    the trace form tr(xy) on C, so that form has rank r = dim C/rad C.
    Rank 1 means C = Q·1 ⊕ rad C: every candidate has minimal polynomial
    (t − λ)^k, which `coprime_split` keeps in one part, so the loop is not
    run.  For r = 2 or 3, take a candidate t that does not split whose
    minimal polynomial has a squarefree part f of degree r.  `coprime_split`
    has just found f to have no rational root, and a polynomial of degree
    2 or 3 without one is irreducible.  The image t̄ of t in C/rad C has
    minimal polynomial f^j with j ≥ 1, so Q[t̄] ⊆ C/rad C has dimension at
    least r = dim C/rad C: C/rad C = Q[t̄] ≅ Q[x]/(f) is a field.  Every
    candidate then has a minimal polynomial that is a power of one
    irreducible polynomial (the one of its image, as rad C is nilpotent),
    which `coprime_split` keeps in one part, so no candidate can split and
    the loop stops.  In both cases the SEARCH_EXHAUSTED evidence is
    returned; its detail names the candidates the loop would have tried,
    and that none of them splits is proven, not enumerated.  Degree 4 and
    above would need a factorization over Q, and keeps the loop."""
    if len(comm) <= 1:   # 0 only for a zero factor, which the verifier refuses
        return None, Evidence(EVIDENCE_COMMUTANT_TRIVIAL,
                              f"commutant dimension {len(comm)}")
    ncomm = len(comm)
    exhausted = Evidence(
        EVIDENCE_SEARCH_EXHAUSTED,
        f"no splitting idempotent among {ncomm} commutant basis elements, "
        f"{ncomm * (ncomm - 1)} pairwise sums/differences, and {budget} "
        f"seeded random combinations (seed {seed:#x})")
    r = trace_form(comm).rank()
    if r == 1:
        return None, exhausted
    for t in _candidate_mats(comm, seed, budget):
        if t == Mat.identity(t.nrows).scale(t.trace() / t.nrows):
            continue
        mp = minimal_polynomial(t)
        parts = coprime_split(mp)
        if len(parts) < 2:
            if r <= 3 and poly_deg(squarefree_decomposition(mp)[0][0]) == r:
                return None, exhausted
            continue
        f = parts[0]
        g, u, _ = poly_xgcd(f, poly_divexact(mp, f))
        assert g == (Fraction(1),)
        e = poly_eval_mat(poly_mul(u, f), t)
        assert e @ e == e
        if e.is_zero() or e == Mat.identity(e.nrows):
            continue
        return e, None
    return None, exhausted


# ---------------------------------------------------------------------------
# The splitter and the packager


def _split(spec, piece, e, orthogonal_mode, seed, budget):
    """(factor, projection, evidence) triples of the indecomposable pieces
    of the strong ideal `piece`, which e projects onto along everything
    outside it.  A part's projection is e, then the split's projection
    onto the part, so a factor's is its certificate idempotent."""
    f, ev = _search(_corner(spec, e, piece), seed, budget)
    if f is None:
        return [(piece, e, ev)]
    k = piece.dim
    h1 = column_space(f)
    h2 = (orthogonal_complement(h1, spec.metric.restrict(piece))
          if orthogonal_mode else kernel(f))
    a = select_rows(e, piece.pivots)
    out = []
    for sub, qs in zip((h1, h2), _factor_projections(k, (h1, h2), None)):
        out.extend(_split(spec, _to_ambient(piece, sub),
                          piece.basis.transpose() @ qs @ a, orthogonal_mode,
                          seed, budget))
    return out


def _factor_projections(n, factors, g0):
    """The projection onto each factor along the others and g0: its basis
    as columns times its block of rows of S⁻¹, for S all the bases as
    columns.  The one direct-sum test: CertificateError unless they sum
    directly to the space."""
    pieces = list(factors) + ([g0] if g0 is not None else [])
    s = stack_rows([p.basis for p in pieces], n).transpose()
    _req(s.shape == (n, n) and s.rank() == n,
         "pieces do not sum directly to the whole space")
    sinv, out, at = s.inverse(), [], 0
    for f in factors:
        out.append(f.basis.transpose()
                   @ select_rows(sinv, range(at, at + f.dim)))
        at += f.dim
    return out


def _pairwise_orthogonal(spec, factors, g0):
    pieces = list(factors) + ([g0] if g0 is not None else [])
    return all((pieces[i].basis @ spec.gram @ pieces[j].basis.transpose())
               .is_zero()
               for i in range(len(pieces)) for j in range(i + 1, len(pieces)))


def _package(spec, pieces, g0, case, note):
    """Sort the (factor, projection, evidence) pieces by dimension, then by
    basis rows, attach the orthogonality flag, and verify the result from
    scratch.  The rows are compared as integer images over the lcm of
    their denominators, which orders them as their entries."""
    den = math.lcm(*(f.basis.image()[0] for f, _, _ in pieces))

    def key(piece):
        d, rows = piece[0].basis.image()
        return piece[0].dim, [[x * (den // d) for x in r] for r in rows]
    pieces = sorted(pieces, key=key)
    factors = tuple(f for f, _, _ in pieces)
    dec = Decomposition(
        factors=factors,
        g0=g0,
        certificate=Certificate(tuple(e for _, e, _ in pieces),
                                tuple(ev for _, _, ev in pieces)),
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

    whole = Mat.identity(n)
    if report.case == CASE_ANN_R_FULL:
        # every operator vanishes; split along a diagonalizing basis
        lines = [Subspace.from_vectors(n, [row]) for row in
                 congruent_diagonalize(spec.metric).basis_change.image()[1]]
        pieces = []
        for line, e in zip(lines, _factor_projections(n, lines, None)):
            pieces.extend(_split(spec, line, e, True, seed, budget))
    elif report.case in (CASE_ANN_R_ZERO, CASE_ANN_R_EQ_ANN):
        g0_sub = subspace_complement(report.ann_r_radical, report.ann_r)
        rest, e = Subspace.full(n), whole
        if g0_sub.dim:
            g0 = g0_sub
            rest = orthogonal_complement(g0_sub, spec.metric)
            e = _factor_projections(n, [rest], g0)[0]
        pieces = _split(spec, rest, e, True, seed, budget)
    elif report.case == CASE_ISOTROPIC:
        pieces = _split(spec, Subspace.full(n), whole, False, seed, budget)
    else:
        assert report.case == CASE_NON_ISOTROPIC
        pieces = [(Subspace.full(n), whole,
                   Evidence(EVIDENCE_NOT_CLAIMED,
                            "Ann_R is non-isotropic and differs from Ann; no "
                            "direct-sum statement covers this case"))]
        note = "no decomposition theorem covers this structure; see filtration"
    return _package(spec, pieces, g0, report.case, note)


def decomposition_from_factors(spec: AlgebraSpec, factors, g0=None, *,
                               seed=DEFAULT_SEED,
                               budget=DEFAULT_BUDGET) -> Decomposition:
    """Package externally supplied factors as a verified Decomposition for
    the comparison tools; any defect in them is a PreconditionError.  A
    factor that splits on its corner, or fails `_corner`'s premises so that
    it seems to, is refused as decomposable before the verifier sees it."""
    try:
        projections = _factor_projections(spec.dim, factors, g0)
        pieces = []
        for f, e in zip(factors, projections):
            idem, ev = _search(_corner(spec, e, f), seed, budget)
            if idem is not None:
                raise PreconditionError("factor is decomposable; not a "
                                        "decomposition into indecomposables")
            pieces.append((f, e, ev))
        return _package(spec, pieces, g0, ann_report(spec).case, None)
    except CertificateError as exc:
        raise PreconditionError(str(exc)) from None


def verify_decomposition(spec: AlgebraSpec, dec: Decomposition):
    """Re-derive every claim the Decomposition makes, on the structure's own
    connection; CertificateError on any mismatch.  The --recheck path and
    the only test of the factors and g0.

    The projections onto the factors along the other pieces come from one
    inverse (`_factor_projections`, the direct-sum test), which exists
    exactly when the factors and g0 sum directly to the whole space, and
    each idempotent must equal its factor's.  For V = f ⊕ W that is the
    whole idempotent check: a map e has e² = e, im e = f and ker e = W
    exactly when e is the projection onto f along W.

    That each idempotent commutes with the 2n connection operators is
    implied, not multiplied out.  A projection e commutes with an operator
    T exactly when T preserves both im e and ker e.  The image is the
    factor, checked to be a strong ideal, which every L_i and R_j
    preserves.  The kernel is the sum of the other factors, each a strong
    ideal, and of g0, which is checked to lie in the two-sided
    annihilator, so every operator sends it to zero.  So every operator
    preserves the kernel too, and no kernel needs its own strong-ideal
    test."""
    conn = connection_of(spec)
    projections = _factor_projections(spec.dim, dec.factors, dec.g0)
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
    for e, p in zip(cert.splitting_idempotents, projections):
        _req(e == p, "idempotent is not the projection onto its factor "
             "along the other pieces")
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
    for big, small in zip(chain, chain[1:]):
        _req(small.contains_rows(
            table_pairs(spec.bracket_table, big.basis, big.basis)),
             "derived vectors escape the next chain member")
    return FiltrationChain(tuple(chain), tuple(h_blocks))


# ---------------------------------------------------------------------------
# Comparison of two decompositions


def nabla_span(conn: ConnectionCoeffs, a: Subspace, b: Subspace) -> Subspace:
    """span{∇_x y : x ∈ a, y ∈ b}, from Γ applied to every pair of basis
    rows."""
    return row_space(table_pairs(conn.table, a.basis, b.basis))


def _interacts(conn, a, b):
    """Whether ∇_x y ≠ 0 for some x, y in a and b, in either order."""
    return not (table_pairs(conn.table, a.basis, b.basis).is_zero()
                and table_pairs(conn.table, b.basis, a.basis).is_zero())


def _match_factors(spec, dec_a, dec_b):
    """Pair the factors: literal equality first, then the unique partner
    with a nonzero ∇-interaction; leftovers (inert factors, ∇FF = 0) are
    paired by dimension, preferring a partner whose diagonal norms pair
    off by rational squares (`_inert_pair_map`).  Returns (matching,
    matched_by, pair_maps): an equal factor's pair map is its basis to
    itself, an inert factor's that of `_inert_pair_map` (or None)."""
    conn = connection_of(spec)
    fa, fb = dec_a.factors, dec_b.factors
    _req(len(fa) == len(fb), "factor counts differ")
    used = set()
    result = {}
    deferred = []
    pair_maps = {}
    for i, f in enumerate(fa):
        eq = [j for j in range(len(fb)) if j not in used and fb[j] == f]
        if eq:
            result[i] = (eq[0], "equal")
            pair_maps[i] = (f.basis, f.basis)
            used.add(eq[0])
            continue
        nz = [j for j in range(len(fb))
              if j not in used and _interacts(conn, f, fb[j])]
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
        pick, pair_maps[i] = next(
            ((j, pm) for j in js
             if (pm := _inert_pair_map(spec, fa[i], fb[j])) is not None),
            (js[0], None))
        result[i] = (pick, "inert")
        used.add(pick)
    matching = tuple((i, result[i][0]) for i in range(len(fa)))
    matched_by = tuple(result[i][1] for i in range(len(fa)))
    return matching, matched_by, pair_maps


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
    matching, matched_by, _ = _match_factors(spec, dec_a, dec_b)
    fa, fb = dec_a.factors, dec_b.factors

    dims_ok = all(fa[i].dim == fb[j].dim for i, j in matching)

    nabla_ok = True
    for (i, j), how in zip(matching, matched_by):
        if how == "equal":   # fa[i] == fb[j]: the four spans are one
            continue
        s = nabla_span(conn, fa[i], fa[i])
        if not (s == nabla_span(conn, fb[j], fb[j])
                and s == nabla_span(conn, fa[i], fb[j])
                and s == nabla_span(conn, fb[j], fa[i])):
            nabla_ok = False

    cross_ok = not any(_interacts(conn, fa[i], fb[l])
                       for i, _ in matching for k, l in matching if k != i)

    # the projection onto each B-factor along the rest is its idempotent
    projections = []
    strong_hom = []
    isometric = []
    for i, j in matching:
        pm = dec_b.certificate.splitting_idempotents[j]
        projections.append(pm)
        # on the factor's basis rows x, y: pm·∇_x y = ∇_{pm x} pm y and
        # ⟨pm x, pm y⟩ = ⟨x, y⟩
        f, pt = fa[i].basis, pm.transpose()
        g = f @ pt
        strong_hom.append(table_pairs(conn.table, f, f) @ pt
                          == table_pairs(conn.table, g, g))
        isometric.append(g @ spec.gram @ g.transpose()
                         == f @ spec.gram @ f.transpose())

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
    """Basis of a factor F adapted to its annihilator, the rows of the Mat
    `vectors`: the first k rows span Ann_R ∩ F (isotropic), the next s−k
    diagonalize a complement of it inside ∇FF, the last k are dual
    partners (⟨X_i, Y_p⟩ = δ_ip, isotropic among themselves, orthogonal to
    the diagonal block)."""

    vectors: Mat
    k: int
    s: int
    diagonal: tuple
    pairings: Mat               # Gram matrix of `vectors`


def adapted_basis(spec: AlgebraSpec, factor: Subspace) -> AdaptedBasis:
    """The `AdaptedBasis` of a strong ideal F, with Ann_R read from the
    kept `ann_report`.  Dual partner p solves a·x = e_p for the constraint
    matrix a below and is zero off a's pivot columns P: a has full row
    rank s, so its RREF transform is the inverse of the pivot block a_P,
    and x_P is column p of it."""
    conn = connection_of(spec)
    form = spec.metric
    if not is_strong_ideal(factor, conn):
        raise PreconditionError("adapted basis needs a strong ideal")
    if not form.restrict(factor).is_nondegenerate():
        raise PreconditionError("adapted basis needs a nondegenerate factor")
    a_f = subspace_intersect(ann_report(spec).ann_r, factor)
    if not is_isotropic(a_f, form):
        raise PreconditionError("factor annihilator is not isotropic")
    nff = nabla_span(conn, factor, factor)
    assert nff.contains_subspace(a_f), \
        "isotropic annihilator must sit inside the nabla span"
    k = a_f.dim
    s = nff.dim

    blocks, diag_norms = [a_f.basis], ()
    w = subspace_complement(a_f, within=nff)
    if w.dim:
        lines, diag_norms = _diag_lines(spec, w)
        blocks.append(lines)
    dim, fb = factor.dim, factor.basis
    if k:
        # a[t][r] = ⟨t, f_r⟩ for the s constraint rows t and basis rows f_r
        a = rref(stack_rows(blocks, spec.dim) @ form.gram @ fb.transpose())
        assert a.rank == s, "dual partner system must be solvable"
        raw = (select_rows(a.transform.transpose(), range(k))
               @ select_rows(fb, a.pivots))
        blocks.append(raw - _isotropic_correction(raw, form, a_f.basis))

    vm = stack_rows(blocks, spec.dim)
    assert vm.nrows == dim
    gram = vm @ form.gram @ vm.transpose()
    # the adapted pattern: X_p pairs with Y_p, the diagonal block its norms
    expect = [[0] * dim for _ in range(dim)]
    for p in range(k):
        expect[p][s + p] = expect[s + p][p] = 1
    for p, norm in enumerate(diag_norms, k):
        expect[p][p] = norm
    assert gram == Mat.from_rows(expect, dim), \
        "adapted basis pairing pattern violated"
    return AdaptedBasis(vectors=vm, k=k, s=s, diagonal=diag_norms,
                        pairings=gram)


def _isotropic_correction(m: Mat, form, ann: Mat) -> Mat:
    """Row p is Σ_{q>p} c_pq·a_q + (c_pp/2)·a_p, for c = m·G·mᵀ and a_q
    the rows of ann.  With ann isotropic and ⟨m_p, a_q⟩ = δ_pq, m minus it
    has isotropic, pairwise orthogonal rows: `adapted_basis`'s dual
    partners; `build_strong_isometry` adds it to the partners' images."""
    d, c = (m @ form.gram @ m.transpose()).image()
    w = [[0] * p + [r[p]] + [2 * x for x in r[p + 1:]]
         for p, r in enumerate(c)]
    return Mat.from_image(2 * d, w, (len(c), len(c))) @ ann


def _diag_lines(spec, factor):
    """Orthogonal line decomposition of a nondegenerate subspace (an inert
    factor, or an adapted basis's diagonal block): (P·B, norms), for B its
    basis and P diagonalizing the form on B's rows; row p of P·B has norm
    norms[p]."""
    dg = congruent_diagonalize(spec.metric.restrict(factor))
    assert all(dg.diagonal)
    return dg.basis_change @ factor.basis, dg.diagonal


def _inert_pair_map(spec, f_a, f_b):
    """(sources, images) for an inert factor pair, Mats whose rows pair
    off; None if impossible.  Two norms are in one square class exactly
    when their ratio is a rational square, an equivalence relation, so each
    line of f_a takes the first unused line of f_b in its class, scaled by
    the square root of that ratio: a pairing exists exactly when the class
    multisets agree, and no norm is factored."""
    lb, nb = _diag_lines(spec, f_b)
    if lb.nrows != f_a.dim:
        return None
    la, na = _diag_lines(spec, f_a)
    free = list(range(lb.nrows))   # the unused lines of f_b
    images = []
    for da in na:
        for at, q in enumerate(free):
            lam = rational_sqrt(da / nb[q])
            if lam is not None:
                break
        else:
            return None
        images.append(select_rows(lb, (free.pop(at),)).scale(lam))
    return la, stack_rows(images, spec.dim)


def build_strong_isometry(spec: AlgebraSpec, dec_a: Decomposition,
                          dec_b: Decomposition):
    """A rational strong isometry of the whole structure carrying the
    first decomposition onto the second (factor to matched factor, g0 to
    g0).  Requires the one- and two-sided annihilators to coincide and
    both decompositions to be orthogonal; when the annihilators differ the
    uniqueness statement only provides the factor-matching report, not an
    ambient isometry.  Returns the map's Mat, or Unsupported when the only
    obstruction is irrational norm matching between inert factors.  Pairs
    are classed by `_match_factors`: F with ∇FF = 0 meets nothing under ∇
    (factors do not interact, g0 ⊆ Ann), so only an active pair builds ∇FF.
    The closing checks verify every map returned."""
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

    matching, matched_by, pair_maps = _match_factors(spec, dec_a, dec_b)
    fa, fb = dec_a.factors, dec_b.factors
    onto_b = dec_b.certificate.splitting_idempotents
    maps = []   # (source rows, their images row for row), as Mats
    to_g0_b = Mat.identity(n)   # onto dec_b's g0 along its factors
    for e in onto_b:
        to_g0_b -= e
    failed_inert = []
    for (i, j), how in zip(matching, matched_by):
        if how != "nabla":   # an equal or inert pair: its pair map
            if pair_maps[i] is None:
                failed_inert.append((i, j))
            else:
                maps.append(pair_maps[i])
            continue
        # active pair: shared subspaces + adapted basis + corrections; the
        # adapted basis's first s rows span ∇FF, its first k Ann_R ∩ F
        ab = adapted_basis(spec, fa[i])
        k, s = ab.k, ab.s
        shared = select_rows(ab.vectors, range(s))
        isotropic = select_rows(ab.vectors, range(k))
        nff_b = nabla_span(conn, fb[j], fb[j])
        _req(nff_b.dim == s and nff_b.contains_rows(shared),
             "matched factors do not share their nabla span")
        a_fb = subspace_intersect(report.ann_r, fb[j])
        _req(a_fb.dim == k and a_fb.contains_rows(isotropic),
             "matched factors do not share their annihilator")
        maps.append((shared, shared))   # the shared block maps identically
        if k:
            duals = select_rows(ab.vectors, range(s, s + k))
            fix = _isotropic_correction(duals @ to_g0_b.transpose(), form,
                                        isotropic)
            maps.append((duals, duals @ onto_b[j].transpose() + fix))
    if failed_inert:
        pairs = ", ".join(f"{i}->{j}" for i, j in failed_inert)
        return Unsupported(
            f"inert factor pairs ({pairs}) have no rational square-class "
            f"matching between their diagonal norms")
    if dec_a.g0 is not None or dec_b.g0 is not None:
        _req(dec_a.g0 is not None and dec_b.g0 is not None
             and dec_a.g0.dim == dec_b.g0.dim, "g0 blocks do not match")
        # u's g0_b part along dec_b's factors is its part along rad ⊕ g0_b:
        # rad = Ann_R ∩ ∇gg lies in the sum of those factors
        maps.append((dec_a.g0.basis, dec_a.g0.basis @ to_g0_b.transpose()))

    sm = stack_rows([src for src, _ in maps], n)
    _req(sm.shape == (n, n) and sm.rank() == n,
         "isometry sources do not form a basis")
    tm = stack_rows([img for _, img in maps], n)
    m = tm.transpose() @ sm.transpose().inverse()
    _req(m.rank() == n, "constructed map is singular")
    mt = m.transpose()   # row i: m·e_i
    _req(mt @ form.gram @ m == form.gram, "constructed map is not an isometry")
    # row i·n + j: m·Γ_ij on the left, ∇_{m e_i} m e_j on the right
    _req(conn.table @ mt == table_pairs(conn.table, mt, mt),
         "constructed map does not respect the connection")
    for i, j in matching:
        _req(fa[i].dim == fb[j].dim and fb[j].contains_rows(fa[i].basis @ mt),
             "constructed map does not carry factor to factor")
    if dec_a.g0 is not None:   # the g0 dimensions are checked equal above
        _req(dec_b.g0.contains_rows(dec_a.g0.basis @ mt),
             "constructed map does not carry g0 to g0")
    return m


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
    """Milnor's splitting b ⊕ Ann ⊕ [g, g] of a flat Riemannian structure.
    Not checked, as implied: ∇_b is skew-adjoint (`connection_of` checks
    compatibility), [g, g] is an ideal ([e_i, d] is a sum of bracket-table
    rows), and b = core^⊥ complements core (G is positive definite)."""
    conn = connection_of(spec)
    sig = congruent_diagonalize(spec.metric).signature
    if sig[1] or sig[2]:
        return NotApplicable("metric is not positive definite")
    if not curvature_tensor(spec).is_zero():
        return NotApplicable("structure is not flat")
    n = spec.dim
    derived = row_space(spec.bracket_table)
    _req(derived == nabla_gg(conn),
         "derived subalgebra must equal the nabla span in the flat "
         "Riemannian case")
    a = ann(conn)
    core = subspace_sum(a, derived)
    _req(core.dim == a.dim + derived.dim,
         "annihilator meets the derived subalgebra")
    b = orthogonal_complement(core, spec.metric)
    c, gamma, eye = spec.bracket_table, conn.table, Mat.identity(n)
    _req(table_pairs(c, b.basis, b.basis).is_zero(), "b block is not abelian")
    _req(table_pairs(c, derived.basis, derived.basis).is_zero(),
         "derived block is not abelian")
    _req(derived.dim % 2 == 0, "derived block has odd dimension")
    _req(2 * b.dim <= derived.dim,
         "skew block too large for the derived block")
    # row p·n + x of table_pairs(Γ, U, I) is ∇_{u_p} e_x
    _req(table_pairs(gamma, core.basis, eye).is_zero(),
         "∇ must vanish for left slots outside b")
    _req(table_pairs(gamma, b.basis, eye) == table_pairs(c, b.basis, eye),
         "∇_b must act as the adjoint action")
    return FlatSplit(b=b, ann=a, derived=derived)
