import importlib
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from metriclie import (
    AlgebraSpec,
    CertificateError,
    PreconditionError,
    Unsupported,
    adapted_basis,
    build_strong_isometry,
    commutant,
    compare_decompositions,
    connection_of,
    decompose,
    decomposition_from_factors,
    filtration,
    flat_riemannian_structure,
    left_ops,
    nabla_span,
    right_ops,
    transform_spec,
    verify_decomposition,
)
from metriclie.catalog import catalog_get, catalog_list
from metriclie.algebra import restrict
from metriclie.cli import _random_basis_change
from metriclie.decompose import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    EVIDENCE_SEARCH_EXHAUSTED,
    NotApplicable,
    _candidate_mats,
    _diag_lines,
    _factor_projections,
    _inert_pair_map,
    _to_ambient,
    commutant_of,
)
from metriclie.fileformat import serialize_document
from metriclie.ideals import (
    CASE_ANN_R_EQ_ANN,
    ann_r,
    ann_report,
    is_strong_ideal,
    nabla_gg,
)
from metriclie.linalg import (
    Mat,
    Subspace,
    SymForm,
    column_space,
    kernel,
    minimal_polynomial,
    orthogonal_complement,
    row_space,
    select_rows,
    subspace_intersect,
    trace_form,
)
from metriclie.poly import coprime_split
from oracles import mat_vec, pair, table_at, unit


def test_reverification_accepts_every_catalog_decomposition(loaded, decomposed):
    for name, dec in decomposed.items():
        spec, _ = loaded[name]
        verify_decomposition(spec, dec)   # raises on any defect


def test_a_certificate_is_checked_against_the_structures_own_connection(
        loaded):
    """The abelian structure on so3_x_so3's basis and metric splits into
    six lines.  They are no strong ideals of so(3) ⊕ so(3), so that
    certificate is refused there: it is checked against the connection the
    structure carries, not against one handed in beside it."""
    spec, _ = loaded["so3_x_so3"]
    n = spec.dim
    zero = Mat.from_rows(((Fraction(0),) * n,) * (n * n), n)
    abelian = AlgebraSpec(n, spec.basis_names, zero, spec.metric)
    dec = decompose(abelian)
    assert [f.dim for f in dec.factors] == [1] * 6
    with pytest.raises(CertificateError, match="not a strong ideal"):
        verify_decomposition(spec, dec)


def test_decompose_is_deterministic(loaded, decomposed):
    for name, (spec, _) in loaded.items():
        again = decompose(spec)
        assert again == decomposed[name], name


def test_certificate_idempotents(loaded, decomposed):
    for name, dec in decomposed.items():
        spec, conn = loaded[name]
        n = spec.dim
        ops = list(left_ops(conn)) + list(right_ops(conn))
        assert len(ops) == 2 * n
        for e in dec.certificate.splitting_idempotents:
            assert e @ e == e, name
            for op in ops:
                assert e @ op == op @ e, name
            image = row_space(e.transpose())
            assert is_strong_ideal(image, conn), name
            assert is_strong_ideal(kernel(e), conn), name


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_an_idempotent_commutes_exactly_with_what_keeps_its_image_and_kernel(
        data):
    """The lemma that lets the verifier skip the commutation products: for
    a projection e, e·T = T·e exactly when T maps im e and ker e into
    themselves.  T = S·M·S⁻¹ for e = S·diag(1, …, 1, 0, …, 0)·S⁻¹ keeps
    both when M's off-diagonal blocks vanish, and these are zeroed at
    random."""
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, n))
    small = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                     min_size=n, max_size=n)
    s = Mat.from_rows(data.draw(small), n)
    assume(s.rank() == n)
    m = data.draw(small)
    upper, lower = data.draw(st.booleans()), data.draw(st.booleans())
    for i in range(n):
        for j in range(n):
            if (i < k <= j and not upper) or (j < k <= i and not lower):
                m[i][j] = 0
    sinv = s.inverse()
    e = s @ Mat.from_rows([[int(i == j < k) for j in range(n)]
                           for i in range(n)], n) @ sinv
    t = s @ Mat.from_rows(m, n) @ sinv
    keeps = all(sub.contains_rows(sub.basis @ t.transpose())
                for sub in (column_space(e), kernel(e)))
    assert (e @ t == t @ e) == keeps


def test_the_lean_verifier_refuses_a_wrong_kernel_and_a_g0_outside_ann(
        loaded, decomposed):
    # a projection onto so3_x_so3's first factor along a complement other
    # than the second factor: idempotent, with the right image
    spec, _ = loaded["so3_x_so3"]
    dec = decomposed["so3_x_so3"]
    f1, f2 = dec.factors
    skew = row_space(f2.basis + Mat.from_rows(
        [f1.basis.entries[0]] * f2.dim, spec.dim))
    (e,) = _factor_projections(spec.dim, [f1], skew)
    assert e @ e == e and column_space(e) == f1
    cert = replace(dec.certificate, splitting_idempotents=(
        e,) + dec.certificate.splitting_idempotents[1:])
    with pytest.raises(CertificateError, match="not the projection onto"):
        verify_decomposition(spec, replace(dec, certificate=cert))
    # h3_plane's g0 moved off the annihilator, still complementing the factor
    spec, _ = loaded["h3_plane"]
    dec = decomposed["h3_plane"]
    (f,) = dec.factors
    v = next(r for r in f.basis.entries if not ann_report(spec).ann.contains(r))
    moved = row_space(dec.g0.basis + Mat.from_rows([v] * dec.g0.dim))
    with pytest.raises(CertificateError, match="g0 is not inside"):
        verify_decomposition(spec, replace(dec, g0=moved))


def test_the_verifier_refuses_overlapping_pieces_as_a_certificate_failure(
        loaded, decomposed):
    """Pieces that overlap have no projections: a tampered certificate with
    them fails verification (exit 3), it is no precondition failure."""
    spec, _ = loaded["so3_x_so3"]
    dec = decomposed["so3_x_so3"]
    f1, _ = dec.factors
    with pytest.raises(CertificateError, match="sum directly"):
        verify_decomposition(spec, replace(dec, factors=(f1, f1)))
    spec, _ = loaded["h3_plane"]
    dec = decomposed["h3_plane"]
    (f,) = dec.factors
    inside = row_space(select_rows(f.basis, range(dec.g0.dim)))
    with pytest.raises(CertificateError, match="sum directly"):
        verify_decomposition(spec, replace(dec, g0=inside))


def test_commutant_contains_identity_and_has_expected_size(loaded):
    for name in ("heisenberg3_euclid", "so3_x_so3", "t_star_h3",
                 "n23_quadratic", "so3_killing_neg"):
        spec, conn = loaded[name]
        basis = commutant(conn)
        want = catalog_get(name).expected.get("commutant_dim")
        if want is not None:
            assert len(basis) == want, name
        n = spec.dim
        ident = Mat.from_rows([[Fraction(1 if i == j else 0)
                                for j in range(n)] for i in range(n)], n)
        stacked = Mat.from_rows(
            [sum((list(b.entries[r]) for r in range(n)), []) for b in basis]
            + [sum((list(ident.entries[r]) for r in range(n)), [])], n * n)
        assert stacked.rank() == len(basis), name   # identity is in the span


def test_factors_of_a_split_do_not_interact(loaded, decomposed):
    for name, dec in decomposed.items():
        spec, conn = loaded[name]
        for i, f in enumerate(dec.factors):
            for j, g in enumerate(dec.factors):
                if i == j:
                    continue
                assert nabla_span(conn, f, g).dim == 0, name


def test_supplied_factor_that_splits_is_refused(loaded):
    spec, _ = loaded["so3_x_so3"]
    with pytest.raises(PreconditionError):
        decomposition_from_factors(spec, [Subspace.full(6)])


def test_supplied_factors_must_sum_directly_to_the_whole_space(
        loaded, decomposed):
    """Overlapping factors, and factors that do not span, are refused
    before any projection is built."""
    spec, _ = loaded["so3_x_so3"]
    f1, _ = decomposed["so3_x_so3"].factors
    for factors in ([f1, f1], [f1]):
        with pytest.raises(PreconditionError, match="sum directly"):
            decomposition_from_factors(spec, factors)


def test_supplied_g0_outside_the_annihilator_is_a_precondition_failure(
        loaded, decomposed):
    """The verifier is the one test of a supplied g0; its failure is the
    caller's, so it surfaces as a PreconditionError (exit 2)."""
    spec, _ = loaded["h3_plane"]
    dec = decomposed["h3_plane"]
    (f,) = dec.factors
    v = next(r for r in f.basis.entries if not ann_report(spec).ann.contains(r))
    moved = row_space(dec.g0.basis + Mat.from_rows([v] * dec.g0.dim))
    with pytest.raises(PreconditionError, match="g0 is not inside"):
        decomposition_from_factors(spec, [f], moved)


def test_a_supplied_zero_factor_is_refused(loaded, decomposed):
    """A zero factor reaches the corner search before the verifier refuses
    it; its commutant is empty, and the search must not fail on that."""
    spec, _ = loaded["so3_x_so3"]
    factors = list(decomposed["so3_x_so3"].factors)
    with pytest.raises(PreconditionError, match="zero factor"):
        decomposition_from_factors(spec, factors + [Subspace.from_vectors(6, [])])


def test_supplied_non_ideal_is_refused(loaded):
    spec, _ = loaded["heisenberg3_euclid"]
    with pytest.raises(PreconditionError):
        decomposition_from_factors(
            spec, [Subspace.from_vectors(3, [unit(3, 2)]),
                   Subspace.from_vectors(3, [unit(3, 0), unit(3, 1)])])


def test_comparing_a_decomposition_with_itself(loaded, decomposed):
    for name in ("so3_x_so3", "h3_plane", "nonorthogonal8"):
        spec, _ = loaded[name]
        dec = decomposed[name]
        rep = compare_decompositions(spec, dec, dec)
        assert all(by == "equal" for by in rep.matched_by), name
        assert rep.dims_ok and rep.nabla_spaces_ok and rep.cross_vanishing_ok
        assert all(rep.strong_hom_ok) and all(rep.isometric)


def test_adapted_basis_shape_for_an_isotropic_annihilator(loaded):
    spec, conn = loaded["t_star_h3"]
    ab = adapted_basis(spec, Subspace.full(6))
    assert (ab.k, ab.s) == (3, 3)
    assert ab.vectors.shape == (6, 6)
    assert ab.diagonal == ()
    # first k rows span ann_r
    assert row_space(select_rows(ab.vectors, range(3))) == ann_r(conn)


def test_adapted_basis_diagonal_block(loaded, decomposed):
    spec, _ = loaded["h3_plane"]
    factor = decomposed["h3_plane"].factors[0]
    ab = adapted_basis(spec, factor)
    assert (ab.k, ab.s) == (0, 3)
    assert len(ab.diagonal) == 3
    assert all(d != 0 for d in ab.diagonal)


def test_adapted_basis_requires_a_strong_ideal(loaded):
    spec, _ = loaded["heisenberg3_euclid"]
    with pytest.raises(PreconditionError):
        adapted_basis(spec, Subspace.from_vectors(3, [unit(3, 0)]))


def test_self_isometry_is_the_identity(loaded, decomposed):
    for name in ("h3_plane", "t_star_h3", "n23_quadratic", "abelian_3"):
        spec, _ = loaded[name]
        dec = decomposed[name]
        iso = build_strong_isometry(spec, dec, dec)
        assert not isinstance(iso, Unsupported), name
        n = spec.dim
        for i in range(n):
            for j in range(n):
                assert iso.entries[i][j] == (1 if i == j else 0), name


def test_isometry_between_line_splittings(loaded, decomposed):
    spec, _ = loaded["abelian_2_lorentz"]
    entry = catalog_get("abelian_2_lorentz")
    alt = decomposition_from_factors(spec, list(entry.alt_subspaces()))
    iso = build_strong_isometry(spec, decomposed["abelian_2_lorentz"], alt)
    assert not isinstance(iso, Unsupported)
    m = iso
    g = spec.gram
    assert m.transpose() @ g @ m == g
    # factor images land on the alternative lines
    for f, target in zip(decomposed["abelian_2_lorentz"].factors, (0, 1)):
        image = row_space(f.basis @ m.transpose())
        assert image in alt.factors


def test_isometry_obstruction_is_reported_not_invented(loaded, decomposed):
    spec, _ = loaded["abelian_2_aniso"]
    entry = catalog_get("abelian_2_aniso")
    good = decomposition_from_factors(spec, list(entry.alt_subspaces()))
    res = build_strong_isometry(spec, decomposed["abelian_2_aniso"], good)
    assert not isinstance(res, Unsupported)
    bad = decomposition_from_factors(
        spec, list(entry.alt_subspaces("alt_factors_unsupported")))
    res = build_strong_isometry(spec, decomposed["abelian_2_aniso"], bad)
    assert isinstance(res, Unsupported)
    assert "square-class" in res.reason


def test_isometry_between_active_factors_that_differ(loaded, monkeypatch):
    """t_star_h3 ⊕ a unit line z (Ann_R = Ann): the one 6-dimensional
    factor F, g0 = span{z}, against F′ = F with z added to one basis row
    outside ∇gg and g0′ = F′^⊥.  F ≠ F′ is an active pair, so the map is
    built from F's adapted basis (k = s = 3) and the dual partners'
    corrections, and it must be an isometry carrying F to F′ and g0 to
    g0′.  The projection F → F′ is no isometry, so `compare` reports the
    pair not isometric; that is not asserted here."""
    module = importlib.import_module("metriclie.decompose")
    doc = serialize_document("t_star_h3", loaded["t_star_h3"][0])
    names = doc["basis"] + ["z"]
    metric = {(e["x"], e["y"]): e["value"] for e in doc["metric"]}
    metric[("z", "z")] = 1
    spec = AlgebraSpec.build(
        names, brackets={(e["x"], e["y"]): e["value"] for e in doc["brackets"]},
        metric=metric)
    assert ann_report(spec).case == CASE_ANN_R_EQ_ANN
    dec = decompose(spec)
    z = unit(7, 6)
    assert [f.dim for f in dec.factors] == [6]
    assert dec.g0 == Subspace.from_vectors(7, [z])
    f = dec.factors[0]
    ngg = nabla_gg(connection_of(spec))
    rows = f.basis.entries
    at = next(p for p, r in enumerate(rows) if not ngg.contains(r))
    f2 = row_space(f.basis + Mat.from_rows(
        [z if p == at else (0,) * 7 for p in range(f.dim)]))
    g02 = orthogonal_complement(f2, spec.metric)
    dec2 = decomposition_from_factors(spec, [f2], g02)
    assert compare_decompositions(spec, dec, dec2).matched_by == ("nabla",)

    built = []
    real = module.adapted_basis

    def counted(*args):
        built.append(real(*args))
        return built[-1]
    monkeypatch.setattr(module, "adapted_basis", counted)
    m = build_strong_isometry(spec, dec, dec2)
    assert type(m) is Mat
    assert [(ab.k, ab.s) for ab in built] == [(3, 3)]
    # no CLI run reaches the active-pair branch: its map is pinned here
    assert m.image() == (2, [[2, 0, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0, 0],
                             [0, 0, 2, 0, 0, 0, 0], [-1, 0, 0, 2, 0, 0, -2],
                             [0, 0, 0, 0, 2, 0, 0], [0, 0, 0, 0, 0, 2, 0],
                             [2, 0, 0, 0, 0, 0, 2]])
    mt = m.transpose()   # row i: m·e_i
    assert mt @ spec.gram @ m == spec.gram
    assert row_space(f.basis @ mt) == f2
    assert row_space(dec.g0.basis @ mt) == g02


def _square_class(d):
    """Trial-division oracle: the squarefree integer whose class modulo
    rational squares is d's."""
    m = abs(d.numerator * d.denominator)
    sf, p = 1, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
        if m % p == 0:
            m //= p
            sf *= p
        p += 1
    return (1 if d > 0 else -1) * sf * m


def _abelian_diagonal(norms):
    """The abelian structure on Q^len(norms) with metric diag(norms)."""
    names = tuple(f"e{i}" for i in range(len(norms)))
    return AlgebraSpec.build(
        names, metric={(a, a): d for a, d in zip(names, norms)})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_inert_lines_pair_exactly_when_their_square_classes_agree(data):
    """Lines pair off by rational square ratios exactly when the
    oracle's multisets of square classes of the diagonal norms agree, and
    each source line goes to a line of the partner with its own norm."""
    k = data.draw(st.integers(1, 3))
    classes = st.lists(st.sampled_from((1, -1, 2, -2, 3, -6, 5, 10)),
                       min_size=k, max_size=k)
    ca = data.draw(classes)
    cb = data.draw(st.one_of(st.permutations(ca), classes))
    scales = st.lists(st.fractions(min_value=1, max_value=40,
                                   max_denominator=12),
                      min_size=2 * k, max_size=2 * k)
    norms = [c * x * x for c, x in zip(ca + cb, data.draw(scales))]
    spec = _abelian_diagonal(norms)
    n = 2 * k
    f_a = row_space(select_rows(Mat.identity(n), range(k)))
    f_b = row_space(select_rows(Mat.identity(n), range(k, n)))
    want = [sorted(map(_square_class, _diag_lines(spec, f)[1]))
            for f in (f_a, f_b)]
    paired = _inert_pair_map(spec, f_a, f_b)
    assert (paired is not None) == (want[0] == want[1])
    if paired is not None:
        sources, images = paired
        assert sources.shape == images.shape == (k, n)
        assert row_space(sources) == f_a
        assert row_space(images) == f_b
        g = spec.gram.entries
        for x, y in zip(sources.entries, images.entries):
            assert pair(g, x, x) == pair(g, y, y)


def test_inert_pairing_of_norms_too_large_to_factor():
    """An abelian plane with metric diag(P, P), P the product of two
    primes near 10⁹: a pairing by trial-division square classes would not
    finish, the pairing by rational square ratios takes milliseconds."""
    big = 1000000007 * 998244353
    spec = _abelian_diagonal((big, big))
    dec = decompose(spec)
    for lines, isometric in ((((3, 4), (4, -3)), True),
                             (((1, 1), (1, -1)), False)):
        start = time.perf_counter()
        alt = decomposition_from_factors(
            spec, [Subspace.from_vectors(2, [v]) for v in lines])
        res = build_strong_isometry(spec, dec, alt)
        assert time.perf_counter() - start < 1
        assert isinstance(res, Unsupported) != isometric, lines
        if isometric:
            assert res.transpose() @ spec.gram @ res == spec.gram


def test_isometry_needs_matching_annihilators(loaded, decomposed):
    spec, _ = loaded["nonorthogonal8"]
    dec = decomposed["nonorthogonal8"]
    with pytest.raises(PreconditionError):
        build_strong_isometry(spec, dec, dec)


def test_filtration_chain_shapes(loaded):
    # one-member chains whenever the one-sided annihilator is isotropic
    # (zero included) or everything
    expected = {"abelian_3": [3], "so3_killing_neg": [3],
                "n23_quadratic": [5], "e2_flat": [3, 2], "h3_plane": [5, 3]}
    for name, dims in expected.items():
        spec, _ = loaded[name]
        ch = filtration(spec)
        assert [s.dim for s in ch.chain] == dims, name
        assert len(ch.h_blocks) == len(ch.chain) - 1, name


def test_filtration_members_need_only_be_ideals_of_their_predecessor():
    # x acts on h3 ⊕ Q·s ([a, b] = z, ⟨b, z⟩ = 1) by b ↦ s ↦ −z, a skew
    # derivation; the chain's last member is a strong ideal of the one
    # before it but not of the whole structure, so restricting it from the
    # top would refuse a valid chain
    spec = AlgebraSpec.build(
        ("x", "a", "b", "z", "s"),
        brackets={("a", "b"): {"z": 1}, ("x", "b"): {"s": 1},
                  ("x", "s"): {"z": -1}},
        metric={("x", "x"): 1, ("a", "a"): 1, ("b", "z"): 1, ("s", "s"): 1})
    ch = filtration(spec)
    assert [s.dim for s in ch.chain] == [5, 4, 3]
    assert [h.dim for h in ch.h_blocks] == [1, 1]
    assert not is_strong_ideal(ch.chain[2], connection_of(spec))


def test_filtration_steps_absorb_brackets(loaded):
    # each quotient is abelian: [chain[i], chain[i]] lands in chain[i+1]
    for name in ("e2_flat", "h3_plane"):
        spec, _ = loaded[name]
        ch, c = filtration(spec), spec.bracket_table.entries
        for cur, nxt in zip(ch.chain, ch.chain[1:]):
            for x in cur.basis.entries:
                for y in cur.basis.entries:
                    assert nxt.contains(table_at(c, x, y)), name


def test_flat_riemannian_split_dims(loaded):
    spec, _ = loaded["e2_flat"]
    split = flat_riemannian_structure(spec)
    assert not isinstance(split, NotApplicable)
    assert (split.b.dim, split.ann.dim, split.derived.dim) == (1, 0, 2)
    assert subspace_intersect(split.b, split.derived).dim == 0


def test_flat_riemannian_split_on_abelian(loaded):
    spec, _ = loaded["abelian_3"]
    split = flat_riemannian_structure(spec)
    assert not isinstance(split, NotApplicable)
    assert split.b.dim == 0
    assert split.ann == Subspace.full(3)
    assert split.derived.dim == 0


def test_flat_riemannian_split_refusals(loaded):
    # wrong signature
    spec, _ = loaded["t_star_h3"]
    assert isinstance(flat_riemannian_structure(spec), NotApplicable)
    # riemannian but curved
    spec, _ = loaded["heisenberg3_euclid"]
    assert isinstance(flat_riemannian_structure(spec), NotApplicable)


def test_budget_zero_still_finds_structural_idempotents(loaded):
    # basis elements and their sums/differences are inspected before any
    # random combination is drawn
    spec, _ = loaded["so3_x_so3"]
    dec = decompose(spec, budget=0)
    assert len(dec.factors) == 2


def test_seed_changes_do_not_change_the_answer(loaded):
    for name in ("so3_x_so3", "nonorthogonal8", "h3_plane"):
        spec, _ = loaded[name]
        a = decompose(spec, seed=1)
        b = decompose(spec, seed=99)
        assert a.factors == b.factors, name
        assert a.g0 == b.g0, name


def test_local_commutant_leaves_have_no_splitting_candidate(
        shipped_and_generic, decomposed):
    """Dickson's criterion on real data: a leaf whose commutant trace form
    has rank 1 yields no candidate with two coprime parts, and on the
    shipped entries these are exactly the SEARCH_EXHAUSTED leaves."""
    local = []
    for label, spec, _ in shipped_and_generic:
        dec = decomposed.get(label) or decompose(spec)
        for i, factor in enumerate(dec.factors):
            comm = commutant(connection_of(restrict(spec, factor)))
            if len(comm) == 1:
                continue
            form = trace_form(comm)
            assert form == Mat.from_rows(
                [[(a @ b).trace() for b in comm] for a in comm], len(comm))
            if form.rank() > 1:
                continue
            local.append((label, i))
            for t in _candidate_mats(comm, DEFAULT_SEED, DEFAULT_BUDGET):
                if not t.is_zero():
                    assert len(coprime_split(minimal_polynomial(t))) == 1, label
    exhausted = sorted(
        (name, i) for name, dec in decomposed.items()
        for i, ev in enumerate(dec.certificate.indecomposability_evidence)
        if ev.kind == EVIDENCE_SEARCH_EXHAUSTED)
    assert sorted(x for x in local if x[0] in decomposed) == exhausted
    assert sorted(name for name, _ in exhausted) == [
        "n23_quadratic", "nonorthogonal8", "nonorthogonal8",
        "nonorthogonal8_alt", "nonorthogonal8_alt", "t_star_h3"]


@pytest.mark.parametrize("generic", (False, True), ids=("block", "generic"))
@pytest.mark.parametrize("degree", (2, 3), ids=("sqrt2", "cbrt2"))
def test_a_field_commutant_ends_the_search(degree, generic, rebased,
                                           so3_over_fields, monkeypatch):
    """so(3)⊗Q(√2) and so(3)⊗Q(∛2), whose commutant is that field: the
    first candidate's minimal polynomial proves that no candidate splits,
    and the whole candidate loop, run here as the oracle, confirms it.  In
    the generic basis the cubic's minimal polynomials have coefficients of
    about 75 bits, beyond any trial division of their constant terms, and
    the decomposition must still take seconds at most."""
    spec = so3_over_fields(2, degree=degree)
    if generic:
        spec = rebased(spec)
    module = importlib.import_module("metriclie.decompose")
    inner = module.minimal_polynomial
    calls = []

    def counting(t):
        calls.append(t)
        return inner(t)
    monkeypatch.setattr(module, "minimal_polynomial", counting)
    start = time.perf_counter()
    dec = decompose(spec)
    assert time.perf_counter() - start < 2
    monkeypatch.undo()
    assert [f.dim for f in dec.factors] == [3 * degree]
    assert [ev.kind for ev in dec.certificate.indecomposability_evidence] \
        == [EVIDENCE_SEARCH_EXHAUSTED]
    assert len(calls) == 1
    comm = commutant(connection_of(spec))
    assert len(comm) == trace_form(comm).rank() == degree
    for t in _candidate_mats(comm, DEFAULT_SEED, DEFAULT_BUDGET):
        if not t.is_zero():
            assert len(coprime_split(minimal_polynomial(t))) == 1


def test_products_of_fields_still_split(loaded, decomposed, so3_over_fields):
    """The field rule must not stop the search where C/rad C is a product:
    so(3) ⊕ so(3) (Q × Q, rank 2) and so(3)⊗Q(√2) ⊕ so(3)⊗Q(√3) in block
    basis (Q(√2) × Q(√3), rank 4)."""
    block = so3_over_fields(2, 3)
    cases = ((loaded["so3_x_so3"][0], decomposed["so3_x_so3"], 2, [3, 3]),
             (block, decompose(block), 4, [6, 6]))
    for spec, dec, rank, dims in cases:
        comm = commutant(connection_of(spec))
        assert trace_form(comm).rank() == rank
        assert [f.dim for f in dec.factors] == dims


def subspaces(n):
    vecs = st.lists(st.lists(st.fractions(min_value=-9, max_value=9,
                                          max_denominator=6),
                             min_size=n, max_size=n), max_size=n + 1)
    return vecs.map(lambda vs: Subspace.from_vectors(n, vs))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_a_subspace_of_a_carrier_maps_onto_its_canonical_basis(data):
    """The lemma behind restricting split pieces from the top: the carrier's
    pivot columns are identity columns, so the canonical basis of h mapped
    through the carrier's canonical basis is canonical already."""
    n = data.draw(st.integers(1, 5))
    c = data.draw(subspaces(n))
    h = data.draw(subspaces(c.dim))
    cols = c.basis.transpose().entries
    mapped = tuple(mat_vec(cols, r) for r in h.basis.entries)
    assert _to_ambient(c, h).basis.entries == mapped
    assert _to_ambient(c, h) == Subspace.from_vectors(n, mapped)


def _direct_sum(*specs):
    n = sum(s.dim for s in specs)
    zero = (Fraction(0),)
    table = [zero * n] * (n * n)   # row i·n + j = c_ij
    gram = [[Fraction(0)] * n for _ in range(n)]
    names = []
    at = 0
    for k, s in enumerate(specs):
        names += [f"{b}_{k}" for b in s.basis_names]
        pad, c = n - at - s.dim, s.bracket_table.entries
        for i in range(s.dim):
            for j in range(s.dim):
                table[(at + i) * n + at + j] = (
                    zero * at + c[i * s.dim + j] + zero * pad)
                gram[at + i][at + j] = s.gram.entries[i][j]
        at += s.dim
    return AlgebraSpec(n, tuple(names), Mat.from_rows(table, n),
                       SymForm(Mat.from_rows(gram, n)))


def _triple(loaded):
    return _direct_sum(*(loaded[name][0] for name in
                         ("so3_killing_neg", "sl2_killing", "so3_killing_neg")))


def test_restricting_from_the_top_equals_restricting_twice(
        shipped_and_generic, loaded, monkeypatch):
    """Every carrier `_split` visits, and the whole space, paired with each
    carrier inside it: one restriction from the top gives the tables and
    metric of restricting to the outer carrier and then to the inner one.
    so3 ⊕ sl2 ⊕ so3 adds pieces of pieces, which no catalog entry has."""
    module = importlib.import_module("metriclie.decompose")
    split = module._split
    triple = _triple(loaded)
    cases = list(shipped_and_generic) + [
        ("so3+sl2+so3", triple, connection_of(triple))]
    proper_pairs = 0
    for label, spec, _ in cases:
        visited = [Subspace.full(spec.dim)]

        def recording(s, piece, *rest, visited=visited):
            visited.append(piece)
            return split(s, piece, *rest)
        monkeypatch.setattr(module, "_split", recording)
        decompose(spec)
        monkeypatch.undo()
        for outer in visited:
            mid_spec = restrict(spec, outer)
            for inner in visited:
                if inner == outer or not outer.contains_subspace(inner):
                    continue
                proper_pairs += outer.dim < spec.dim
                # inner's rows in outer's canonical basis: their entries
                # at outer's pivots, where its rows are 1 and 0
                local = Subspace.from_vectors(outer.dim, [
                    [r[p] for p in outer.pivots] for r in inner.basis.entries])
                twice_spec = restrict(mid_spec, local)
                top_spec = restrict(spec, inner)
                assert (connection_of(top_spec).table
                        == connection_of(twice_spec).table), label
                assert top_spec.bracket_table == twice_spec.bracket_table, \
                    label
                assert top_spec.metric == twice_spec.metric, label
    assert proper_pairs > 0


def test_pieces_of_pieces_derive_no_connection(loaded, monkeypatch):
    """Every piece keeps the Γ sub-table `restrict` built, so decomposing
    so3 ⊕ sl2 ⊕ so3, whose pieces are split again, derives one connection:
    the whole structure's."""
    algebra = importlib.import_module("metriclie.algebra")
    derive = algebra.derive_connection
    derived = []

    def counting(spec):
        derived.append(spec)
        return derive(spec)
    monkeypatch.setattr(algebra, "derive_connection", counting)
    triple = _triple(loaded)
    assert len(decompose(triple).factors) == 3
    assert len(derived) == 1 and derived[0] is triple


def test_a_corner_of_the_commutant_is_the_pieces_own_commutant(
        shipped_and_generic, loaded, decomposed, so3_over_fields, rebased,
        monkeypatch):
    """The corner e·C·e of every piece `_split` visits and of every
    supplied factor is, matrix for matrix, the commutant of the piece
    restricted from the top: on every catalog entry as shipped and in a
    generic basis, nonorthogonal8 included (its factors come from
    non-central idempotents, so C does not keep each piece), on
    so3 ⊕ sl2 ⊕ so3, on the n = 12 block ladder rung
    so(3)⊗Q(√2) ⊕ so(3)⊗Q(√3), and on the catalog's alternative factors."""
    module = importlib.import_module("metriclie.decompose")
    corner = module._corner
    checked = []

    def checking(spec, e, piece):
        out = corner(spec, e, piece)
        assert out == commutant(connection_of(restrict(spec, piece)))
        checked.append(piece)
        return out
    monkeypatch.setattr(module, "_corner", checking)
    cases = [(spec, None) for _, spec, _ in shipped_and_generic]
    cases += [(rebased(loaded["nonorthogonal8"][0]), None),
              (_triple(loaded), None), (so3_over_fields(2, 3), None)]
    cases += [(loaded[name][0], name) for name in catalog_list()
              if catalog_get(name).alt_factors is not None]
    for spec, alt in cases:
        if alt is None:
            decompose(spec)
        else:
            decomposition_from_factors(
                spec, list(catalog_get(alt).alt_subspaces()),
                decomposed[alt].g0)
    assert len(checked) > len(cases)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=3, deadline=None)
def test_a_carried_commutant_is_the_solved_one(shipped_and_generic, seed):
    """A commutant kept on a structure is carried through a change of basis
    P (the CLI's draw): `transform_spec` gives the copy the basis that
    `commutant` solves on it from scratch, for a copy of the structure
    that keeps none."""
    rng = random.Random(seed)
    for label, spec, _ in shipped_and_generic:
        commutant_of(spec)
        p = _random_basis_change(spec.dim, rng)
        carried = transform_spec(spec, p)._commutant
        solved = commutant(connection_of(transform_spec(replace(spec), p)))
        assert carried is not None and carried == solved, label


def test_one_commutant_and_one_annihilator_report_per_structure(
        loaded, monkeypatch, capsys):
    """`decompose`, `compare` and `isometry` solve the commutant at most
    once (a re-based copy inherits it) and derive the annihilator report
    once per structure (a spec and its re-based copy are two), and
    `decompose` restricts nothing."""
    from metriclie import algebra, ideals
    from metriclie.cli import main
    module = importlib.import_module("metriclie.decompose")
    solve, report_type = module.commutant, ideals.AnnReport
    solved, reports, restricted = [], [], []

    def counting_commutant(conn):
        solved.append(conn)
        return solve(conn)

    def counting_report(**kwargs):
        reports.append(kwargs)
        return report_type(**kwargs)

    def counting_restrict(spec, h):
        restricted.append(h)
        return restrict(spec, h)
    monkeypatch.setattr(module, "commutant", counting_commutant)
    monkeypatch.setattr(ideals, "AnnReport", counting_report)
    monkeypatch.setattr(module, "restrict", counting_restrict)
    monkeypatch.setattr(algebra, "restrict", counting_restrict)
    for name, (spec, _) in loaded.items():
        entry = catalog_get(name)
        for command in ("decompose", "compare", "isometry"):
            if command != "decompose" and spec.dim > 5:
                continue
            structures = 1 if command == "decompose" or entry.alt_factors \
                else 2
            del solved[:], reports[:], restricted[:]
            code = main([command, "--catalog", name, "--format", "json"])
            capsys.readouterr()
            assert code in (0, 2), (command, name)
            assert len(reports) == structures, (command, name)
            assert len(solved) <= 1, (command, name)
            if command == "decompose":   # lines need no commutant
                assert restricted == [], name
                assert len(solved) == (reports[0]["case"] not in
                                       ("NON_ISOTROPIC", "ANN_R_FULL")), name
