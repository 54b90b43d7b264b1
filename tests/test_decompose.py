import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    verify_decomposition,
)
from metriclie.catalog import catalog_get
from metriclie.algebra import restrict
from metriclie.decompose import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    EVIDENCE_SEARCH_EXHAUSTED,
    NotApplicable,
    _candidate_mats,
    _to_ambient,
    _trace_form,
)
from metriclie.ideals import ann_r, is_strong_ideal
from metriclie.linalg import (
    Mat,
    Subspace,
    SymForm,
    coprime_split,
    kernel,
    minimal_polynomial,
    row_apply,
    row_space,
    subspace_intersect,
    unit_vec,
)


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
    zero = ((Fraction(0),) * n,) * n
    abelian = AlgebraSpec(n, spec.basis_names, (zero,) * n, spec.metric)
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
        for lm in dec.certificate.splitting_idempotents:
            e = lm.matrix
            assert e @ e == e, name
            for op in ops:
                assert e @ op == op @ e, name
            image = row_space(e.transpose())
            assert is_strong_ideal(image, conn), name
            assert is_strong_ideal(kernel(e), conn), name


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


def test_supplied_non_ideal_is_refused(loaded):
    spec, _ = loaded["heisenberg3_euclid"]
    with pytest.raises(PreconditionError):
        decomposition_from_factors(
            spec, [Subspace.from_vectors(3, [unit_vec(3, 2)]),
                   Subspace.from_vectors(3, [unit_vec(3, 0), unit_vec(3, 1)])])


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
    assert len(ab.vectors) == 6
    assert ab.diagonal == ()
    # first k vectors span ann_r
    first = Subspace.from_vectors(6, list(ab.vectors[:3]))
    assert first == ann_r(conn)


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
        adapted_basis(spec, Subspace.from_vectors(3, [unit_vec(3, 0)]))


def test_self_isometry_is_the_identity(loaded, decomposed):
    for name in ("h3_plane", "t_star_h3", "n23_quadratic", "abelian_3"):
        spec, _ = loaded[name]
        dec = decomposed[name]
        iso = build_strong_isometry(spec, dec, dec)
        assert not isinstance(iso, Unsupported), name
        n = spec.dim
        for i in range(n):
            for j in range(n):
                assert iso.matrix.entries[i][j] == (1 if i == j else 0), name


def test_isometry_between_line_splittings(loaded, decomposed):
    spec, _ = loaded["abelian_2_lorentz"]
    entry = catalog_get("abelian_2_lorentz")
    alt = decomposition_from_factors(spec, list(entry.alt_subspaces()))
    iso = build_strong_isometry(spec, decomposed["abelian_2_lorentz"], alt)
    assert not isinstance(iso, Unsupported)
    m = iso.matrix
    g = spec.gram
    assert m.transpose() @ g @ m == g
    # factor images land on the alternative lines
    for f, target in zip(decomposed["abelian_2_lorentz"].factors, (0, 1)):
        image = Subspace.from_vectors(2, [m.apply(v) for v in f.rows])
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
        ch = filtration(spec)
        for cur, nxt in zip(ch.chain, ch.chain[1:]):
            for x in cur.rows:
                for y in cur.rows:
                    assert nxt.contains(spec.bracket_apply(x, y)), name


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
            form = _trace_form(comm)
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
    mapped = tuple(row_apply(r, c.basis) for r in h.rows)
    assert _to_ambient(c, h).rows == mapped


def _direct_sum(*specs):
    n = sum(s.dim for s in specs)
    zero = (Fraction(0),)
    table = [[zero * n] * n for _ in range(n)]
    gram = [[Fraction(0)] * n for _ in range(n)]
    names = []
    at = 0
    for k, s in enumerate(specs):
        names += [f"{b}_{k}" for b in s.basis_names]
        pad = n - at - s.dim
        for i in range(s.dim):
            for j in range(s.dim):
                table[at + i][at + j] = zero * at + s.brackets[i][j] + zero * pad
                gram[at + i][at + j] = s.gram.entries[i][j]
        at += s.dim
    return AlgebraSpec(n, tuple(names), table, SymForm(Mat.from_rows(gram, n)))


def test_restricting_from_the_top_equals_restricting_twice(
        shipped_and_generic, loaded, monkeypatch):
    """Every piece `decompose` restricts, and the whole space, paired with
    each piece inside it: one restriction from the top gives the tables and
    metric of restricting to the outer piece and then to the inner one.
    so3 ⊕ sl2 ⊕ so3 adds pieces of pieces, which no catalog entry has."""
    module = importlib.import_module("metriclie.decompose")
    triple = _direct_sum(*(loaded[name][0] for name in
                           ("so3_killing_neg", "sl2_killing",
                            "so3_killing_neg")))
    cases = list(shipped_and_generic) + [
        ("so3+sl2+so3", triple, connection_of(triple))]
    proper_pairs = 0
    for label, spec, _ in cases:
        visited = [Subspace.full(spec.dim)]

        def recording(s, h, spec=spec, visited=visited):
            if s is spec:
                visited.append(h)
            return restrict(s, h)
        monkeypatch.setattr(module, "restrict", recording)
        decompose(spec)
        monkeypatch.undo()
        for outer in visited:
            mid_spec = restrict(spec, outer)
            for inner in visited:
                if inner == outer or not outer.contains_subspace(inner):
                    continue
                proper_pairs += outer.dim < spec.dim
                local = Subspace.from_vectors(
                    outer.dim, [outer.coords(r) for r in inner.rows])
                twice_spec = restrict(mid_spec, local)
                top_spec = restrict(spec, inner)
                assert (connection_of(top_spec).gamma
                        == connection_of(twice_spec).gamma), label
                assert top_spec.brackets == twice_spec.brackets, label
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
    triple = _direct_sum(*(loaded[name][0] for name in
                           ("so3_killing_neg", "sl2_killing",
                            "so3_killing_neg")))
    assert len(decompose(triple).factors) == 3
    assert len(derived) == 1 and derived[0] is triple
