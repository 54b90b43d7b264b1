"""Acceptance suite: thirteen exact criteria, one test (and one pass/fail
line under -v) per criterion.  Everything is checked in rational
arithmetic with zero tolerance."""

import json
import random
from fractions import Fraction

from metriclie import (
    ann_report,
    classify,
    compare_decompositions,
    curvature_tensor,
    decompose,
    decomposition_from_factors,
    filtration,
    flat_riemannian_structure,
    is_biinvariant,
    is_strong_ideal,
    killing_form,
    left_ops,
    restrict,
    ricci,
    right_ops,
    transform_spec,
)
from metriclie.catalog import catalog_get, catalog_list
from metriclie.cli import _random_basis_change, main
from metriclie.decompose import NotApplicable
from metriclie.fileformat import dumps_document, parse_string
from metriclie.ideals import ann_r as ann_r_of, nabla_gg
from metriclie.linalg import (
    Mat,
    Subspace,
    column_space,
    kernel,
    orthogonal_complement,
    row_space,
    select_rows,
)

import importlib.resources

from oracles import mat_vec, pair, table_at, unit


def test_c01_derived_connection_satisfies_the_two_defining_laws(loaded):
    # torsion: nabla_x y - nabla_y x = [x, y]; compatibility:
    # <nabla_x y, z> + <y, nabla_x z> = 0 — on every basis triple of every
    # bracket-mode entry, checked directly from the tables
    checked = 0
    for name, (spec, conn) in loaded.items():
        if spec.mode != "bracket":
            continue
        n = spec.dim
        gamma = conn.table.entries   # row i·n + j = ∇_{e_i} e_j
        g = spec.gram.entries
        for i in range(n):
            for j in range(n):
                diff = tuple(a - b for a, b in zip(gamma[i * n + j],
                                                   gamma[j * n + i]))
                assert diff == spec.bracket_table.entries[i * n + j], name
                for k in range(n):
                    lhs = pair(g, gamma[i * n + j], unit(n, k))
                    rhs = pair(g, unit(n, j), gamma[i * n + k])
                    assert lhs + rhs == 0, name
        checked += 1
    assert checked >= 12


def test_c02_right_annihilator_equals_nabla_orthocomplement(loaded):
    for name, (spec, conn) in loaded.items():
        joint_kernel = ann_r_of(conn)
        complement = orthogonal_complement(nabla_gg(conn), spec.metric)
        assert joint_kernel == complement, name


def test_c03_strong_ideals_control_their_orthocomplements(loaded, decomposed):
    seen = 0
    for name, (spec, conn) in loaded.items():
        n, gamma = spec.dim, conn.table.entries
        candidates = list(decomposed[name].factors)
        if decomposed[name].g0 is not None:
            candidates.append(decomposed[name].g0)
        candidates.extend(filtration(spec).chain[1:])
        for h in candidates:
            assert is_strong_ideal(h, conn), name
            hp = orthogonal_complement(h, spec.metric)
            for w in hp.basis.entries:
                for i in range(n):
                    assert hp.contains(table_at(gamma, unit(n, i), w)), name
                for v in h.basis.entries:
                    assert not any(table_at(gamma, v, w)), name
            seen += 1
    assert seen >= 15


def test_c04_biinvariant_identities_flatness_and_ricci_flatness(loaded):
    biinv = {name for name, (spec, _) in loaded.items()
             if is_biinvariant(spec)}
    # the nonabelian entries built on invariant pairings, plus every abelian
    # entry (trivially so)
    assert {"so3_killing_neg", "sl2_killing", "t_star_h3",
            "n23_quadratic", "so3_x_so3"} <= biinv
    assert biinv.isdisjoint({"heisenberg3_euclid", "e2_flat", "h3_plane",
                             "nonorthogonal8"})
    for name in biinv:
        spec, conn = loaded[name]
        n = spec.dim
        for i in range(n):
            for j in range(n):
                assert conn.table.entries[i * n + j] == tuple(
                    x / 2 for x in spec.bracket_table.entries[i * n + j]), name
        ric = ricci(spec)
        k = killing_form(spec)
        for i in range(n):
            for j in range(n):
                assert 4 * ric.entries[i][j] == -k.entries[i][j], name
    spec, conn = loaded["t_star_h3"]
    assert curvature_tensor(spec).is_zero()
    spec, conn = loaded["n23_quadratic"]
    r = curvature_tensor(spec)
    assert not r.is_zero()
    assert all(x == 0 for row in ricci(spec).entries for x in row)


def test_c05_einstein_constants_of_the_simple_entries(loaded):
    for name, c in (("so3_killing_neg", Fraction(1, 4)),
                    ("sl2_killing", Fraction(-1, 4))):
        spec, _ = loaded[name]
        rep = classify(spec)
        assert rep.einstein == c, name
        ric = ricci(spec)
        k = killing_form(spec)
        n = spec.dim
        for i in range(n):
            for j in range(n):
                assert 4 * ric.entries[i][j] == -k.entries[i][j], name
                assert ric.entries[i][j] == c * spec.gram.entries[i][j], name


def test_c06_nonorthogonal_eight_dim_reproduction(loaded, decomposed):
    spec, _ = loaded["nonorthogonal8"]
    rep = ann_report(spec)
    eye = Mat.identity(8)
    assert rep.ann_r == row_space(select_rows(eye, (0, 1, 4, 5)))  # X1 X2 Y1 Y2
    assert rep.isotropic
    assert rep.ann == row_space(select_rows(eye, (1, 5)))          # X2 Y2
    dec = decomposed["nonorthogonal8"]
    assert sorted(f.dim for f in dec.factors) == [4, 4]
    assert dec.orthogonal is False

    alt_entry = catalog_get("nonorthogonal8_alt")
    dec_b = decomposition_from_factors(spec, list(alt_entry.alt_subspaces()))
    cmp_rep = compare_decompositions(spec, dec, dec_b)
    assert cmp_rep.matched_by == ("nabla", "nabla")
    assert cmp_rep.dims_ok and cmp_rep.nabla_spaces_ok
    assert cmp_rep.cross_vanishing_ok
    assert all(cmp_rep.strong_hom_ok) and all(cmp_rep.isometric)

    x4 = unit(8, 3)
    y4 = unit(8, 7)
    (kx,) = [t for t, (i, _) in enumerate(cmp_rep.matching)
             if dec.factors[i].contains(x4)]
    (ky,) = [t for t, (i, _) in enumerate(cmp_rep.matching)
             if dec.factors[i].contains(y4)]
    p1_x4 = mat_vec(cmp_rep.projections[kx].entries, x4)
    p2_y4 = mat_vec(cmp_rep.projections[ky].entries, y4)
    assert pair(spec.gram.entries, p1_x4, p2_y4) == 1
    assert pair(spec.gram.entries, x4, y4) == 1


def test_c07_uniqueness_under_twenty_random_basis_changes(loaded, decomposed):
    tested = 0
    for name, (spec, _) in loaded.items():
        rep = ann_report(spec)
        if rep.ann_r.dim != 0:
            continue
        canonical = set(decomposed[name].factors)
        n = spec.dim
        rng = random.Random(0xC0FFEE ^ n)
        for _ in range(20):
            p = _random_basis_change(n, rng)
            dec_t = decompose(transform_spec(spec, p))
            mapped = {row_space(f.basis @ p) for f in dec_t.factors}
            assert mapped == canonical, name
        tested += 1
    assert tested == 4   # heisenberg, so3, sl2, so3 x so3


def test_c08_einstein_constant_inherited_by_the_factors(loaded, decomposed):
    spec, _ = loaded["so3_x_so3"]
    whole = classify(spec)
    assert whole.einstein == Fraction(1, 4)
    assert whole.einstein != 0
    factors = decomposed["so3_x_so3"].factors
    assert len(factors) == 2
    for f in factors:
        sub_spec = restrict(spec, f)
        assert classify(sub_spec).einstein == Fraction(1, 4)


def test_c09_filtration_chain_of_the_flat_motion_algebra(loaded):
    spec, conn = loaded["e2_flat"]
    ch = filtration(spec)
    assert len(ch.chain) == 2
    assert ch.chain[0] == Subspace.full(3)
    assert ch.chain[1] == row_space(
        select_rows(Mat.identity(3), (1, 2)))     # span{u1, u2}
    for cur, nxt in zip(ch.chain, ch.chain[1:]):
        assert is_strong_ideal(nxt, conn)
        for x in cur.basis.entries:               # abelian quotient
            for y in cur.basis.entries:
                assert nxt.contains(table_at(spec.bracket_table.entries, x, y))
    assert [h.dim for h in ch.h_blocks] == [1]


def test_c10_flat_riemannian_splitting(loaded):
    spec, conn = loaded["e2_flat"]
    split = flat_riemannian_structure(spec)
    assert not isinstance(split, NotApplicable)
    assert (split.b.dim, split.ann.dim, split.derived.dim) == (1, 0, 2)
    bracket_span = Subspace.from_vectors(3, spec.bracket_table.entries)
    assert split.derived == bracket_span
    assert split.derived == nabla_gg(conn)
    g = spec.gram.entries
    for v in split.b.basis.entries:
        ad = Mat.from_rows([table_at(spec.bracket_table.entries, v, unit(3, i))
                            for i in range(3)], 3).transpose().entries
        for i in range(3):
            for j in range(3):
                lhs = pair(g, mat_vec(ad, unit(3, i)), unit(3, j))
                rhs = pair(g, unit(3, i), mat_vec(ad, unit(3, j)))
                assert lhs + rhs == 0
    assert 2 * split.b.dim <= split.derived.dim


def test_c11_certificate_soundness_and_recheck(loaded, decomposed, capsys):
    for name, dec in decomposed.items():
        spec, conn = loaded[name]
        ops = list(left_ops(conn)) + list(right_ops(conn))
        assert len(ops) == 2 * spec.dim
        assert dec.certificate.splitting_idempotents, name
        for e in dec.certificate.splitting_idempotents:
            assert e @ e == e, name
            for op in ops:
                assert e @ op == op @ e, name
            assert is_strong_ideal(column_space(e), conn), name
            assert is_strong_ideal(kernel(e), conn), name
    for name in catalog_list():
        code = main(["decompose", "--catalog", name, "--recheck",
                     "--format", "json"])
        capsys.readouterr()
        assert code == 0, name


def test_c12_nondegenerate_ricci_forces_trivial_annihilator(loaded):
    nondegenerate = 0
    for name, (spec, conn) in loaded.items():
        ric = ricci(spec)
        if ric.rank() != spec.dim:
            continue
        nondegenerate += 1
        assert ann_r_of(conn).dim == 0, name
        assert nabla_gg(conn) == Subspace.full(spec.dim), name
    assert nondegenerate == 4


def test_c13_cli_determinism_and_file_round_trip(capsys):
    for args in (["decompose", "--catalog", "so3_x_so3", "--format", "json"],
                 ["decompose", "--catalog", "nonorthogonal8",
                  "--format", "json"],
                 ["compare", "--catalog", "h3_plane", "--format", "json",
                  "--seed", "0xC0FFEE"],
                 ["isometry", "--catalog", "abelian_2_lorentz",
                  "--format", "json"]):
        assert main(list(args)) == 0
        first = capsys.readouterr().out
        assert main(list(args)) == 0
        second = capsys.readouterr().out
        assert first == second and first
        json.loads(first)
    for name in catalog_list():
        entry = catalog_get(name)
        text = importlib.resources.files("metriclie").joinpath(
            "data", entry.file).read_text(encoding="utf-8")
        doc = parse_string(text)
        out = dumps_document(doc.name, doc.spec)
        doc2 = parse_string(out)
        assert doc2.spec == doc.spec and doc2.name == doc.name
        assert dumps_document(doc2.name, doc2.spec) == out
