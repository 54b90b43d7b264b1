
from metriclie import (
    ann_report,
    is_isotropic,
    is_strong_ideal,
    nabla_apply,
    strong_ideal_closure,
)
from metriclie.catalog import catalog_get
from metriclie.ideals import ann_r, nabla_gg
from metriclie.linalg import Subspace, orthogonal_complement, unit_vec


def test_right_annihilator_is_the_nabla_orthocomplement(loaded):
    # two genuinely different computations: joint kernel of the left
    # operators vs orthogonal complement of the span of all nabla values
    for name, (spec, conn) in loaded.items():
        a = ann_r(conn)
        b = orthogonal_complement(nabla_gg(conn), spec.metric)
        assert a == b, name


def test_two_sided_annihilator_sits_inside_the_right_one(loaded):
    for name, (spec, conn) in loaded.items():
        rep = ann_report(spec)
        assert rep.ann_r.contains_subspace(rep.ann), name
        # membership characterization of the two-sided annihilator
        n = spec.dim
        for v in rep.ann.rows:
            for i in range(n):
                e = unit_vec(n, i)
                assert all(x == 0 for x in nabla_apply(conn, v, e))
                assert all(x == 0 for x in nabla_apply(conn, e, v))


def test_case_dispatch_matches_catalog(loaded):
    for name, (spec, _) in loaded.items():
        rep = ann_report(spec)
        assert rep.case == catalog_get(name).expected["case"], name


def test_nonorthogonal8_annihilators(loaded):
    spec, _ = loaded["nonorthogonal8"]
    rep = ann_report(spec)
    want_r = Subspace.from_vectors(8, [unit_vec(8, i) for i in (0, 1, 4, 5)])
    want = Subspace.from_vectors(8, [unit_vec(8, i) for i in (1, 5)])
    assert rep.ann_r == want_r
    assert rep.ann == want
    assert rep.isotropic
    assert is_isotropic(rep.ann_r, spec.metric)
    assert not rep.ann_r_equals_ann


def test_heisenberg_center_is_not_a_strong_ideal(loaded):
    spec, conn = loaded["heisenberg3_euclid"]
    center = Subspace.from_vectors(3, [unit_vec(3, 2)])
    assert not is_strong_ideal(center, conn)
    # its closure under the operators is everything
    assert strong_ideal_closure(center, conn) == Subspace.full(3)


def test_decomposition_factors_are_strong_ideals(loaded, decomposed):
    for name, dec in decomposed.items():
        _, conn = loaded[name]
        for f in dec.factors:
            assert is_strong_ideal(f, conn), name
        if dec.g0 is not None:
            assert is_strong_ideal(dec.g0, conn), name


def test_strong_ideals_control_their_orthocomplement(loaded, decomposed):
    # for every strong ideal h: nabla_g h^perp stays in h^perp and
    # nabla_h h^perp vanishes
    for name, dec in decomposed.items():
        spec, conn = loaded[name]
        n = spec.dim
        pieces = list(dec.factors) + ([dec.g0] if dec.g0 is not None else [])
        for h in pieces:
            hp = orthogonal_complement(h, spec.metric)
            for w in hp.rows:
                for i in range(n):
                    assert hp.contains(nabla_apply(conn, unit_vec(n, i), w))
                for v in h.rows:
                    out = nabla_apply(conn, v, w)
                    assert all(x == 0 for x in out), name


def test_radical_of_ann_r(loaded):
    spec, _ = loaded["n23_quadratic"]
    rep = ann_report(spec)
    # ann_r is isotropic here, so it equals its own radical
    assert rep.ann_r_radical == rep.ann_r
    assert rep.ann_r.dim == 2
    spec, _ = loaded["e2_flat"]
    rep = ann_report(spec)
    # nondegenerate one-sided annihilator: trivial radical
    assert rep.ann_r.dim == 1
    assert rep.ann_r_radical.dim == 0
    assert rep.ann.dim == 0
