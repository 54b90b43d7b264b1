"""Curvature, Ricci, and Killing data checked against independently coded
oracles (different contraction routes than the library uses)."""

import importlib
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from metriclie import (
    AlgebraSpec,
    ad_matrix,
    classify,
    connection_of,
    curvature_tensor,
    is_biinvariant,
    killing_form,
    left_ops,
    nilpotency_class,
    restrict,
    ricci,
    transform_spec,
)
from metriclie.linalg import Mat, SymForm
from oracles import mat_vec, pair, unit
from test_algebra import random_spec

curvature = importlib.import_module("metriclie.curvature")


def ricci_oracle(spec):
    """ric(X, Y) as the metric contraction sum_k <R(b_k, X) Y, b^k> with
    b^k the metric-dual basis — same trace, different code path."""
    n = spec.dim
    r = curvature_tensor(spec).table.entries   # R(e_k, e_i)e_j at (k·n + i)·n + j
    g, dual = spec.gram.entries, spec.gram.inverse().entries
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            total = Fraction(0)
            for k in range(n):
                total += pair(g, r[(k * n + i) * n + j], dual[k])
            row.append(total)
        out.append(row)
    return Mat.from_rows(out, n)


def killing_oracle(spec):
    """K_ij = sum_{a,b} c_{ia}^b c_{jb}^a straight from the bracket table's
    rows (row i·n + a = c_ia)."""
    n = spec.dim
    c = spec.bracket_table.entries
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            total = Fraction(0)
            for a in range(n):
                for b in range(n):
                    total += c[i * n + a][b] * c[j * n + b][a]
            row.append(total)
        out.append(row)
    return Mat.from_rows(out, n)


def test_ricci_matches_the_dual_basis_contraction(loaded):
    for name, (spec, _) in loaded.items():
        assert ricci(spec) == ricci_oracle(spec), name


def test_killing_form_matches_structure_constant_sum(loaded):
    for name, (spec, _) in loaded.items():
        assert killing_form(spec) == killing_oracle(spec), name


def assert_operator_form(spec, label=None):
    """R(e_i, e_j) = [L_i, L_j] - sum_m c_ij^m L_m as Mat products, with
    L_i the matrix of y -> nabla_{e_i} y, on every ordered pair i, j; the
    tensor's row (i·n + j)·n + k is R(e_i, e_j) e_k."""
    n = spec.dim
    ls = left_ops(connection_of(spec))
    r, c = curvature_tensor(spec).table.entries, spec.bracket_table.entries
    for i in range(n):
        for j in range(n):
            op = ls[i] @ ls[j] - ls[j] @ ls[i]
            for m in range(n):
                op = op - ls[m].scale(c[i * n + j][m])
            cols = op.transpose().entries
            for k in range(n):
                assert r[(i * n + j) * n + k] == cols[k], (label, i, j, k)


@st.composite
def random_connection_spec(draw):
    """Connection-mode tables from a random nondegenerate G and a random
    lowered table T_ijk = ⟨∇_{e_i} e_j, e_k⟩, antisymmetric in j, k, with
    Γ_ij = G⁻¹·T_ij: metric and torsion-free by construction, while the
    induced brackets may fail Jacobi.  Zeros are drawn often, so sparse
    operators are exercised too."""
    n = draw(st.integers(1, 4))
    small = st.sampled_from((0, 0, 0, 1, -1, 2, -3, Fraction(1, 2)))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(small)
    gram = Mat.from_rows(g, n)
    assume(gram.rank() == n)
    ginv = gram.inverse()
    gamma = []   # row i·n + j = Γ_ij
    for i in range(n):
        t = [[0] * n for _ in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                t[j][k] = draw(small)
                t[k][j] = -t[j][k]
        gamma.extend((Mat.from_rows(t, n) @ ginv.transpose()).entries)
    names = [f"e{i}" for i in range(n)]
    return AlgebraSpec.from_connection(names, Mat.from_rows(gamma, n),
                                       SymForm(gram))


def test_curvature_tensor_matches_the_operator_form(shipped_and_generic):
    for label, spec, _ in shipped_and_generic:
        assert_operator_form(spec, label)


@given(random_connection_spec())
@settings(max_examples=40, deadline=None)
def test_curvature_tensor_matches_the_operator_form_on_random_connections(
        spec):
    assert_operator_form(spec)


@given(random_spec())
@settings(max_examples=40, deadline=None)
def test_curvature_tensor_matches_the_operator_form_on_random_brackets(spec):
    assert_operator_form(spec)


@given(random_spec())
@settings(max_examples=40, deadline=None)
def test_ricci_matches_the_dual_basis_contraction_on_random_brackets(spec):
    assert ricci(spec) == ricci_oracle(spec)


def test_killing_form_matches_the_ad_matrix_traces(shipped_and_generic):
    for label, spec, _ in shipped_and_generic:
        n = spec.dim
        ads = [ad_matrix(spec, i) for i in range(n)]
        want = Mat.from_rows([[(ads[i] @ ads[j]).trace() for j in range(n)]
                              for i in range(n)], n)
        assert killing_form(spec) == want, label


def test_so3_killing_is_minus_two_identity(loaded):
    spec, _ = loaded["so3_killing_neg"]
    k = killing_form(spec)
    for i in range(3):
        for j in range(3):
            assert k.entries[i][j] == (-2 if i == j else 0)


def test_biinvariance_detection(loaded):
    expected = {"so3_killing_neg": True, "sl2_killing": True,
                "t_star_h3": True, "n23_quadratic": True,
                "heisenberg3_euclid": False, "e2_flat": False,
                "h3_plane": False}
    for name, flag in expected.items():
        spec, _ = loaded[name]
        assert is_biinvariant(spec) is flag, name


def biinvariant_oracle(spec):
    """(G·c_ij)_k + (G·c_ik)_j = 0 on all basis triples, each c_ij lowered
    in Fractions by `mat_vec` (the bracket table's row i·n + j is c_ij)."""
    n = spec.dim
    c, g = spec.bracket_table.entries, spec.gram.entries
    for i in range(n):
        lowered = [mat_vec(g, v) for v in c[i * n:(i + 1) * n]]
        for j in range(n):
            for k in range(j, n):
                if lowered[j][k] + lowered[k][j] != 0:
                    return False
    return True


def test_biinvariance_matches_the_fraction_oracle(shipped_and_generic):
    flags = set()
    for label, spec, _ in shipped_and_generic:
        flag = is_biinvariant(spec)
        assert flag is biinvariant_oracle(spec), label
        flags.add(flag)
    assert flags == {True, False}


@given(random_spec())
@settings(max_examples=30, deadline=None)
def test_biinvariance_matches_the_fraction_oracle_on_random_tables(spec):
    assert is_biinvariant(spec) is biinvariant_oracle(spec)


def test_biinvariant_connection_is_half_bracket(loaded):
    for name in ("so3_killing_neg", "sl2_killing", "t_star_h3",
                 "n23_quadratic"):
        spec, conn = loaded[name]
        n = spec.dim
        for i in range(n):
            for j in range(n):
                half = tuple(x / 2 for x in spec.bracket_table.entries[i * n + j])
                assert conn.table.entries[i * n + j] == half, name


def test_biinvariant_ricci_is_minus_quarter_killing(loaded):
    for name in ("so3_killing_neg", "sl2_killing", "t_star_h3",
                 "n23_quadratic"):
        spec, _ = loaded[name]
        ric = ricci(spec)
        k = killing_form(spec)
        n = spec.dim
        for i in range(n):
            for j in range(n):
                assert ric.entries[i][j] == -k.entries[i][j] / 4, name


def test_curvature_antisymmetry_and_metric_skewness(loaded):
    # R(X,Y) = -R(Y,X) always; <R(X,Y)Z, W> = -<R(X,Y)W, Z> for the
    # bracket-mode entries (where the connection really is metric)
    for name, (spec, _) in loaded.items():
        # row (i·n + j)·n + k = R(e_i,e_j)e_k
        r = curvature_tensor(spec).table.entries
        n, g = spec.dim, spec.gram.entries
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a = r[(i * n + j) * n + k]
                    b = r[(j * n + i) * n + k]
                    assert all(x == -y for x, y in zip(a, b)), name
        if name.startswith("nonorthogonal8"):
            continue
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    for m in range(k, n):
                        lhs = pair(g, r[(i * n + j) * n + k], unit(n, m))
                        rhs = pair(g, r[(i * n + j) * n + m], unit(n, k))
                        assert lhs == -rhs, name


def test_nilpotency_classes(loaded):
    expected = {"abelian_2": 1, "heisenberg3_euclid": 2, "t_star_h3": 2,
                "n23_quadratic": 3, "so3_killing_neg": None,
                "sl2_killing": None, "e2_flat": None}
    for name, cls in expected.items():
        spec, _ = loaded[name]
        assert nilpotency_class(spec) == cls, name


def test_flatness_and_ricci_flatness(loaded):
    spec, _ = loaded["t_star_h3"]
    assert curvature_tensor(spec).is_zero()
    spec, _ = loaded["n23_quadratic"]
    r = curvature_tensor(spec)
    assert not r.is_zero()
    ric = ricci(spec)
    assert all(x == 0 for row in ric.entries for x in row)


def test_einstein_constant_inherited_by_simple_factors(loaded, decomposed):
    spec, _ = loaded["so3_x_so3"]
    whole = classify(spec)
    assert whole.einstein == Fraction(1, 4)
    for f in decomposed["so3_x_so3"].factors:
        sub = classify(restrict(spec, f))
        assert sub.einstein == Fraction(1, 4)
        assert not sub.flat


def test_ricci_flat_classifies_with_zero_constant(loaded):
    spec, _ = loaded["t_star_h3"]
    rep = classify(spec)
    assert rep.flat and rep.ricci_flat
    assert rep.einstein == Fraction(0)


def test_direct_ricci_equals_the_tensor_trace_on_generic_bases(
        shipped_and_generic):
    for label, spec, _ in shipped_and_generic:
        assert ricci(spec) == ricci_oracle(spec), label


@given(random_connection_spec())
@settings(max_examples=40, deadline=None)
def test_direct_ricci_equals_the_tensor_trace_on_random_connections(spec):
    assert ricci(spec) == ricci_oracle(spec)


def test_classify_builds_the_tensor_only_for_ricci_flat_structures(
        loaded, so3_over_fields, monkeypatch):
    """A nonzero Ricci form already means "not flat"; the tensor is built
    once on a Ricci-flat structure (curved n23_quadratic, flat t_star_h3)
    and never on so3_x_so3 or the n = 12 ladder rung."""
    built = []
    real = curvature.curvature_tensor

    def counted(spec):
        built.append(spec)
        return real(spec)

    monkeypatch.setattr(curvature, "curvature_tensor", counted)
    cases = [("so3_x_so3", loaded["so3_x_so3"][0], 0, False),
             ("ladder n = 12", so3_over_fields(2, 3), 0, False),
             ("n23_quadratic", loaded["n23_quadratic"][0], 1, False),
             ("t_star_h3", loaded["t_star_h3"][0], 1, True)]
    for label, spec, tensors, flat in cases:
        built.clear()
        rep = classify(spec)
        assert len(built) == tensors, label
        assert rep.flat is flat, label


def _milnor_frame(lam):
    """[e₂,e₃] = λ₁e₁, [e₃,e₁] = λ₂e₂, [e₁,e₂] = λ₃e₃ with e₁, e₂, e₃
    orthonormal."""
    l1, l2, l3 = lam
    return AlgebraSpec.build(
        ("e1", "e2", "e3"),
        brackets={("e2", "e3"): {"e1": l1}, ("e3", "e1"): {"e2": l2},
                  ("e1", "e2"): {"e3": l3}},
        metric={(e, e): 1 for e in ("e1", "e2", "e3")})


@given(st.tuples(*[st.fractions(min_value=-5, max_value=5,
                                max_denominator=4)] * 3),
       st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                min_size=3, max_size=3))
@example((Fraction(1),) * 3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])    # so(3)
@example((Fraction(1), Fraction(1), Fraction(0)),                  # e(2)
         [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
@settings(max_examples=60, deadline=None)
def test_milnor_frames_match_the_closed_form_ricci(lam, rows):
    """A closed form from the literature, not a second coding of the
    engine's contractions (J. Milnor, "Curvatures of left invariant metrics
    on Lie groups", Adv. Math. 21, 1976, the 3-dimensional unimodular
    case): on a Milnor frame ric = D = diag(2μ₂μ₃, 2μ₁μ₃, 2μ₁μ₂) with
    μᵢ = ½(λ₁ + λ₂ + λ₃) − λᵢ.  On the basis of the rows of an invertible
    P it is P·D·Pᵀ, and in both bases the structure is Einstein exactly
    when the three entries agree, with that constant."""
    p = Mat.from_rows(rows, 3)
    assume(p.rank() == 3)
    half = sum(lam) / 2
    m1, m2, m3 = (half - x for x in lam)
    diag = (2 * m2 * m3, 2 * m1 * m3, 2 * m1 * m2)
    d = Mat.from_rows([[diag[i] if i == j else 0 for j in range(3)]
                       for i in range(3)], 3)
    einstein = diag[0] if diag[0] == diag[1] == diag[2] else None
    spec = _milnor_frame(lam)
    for s, want in ((spec, d),
                    (transform_spec(spec, p), p @ d @ p.transpose())):
        assert ricci(s) == want
        assert classify(s).einstein == einstein
