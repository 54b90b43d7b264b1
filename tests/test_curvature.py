"""Curvature, Ricci, and Killing data checked against independently coded
oracles (different contraction routes than the library uses)."""

from fractions import Fraction

from metriclie import (
    ad_matrix,
    classify,
    curvature_tensor,
    is_biinvariant,
    killing_form,
    left_ops,
    nilpotency_class,
    restrict,
    ricci,
)
from metriclie.linalg import Mat, unit_vec


def ricci_oracle(spec):
    """ric(X, Y) as the metric contraction sum_k <R(b_k, X) Y, b^k> with
    b^k the metric-dual basis — same trace, different code path."""
    n = spec.dim
    r = curvature_tensor(spec)
    ginv = spec.gram.inverse()
    dual = [ginv.row(k) for k in range(n)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            total = Fraction(0)
            for k in range(n):
                v = r.apply(unit_vec(n, k), unit_vec(n, i), unit_vec(n, j))
                total += spec.metric.pair(v, dual[k])
            row.append(total)
        out.append(row)
    return Mat.from_rows(out, n)


def killing_oracle(spec):
    """K_ij = sum_{a,b} c_{ia}^b c_{jb}^a straight from the bracket table."""
    n = spec.dim
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            total = Fraction(0)
            for a in range(n):
                for b in range(n):
                    total += spec.brackets[i][a][b] * spec.brackets[j][b][a]
            row.append(total)
        out.append(row)
    return Mat.from_rows(out, n)


def test_ricci_matches_the_dual_basis_contraction(loaded):
    for name, (spec, _) in loaded.items():
        assert ricci(spec) == ricci_oracle(spec), name


def test_killing_form_matches_structure_constant_sum(loaded):
    for name, (spec, _) in loaded.items():
        assert killing_form(spec) == killing_oracle(spec), name


def test_curvature_tensor_matches_the_operator_form(shipped_and_generic):
    # R(e_i, e_j) = [L_i, L_j] - sum_m c_ij^m L_m as Mat products, with
    # L_i the matrix of y -> nabla_{e_i} y
    for label, spec, conn in shipped_and_generic:
        n = spec.dim
        ls = left_ops(conn)
        r = curvature_tensor(spec)
        for i in range(n):
            for j in range(n):
                op = ls[i] @ ls[j] - ls[j] @ ls[i]
                for m in range(n):
                    op = op - ls[m].scale(spec.brackets[i][j][m])
                for k in range(n):
                    assert r.coeffs[i][j][k] == op.col(k), (label, i, j, k)


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


def test_biinvariant_connection_is_half_bracket(loaded):
    for name in ("so3_killing_neg", "sl2_killing", "t_star_h3",
                 "n23_quadratic"):
        spec, conn = loaded[name]
        n = spec.dim
        for i in range(n):
            for j in range(n):
                half = tuple(x / 2 for x in spec.brackets[i][j])
                assert conn.gamma[i][j] == half, name


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
        r = curvature_tensor(spec)
        n = spec.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a = r.coeffs[i][j][k]
                    b = r.coeffs[j][i][k]
                    assert all(x == -y for x, y in zip(a, b)), name
        if name.startswith("nonorthogonal8"):
            continue
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    for m in range(k, n):
                        lhs = spec.metric.pair(r.coeffs[i][j][k],
                                               unit_vec(n, m))
                        rhs = spec.metric.pair(r.coeffs[i][j][m],
                                               unit_vec(n, k))
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
