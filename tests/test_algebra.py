from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from metriclie import (
    MODE_BRACKET,
    AlgebraSpec,
    check_torsion_and_compatibility,
    connection_of,
    decompose,
    derive_connection,
    is_strong_ideal,
    left_ops,
    nabla_apply,
    restrict,
    right_ops,
    transform_spec,
    validate,
)
from metriclie.errors import PreconditionError
from metriclie.linalg import Mat, SymForm, Subspace, unit_vec, vec_add, vec_is_zero


@st.composite
def random_spec(draw):
    """Antisymmetric bracket table (Jacobi not required — the connection
    laws hold regardless) with a sheared +/-1 metric."""
    n = draw(st.integers(2, 4))
    names = tuple(f"e{i+1}" for i in range(n))
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        k = draw(st.integers(0, n - 1))
        c = Fraction(draw(st.integers(-2, 2)))
        if i == j:
            continue
        table[i][j][k] += c
        table[j][i][k] -= c
    p = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j:
            c = draw(st.integers(-2, 2))
            for t in range(n):
                p[i][t] += c * p[j][t]
    pm = Mat.from_rows(p, n)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    d = Mat.from_rows([[Fraction(signs[i] if i == j else 0)
                        for j in range(n)] for i in range(n)], n)
    gram = SymForm(pm @ d @ pm.transpose())
    brackets = tuple(tuple(tuple(v) for v in row) for row in table)
    return AlgebraSpec(n, names, brackets, gram)


@given(random_spec())
@settings(max_examples=40, deadline=None)
def test_derived_connection_satisfies_both_laws(spec):
    conn = derive_connection(spec)
    ok, defects = check_torsion_and_compatibility(conn.gamma, spec)
    assert ok, defects


@given(random_spec())
@settings(max_examples=25, deadline=None)
def test_connection_is_the_unique_solution(spec):
    # perturbing any single coefficient breaks one of the two laws
    conn = derive_connection(spec)
    n = spec.dim
    gamma = [list(row) for row in conn.gamma]
    bumped = list(gamma[0][0])
    bumped[0] += 1
    gamma[0][0] = tuple(bumped)
    ok, _ = check_torsion_and_compatibility(
        tuple(tuple(r) for r in gamma), spec)
    assert not ok


@given(random_spec())
@settings(max_examples=20, deadline=None)
def test_metric_scaling_leaves_connection_alone(spec):
    # the defining equations are homogeneous in the metric
    conn = derive_connection(spec)
    tripled = Mat.from_rows([[3 * x for x in row]
                             for row in spec.gram.entries], spec.dim)
    conn2 = derive_connection(AlgebraSpec(spec.dim, spec.basis_names,
                                          spec.brackets, SymForm(tripled)))
    assert conn.gamma == conn2.gamma


def test_transform_spec_moves_the_metric_by_congruence(loaded):
    spec, conn = loaded["heisenberg3_euclid"]
    p = Mat.from_rows([[Fraction(1), Fraction(1), Fraction(0)],
                       [Fraction(0), Fraction(1), Fraction(0)],
                       [Fraction(0), Fraction(2), Fraction(1)]], 3)
    t = transform_spec(spec, p)
    assert t.gram == p @ spec.gram @ p.transpose()
    # the transformed connection is the old one read through p
    tconn = connection_of(t)
    n = spec.dim
    pinv = p.inverse()
    for i in range(n):
        for j in range(n):
            old = nabla_apply(conn, p.row(i), p.row(j))
            back = tuple(sum((old[a] * pinv.entries[a][b] for a in range(n)),
                             Fraction(0)) for b in range(n))
            assert tconn.gamma[i][j] == back


def test_restricting_a_factor_rederives_its_connection(shipped_and_generic,
                                                       decomposed):
    """The Γ sub-table a restricted structure carries is the connection the
    Koszul formula derives from its own bracket and metric, for every
    factor of every bracket-mode entry, shipped and in a generic basis."""
    factors = 0
    for label, spec, _ in shipped_and_generic:
        if spec.mode != MODE_BRACKET:
            continue
        for factor in (decomposed.get(label) or decompose(spec)).factors:
            sub_spec = restrict(spec, factor)
            assert sub_spec.dim == factor.dim, label
            assert connection_of(sub_spec) == derive_connection(sub_spec), label
            factors += 1
    assert factors > len(shipped_and_generic)


def test_restrict_rejects_non_ideals(loaded):
    spec, _ = loaded["heisenberg3_euclid"]
    h = Subspace.from_vectors(3, [unit_vec(3, 2)])
    with pytest.raises(PreconditionError):
        restrict(spec, h)


def test_validate_flags_jacobi_failures(loaded):
    spec, _ = loaded["nonorthogonal8"]
    rep = validate(spec)
    assert not rep.jacobi_ok
    triples = {t for t, _ in rep.jacobi_failures}
    assert ("X1", "X3", "X4") in triples
    # the defect on that triple is -X2
    defect = dict(((t, d) for t, d in rep.jacobi_failures))[("X1", "X3", "X4")]
    expected = [Fraction(0)] * 8
    expected[1] = Fraction(-1)
    assert list(defect) == expected


def test_bracket_mode_entries_validate_clean(loaded):
    for name, (spec, _) in loaded.items():
        if name.startswith("nonorthogonal8"):
            continue
        rep = validate(spec)
        assert rep.jacobi_ok, name
        assert rep.metric_nondegenerate_ok, name


def test_conflicting_connection_table_is_rejected():
    # antisymmetrized override must reproduce the stored brackets
    with pytest.raises(ValueError):
        AlgebraSpec(
            2, ("a", "b"),
            (((Fraction(0),) * 2,) * 2,) * 2,   # zero brackets
            SymForm(Mat.from_rows([[Fraction(1), Fraction(0)],
                                   [Fraction(0), Fraction(1)]], 2)),
            mode="connection",
            connection_override=(
                ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))),
                ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))),
        )


def _bracket_spec(table):
    n = len(table)
    return AlgebraSpec(n, tuple(f"e{i + 1}" for i in range(n)), table,
                       SymForm(Mat.identity(n)))


def test_bracket_table_broken_below_the_diagonal_is_rejected():
    f = Fraction
    z = (f(0), f(0))
    _bracket_spec(((z, (f(0), f(1))), ((f(0), f(-1)), z)))
    with pytest.raises(ValueError, match="bracket table is not antisymmetric"):
        _bracket_spec(((z, (f(0), f(1))), ((f(0), f(1)), z)))


def test_nonzero_bracket_of_a_vector_with_itself_is_rejected():
    f = Fraction
    z = (f(0), f(0))
    with pytest.raises(ValueError, match="bracket table is not antisymmetric"):
        _bracket_spec((((f(0), f(1)), z), (z, z)))


def test_broken_connection_table_reports_every_defect():
    # ∇_a a = b and ∇_b b = 2a break metric compatibility twice
    spec = AlgebraSpec.build(
        ("a", "b"), metric={("a", "a"): 1, ("b", "b"): 1},
        connection={("a", "a"): {"b": 1}, ("b", "b"): {"a": 2}})
    ok, defects = check_torsion_and_compatibility(spec.connection_override,
                                                  spec)
    assert not ok
    assert defects == (("compatibility", (0, 0, 1), Fraction(1)),
                       ("compatibility", (1, 0, 1), Fraction(2)))
    with pytest.raises(PreconditionError) as exc:
        connection_of(spec)
    assert str(exc.value) == ("connection table fails the defining "
                              "identities: compatibility at (0, 0, 1); "
                              "compatibility at (1, 0, 1)")
    # nothing is kept from a failure: the next call checks and refuses again
    with pytest.raises(PreconditionError, match="fails the defining"):
        connection_of(spec)
    # a table whose antisymmetrization is not the bracket also has torsion
    f = Fraction
    bumped = (((f(0), f(1)), (f(0), f(3))),
              ((f(0), f(0)), (f(2), f(0))))
    ok, defects = check_torsion_and_compatibility(bumped, spec)
    assert not ok
    assert defects == (("torsion", (0, 1), (f(0), f(3))),
                       ("compatibility", (0, 0, 1), f(1)),
                       ("compatibility", (0, 1, 1), f(6)),
                       ("compatibility", (1, 0, 1), f(2)))


def jacobi_oracle(spec):
    """[[e_i,e_j],e_k] + cyclic through bracket_apply on unit vectors."""
    n = spec.dim
    e = [unit_vec(n, i) for i in range(n)]

    def br(x, y):
        return spec.bracket_apply(x, y)

    failures = []
    for i, j, k in combinations(range(n), 3):
        d = vec_add(vec_add(br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i])),
                    br(br(e[k], e[i]), e[j]))
        if not vec_is_zero(d):
            names = spec.basis_names
            failures.append(((names[i], names[j], names[k]), d))
    return tuple(failures)


def test_jacobi_failures_match_the_unit_vector_oracle(shipped_and_generic):
    for label, spec, _ in shipped_and_generic:
        assert validate(spec).jacobi_failures == jacobi_oracle(spec), label


@given(random_spec())
@settings(max_examples=25, deadline=None)
def test_jacobi_failures_match_the_oracle_on_random_tables(spec):
    assert validate(spec).jacobi_failures == jacobi_oracle(spec)


def test_restrict_rejects_exactly_the_coordinate_non_ideals(loaded):
    # is_strong_ideal is itself checked against the operator matrices;
    # e2_flat has a coordinate line closed under left multiplication only
    seen = set()
    for name, (spec, conn) in loaded.items():
        n = spec.dim
        if n > 3:
            continue
        ops = left_ops(conn) + right_ops(conn)
        for r in range(1, n + 1):
            for idx in combinations(range(n), r):
                h = Subspace.from_vectors(n, [unit_vec(n, i) for i in idx])
                ideal = all(h.contains(op.apply(v)) for op in ops for v in h.rows)
                assert is_strong_ideal(h, conn) == ideal, (name, idx)
                try:
                    restrict(spec, h)
                    rejected = False
                except PreconditionError as exc:
                    # a strong ideal may still be refused for a degenerate
                    # metric; only the ideal check counts here
                    rejected = "not a strong ideal" in str(exc)
                assert rejected == (not ideal), (name, idx)
                seen.add(rejected)
    assert seen == {True, False}
