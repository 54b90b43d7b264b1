import importlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from metriclie import (
    MODE_BRACKET,
    AlgebraSpec,
    ConnectionCoeffs,
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
from metriclie.algebra import operator_basis
from metriclie.errors import PreconditionError
from metriclie.linalg import (
    Mat,
    SymForm,
    Subspace,
    unit_vec,
    vec_add,
)


# an integer in [-2, 2] over a denominator 1, 2 or 3
SMALL_RATIONAL = st.builds(Fraction, st.integers(-2, 2),
                           st.sampled_from((1, 2, 3)))


@st.composite
def random_spec(draw):
    """Antisymmetric bracket table (Jacobi not required — the connection
    laws hold regardless) with a sheared +/-1 metric.  Coefficients and
    shears are rationals with denominators up to 3, so the tables' common
    denominators exceed 1."""
    n = draw(st.integers(2, 4))
    names = tuple(f"e{i+1}" for i in range(n))
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        k = draw(st.integers(0, n - 1))
        c = draw(SMALL_RATIONAL)
        if i == j:
            continue
        table[i][j][k] += c
        table[j][i][k] -= c
    p = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j:
            c = draw(SMALL_RATIONAL)
            for t in range(n):
                p[i][t] += c * p[j][t]
    pm = Mat.from_rows(p, n)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    d = Mat.from_rows([[Fraction(signs[i] if i == j else 0)
                        for j in range(n)] for i in range(n)], n)
    gram = SymForm(pm @ d @ pm.transpose())
    # the table's Mat: row i·n + j = c_ij
    brackets = Mat.from_rows([v for row in table for v in row], n)
    return AlgebraSpec(n, names, brackets, gram)


@given(random_spec())
@settings(max_examples=40, deadline=None)
def test_derived_connection_satisfies_both_laws(spec):
    conn = derive_connection(spec)
    ok, defects = check_torsion_and_compatibility(conn, spec)
    assert ok, defects


@given(random_spec())
@settings(max_examples=25, deadline=None)
def test_connection_is_the_unique_solution(spec):
    # perturbing any single coefficient breaks one of the two laws
    conn = derive_connection(spec)
    n = spec.dim
    gamma = list(conn.table.entries)   # row i·n + j = Γ_ij
    bumped = list(gamma[0])
    bumped[0] += 1
    gamma[0] = tuple(bumped)
    ok, _ = check_torsion_and_compatibility(
        ConnectionCoeffs(Mat.from_rows(gamma, n)), spec)
    assert not ok


@given(random_spec())
@settings(max_examples=20, deadline=None)
def test_metric_scaling_leaves_connection_alone(spec):
    # the defining equations are homogeneous in the metric
    conn = derive_connection(spec)
    tripled = Mat.from_rows([[3 * x for x in row]
                             for row in spec.gram.entries], spec.dim)
    conn2 = derive_connection(AlgebraSpec(spec.dim, spec.basis_names,
                                          spec.bracket_table, SymForm(tripled)))
    assert conn.table == conn2.table


def _fraction_sum(coeffs, vectors, n):
    """Σ_a coeffs[a]·vectors[a] in Q^n, one Fraction operation at a time,
    zero terms skipped."""
    terms = [(Fraction(c), v) for c, v in zip(coeffs, vectors) if c]
    return tuple(sum((c * v[k] for c, v in terms if v[k]), Fraction(0))
                 for k in range(n))


def koszul_oracle(spec):
    """Γ from the Koszul formula in Fractions: c_ijk = (G·c_ij)_k, then
    Γ_ij = Σ_k (c_ijk − c_jki + c_kij)·(row k of ½G⁻¹) as one plain sum
    over ½G⁻¹ stacked three times.  Returns the rows Γ_ij, row i·n + j."""
    n = spec.dim
    gram = spec.gram.entries
    half = spec.gram.inverse().scale(Fraction(1, 2)).entries * 3
    rows = spec.bracket_table.entries
    c = [[_fraction_sum(rows[i * n + j], gram, n) for j in range(n)]
         for i in range(n)]
    gamma = []
    for i in range(n):
        jki = [tuple(-c[j][k][i] for k in range(n)) for j in range(n)]
        kij = [tuple(c[k][i][j] for k in range(n)) for j in range(n)]
        gamma.extend(_fraction_sum(c[i][j] + jki[j] + kij[j], half, n)
                     for j in range(n))
    return tuple(gamma)


def identities_oracle(gamma, spec):
    """Torsion, then compatibility, defects of a raw table in Fractions
    (gamma's row i·n + j is Γ_ij): Γ_ij − Γ_ji − c_ij and ⟨Γ_ij, e_k⟩ +
    ⟨Γ_ik, e_j⟩ as plain sums."""
    n = spec.dim
    c = spec.bracket_table.entries
    defects = []
    for i in range(n):
        for j in range(i + 1, n):
            d = _fraction_sum((1, -1, -1),
                              (gamma[i * n + j], gamma[j * n + i], c[i * n + j]),
                              n)
            if any(d):
                defects.append(("torsion", (i, j), d))
    gram = spec.gram.entries
    lowered = [_fraction_sum(v, gram, n) for v in gamma]
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                d = lowered[i * n + j][k] + lowered[i * n + k][j]
                if d != 0:
                    defects.append(("compatibility", (i, j, k), d))
    return tuple(defects)


def _bumped(gamma, bumps):
    """gamma (row i·n + j = Γ_ij) with each (i, j, k, delta) of bumps
    added to Γ_ij^k."""
    n = len(gamma[0])
    out = [list(v) for v in gamma]
    for i, j, k, delta in bumps:
        out[i * n + j][k] += delta
    return tuple(tuple(v) for v in out)


def _assert_matches_the_oracles(spec, gamma, bumps, label=None):
    """The derived Γ (bracket mode) and the defects of gamma, clean and
    bumped, equal the oracles' exactly, values and order."""
    if spec.mode == MODE_BRACKET:
        assert derive_connection(spec).table.entries == koszul_oracle(spec), \
            label
    for table in (gamma, _bumped(gamma, bumps)):
        want = identities_oracle(table, spec)
        conn = ConnectionCoeffs(Mat.from_rows(table, spec.dim))
        assert check_torsion_and_compatibility(conn, spec) \
            == (not want, want), label


def test_structure_checks_match_the_fraction_oracles(shipped_and_generic):
    f = Fraction
    for label, spec, conn in shipped_and_generic:
        n = spec.dim
        bumps = ((0, 0, 0, f(1, 2)), (n - 1, 0, 1 % n, f(-3)),
                 (0, n - 1, n - 1, f(2, 3)))
        _assert_matches_the_oracles(spec, conn.table.entries, bumps, label)


@given(random_spec(), st.data())
@settings(max_examples=30, deadline=None)
def test_structure_checks_match_the_fraction_oracles_on_random_tables(
        spec, data):
    n = spec.dim
    index = st.integers(0, n - 1)
    bumps = data.draw(st.lists(st.tuples(index, index, index, SMALL_RATIONAL),
                               min_size=1, max_size=3))
    _assert_matches_the_oracles(spec, koszul_oracle(spec), bumps)


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
            assert tconn.table.row(i * n + j) == back


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


def test_a_rebased_or_restricted_structure_images_no_table_again(
        loaded, decomposed, monkeypatch):
    """`transform_spec` and `restrict` hand on the integer tables their
    products made: validating the new structure and taking its connection
    converts no table (k² rows of k Fractions) to an integer image, in
    bracket mode and in connection mode."""
    linalg = importlib.import_module("metriclie.linalg")
    real = linalg._common_ints
    shapes = []

    def recording(rows):
        shapes.append((len(rows), len(rows[0])))
        return real(rows)
    for name in ("so3_x_so3", "nonorthogonal8"):
        spec, _ = loaded[name]
        n = spec.dim
        validate(spec)   # the source's own tables are imaged before the wrap
        p = Mat.from_rows([[1 if j == i else (i + 2 * j) % 3 - 1 if j > i
                            else 0 for j in range(n)] for i in range(n)], n)
        p.image()
        factor = decomposed[name].factors[0]
        assert factor.dim >= 2, name
        monkeypatch.setattr(linalg, "_common_ints", recording)
        for new in (transform_spec(spec, p), restrict(spec, factor)):
            validate(new)
            connection_of(new)
        monkeypatch.undo()
    assert not [s for s in shapes if s[1] >= 2 and s[0] == s[1] ** 2]


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


def test_degenerate_metric_determines_no_connection():
    spec = AlgebraSpec.build(("a", "b"), brackets={("a", "b"): {"a": 1}},
                             metric={("a", "a"): 1})
    with pytest.raises(PreconditionError) as exc:
        derive_connection(spec)
    assert str(exc.value) == "metric is degenerate; connection is not determined"


def test_conflicting_connection_table_is_rejected():
    # the antisymmetrized connection table must reproduce the stored
    # brackets
    f = Fraction
    with pytest.raises(ValueError):
        AlgebraSpec(
            2, ("a", "b"),
            Mat.from_rows(((f(0), f(0)),) * 4, 2),   # zero brackets
            SymForm(Mat.from_rows([[Fraction(1), Fraction(0)],
                                   [Fraction(0), Fraction(1)]], 2)),
            mode="connection",
            connection_table=Mat.from_rows(   # ∇_a b = b
                ((f(0), f(0)), (f(0), f(1)), (f(0), f(0)), (f(0), f(0))), 2),
        )


def _bracket_spec(table: Mat):
    n = table.ncols
    return AlgebraSpec(n, tuple(f"e{i + 1}" for i in range(n)), table,
                       SymForm(Mat.identity(n)))


def test_bracket_table_broken_below_the_diagonal_is_rejected():
    # rows c_11, c_12, c_21, c_22, held as Fractions and as an image
    f = Fraction
    z = (f(0), f(0))
    _bracket_spec(Mat.from_rows((z, (f(0), f(1)), (f(0), f(-1)), z), 2))
    _bracket_spec(Mat.from_image(1, [[0, 0], [0, 1], [0, -1], [0, 0]], (4, 2)))
    with pytest.raises(ValueError, match="bracket table is not antisymmetric"):
        _bracket_spec(Mat.from_rows((z, (f(0), f(1)), (f(0), f(1)), z), 2))
    with pytest.raises(ValueError, match="bracket table is not antisymmetric"):
        _bracket_spec(Mat.from_image(2, [[0, 0], [0, 1], [0, 1], [0, 0]],
                                     (4, 2)))


def test_nonzero_bracket_of_a_vector_with_itself_is_rejected():
    f = Fraction
    z = (f(0), f(0))
    with pytest.raises(ValueError, match="bracket table is not antisymmetric"):
        _bracket_spec(Mat.from_rows(((f(0), f(1)), z, z, z), 2))


def test_a_float_in_a_table_is_refused_at_construction():
    """A float anywhere in a bracket or connection table raises TypeError
    on every construction path: the table's Mat refuses it, held among
    Fractions, before the constructor, `from_connection` or `build` can
    take it."""
    f = Fraction
    names = ("a", "b")
    form = SymForm(Mat.identity(2))
    zero = (f(0), f(0))

    def floated():   # Γ_aa = ½a
        return Mat(((0.5, f(0)), zero, zero, zero), (4, 2))

    def brackets():
        return Mat(((0.0, f(0)), zero, zero, zero), (4, 2))
    with pytest.raises(TypeError, match="floating-point"):
        AlgebraSpec(2, names, brackets(), form)
    with pytest.raises(TypeError, match="floating-point"):
        AlgebraSpec(2, names, Mat.zeros(4, 2), form, mode="connection",
                    connection_table=floated())
    with pytest.raises(TypeError, match="floating-point"):
        AlgebraSpec(2, names, brackets(), form, mode="connection",
                    connection_table=Mat.zeros(4, 2))
    with pytest.raises(TypeError, match="floating-point"):
        AlgebraSpec.from_connection(names, floated(), form)
    with pytest.raises(TypeError, match="floating-point"):
        Mat.from_rows(((f(0), 0.5),))
    with pytest.raises(TypeError, match="floating-point"):
        AlgebraSpec.build(names, brackets={("a", "b"): {"a": 0.5}},
                          metric={("a", "a"): 1, ("b", "b"): 1})
    with pytest.raises(TypeError, match="floating-point"):
        AlgebraSpec.build(names, connection={("a", "a"): {"a": 0.5}},
                          metric={("a", "a"): 1, ("b", "b"): 1})


def test_broken_connection_table_reports_every_defect():
    # ∇_a a = b and ∇_b b = 2a break metric compatibility twice
    spec = AlgebraSpec.build(
        ("a", "b"), metric={("a", "a"): 1, ("b", "b"): 1},
        connection={("a", "a"): {"b": 1}, ("b", "b"): {"a": 2}})
    ok, defects = check_torsion_and_compatibility(
        ConnectionCoeffs(spec.connection_table), spec)
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
    bumped = Mat.from_rows(((f(0), f(1)), (f(0), f(3)),
                            (f(0), f(0)), (f(2), f(0))), 2)
    ok, defects = check_torsion_and_compatibility(ConnectionCoeffs(bumped),
                                                  spec)
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
        if any(d):
            names = spec.basis_names
            failures.append(((names[i], names[j], names[k]), d))
    return tuple(failures)


def test_jacobi_failures_match_the_unit_vector_oracle(shipped_and_generic,
                                                      loaded, rebased):
    """Also on nonorthogonal8 in a generic basis: a failing table whose
    common denominator exceeds 1."""
    failing = rebased(loaded["nonorthogonal8"][0])
    cases = shipped_and_generic + [("nonorthogonal8 (generic basis)",
                                    failing, None)]
    for label, spec, _ in cases:
        assert validate(spec).jacobi_failures == jacobi_oracle(spec), label
    assert validate(failing).jacobi_failures


@given(random_spec())
# [e1,e2] = ½e1, [e1,e3] = ⅓e2: the cyclic sum on (e1, e2, e3) is ⅙e2
@example(AlgebraSpec.build(("e1", "e2", "e3"),
                           brackets={("e1", "e2"): {"e1": Fraction(1, 2)},
                                     ("e1", "e3"): {"e2": Fraction(1, 3)}},
                           metric={(e, e): 1 for e in ("e1", "e2", "e3")}))
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


def _greedy_operator_basis(conn):
    """Scan L_0 … L_{n−1}, R_0 … R_{n−1} as Mats and keep each one that
    raises the rank of the flattened operators kept so far."""
    n = conn.dim
    kept = []
    for op in left_ops(conn) + right_ops(conn):
        flat = [sum(m.entries, ()) for m in kept + [op]]
        if Mat.from_rows(flat, n * n).rank() > len(kept):
            kept.append(op)
    return kept


def _check_operator_basis(conn, label=None):
    """The kept operators are independent, every L_i and R_j lies in their
    span, the left ones span span{L_i}, they are the scan's picks, and
    they are the Mats of `left_op` and `right_op`."""
    n = conn.dim
    left, right = operator_basis(conn)
    as_mats = list(left + right)
    assert as_mats == _greedy_operator_basis(conn), label
    assert all(type(m) is Mat for m in as_mats), label
    assert all(m in left_ops(conn) for m in left), label
    assert all(m in right_ops(conn) for m in right), label
    kept = [sum(m.entries, ()) for m in as_mats]
    span = Subspace.from_vectors(n * n, kept)
    assert span.dim == len(kept), label
    ls = [sum(m.entries, ()) for m in left_ops(conn)]
    rs = [sum(m.entries, ()) for m in right_ops(conn)]
    assert all(span.contains(v) for v in ls + rs), label
    assert (Subspace.from_vectors(n * n, kept[:len(left)])
            == Subspace.from_vectors(n * n, ls)), label
    assert operator_basis(conn) is operator_basis(conn)   # kept on conn


def test_the_operator_basis_spans_every_nabla_operator(shipped_and_generic):
    for label, _, conn in shipped_and_generic:
        _check_operator_basis(conn, label)


def test_the_operator_basis_sizes_on_the_catalog(loaded):
    # bi-invariant structures: ∇_X Y = ½[X,Y] gives R_j = −L_j
    want = {"so3_x_so3": (6, 0), "so3_killing_neg": (3, 0),
            "nonorthogonal8": (2, 4), "nonorthogonal8_alt": (2, 4),
            "t_star_h3": (3, 0), "n23_quadratic": (3, 0),
            "heisenberg3_euclid": (3, 2), "abelian_3": (0, 0)}
    for name, sizes in want.items():
        left, right = operator_basis(loaded[name][1])
        assert (len(left), len(right)) == sizes, name


@given(random_spec())
@settings(max_examples=40, deadline=None)
def test_the_operator_basis_spans_every_nabla_operator_on_random_tables(
        spec):
    _check_operator_basis(connection_of(spec))
