
import random

import pytest
from hypothesis import given, settings, strategies as st

from metriclie import (
    PreconditionError,
    ann_report,
    connection_of,
    is_isotropic,
    is_strong_ideal,
    left_ops,
    restrict,
    right_ops,
    strong_ideal_closure,
)
from metriclie.catalog import catalog_get
from metriclie.decompose import _interacts, nabla_span
from metriclie.ideals import ann, ann_r, nabla_gg
from metriclie.linalg import (
    Mat,
    Subspace,
    kernel,
    orthogonal_complement,
    row_space,
    select_rows,
    subspace_intersect,
)
from oracles import table_at, unit
from test_algebra import random_spec


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
        n, gamma = spec.dim, conn.table.entries
        for v in rep.ann.basis.entries:
            for i in range(n):
                e = unit(n, i)
                assert not any(table_at(gamma, v, e))
                assert not any(table_at(gamma, e, v))


def test_case_dispatch_matches_catalog(loaded):
    for name, (spec, _) in loaded.items():
        rep = ann_report(spec)
        assert rep.case == catalog_get(name).expected["case"], name


def test_nonorthogonal8_annihilators(loaded):
    spec, _ = loaded["nonorthogonal8"]
    rep = ann_report(spec)
    want_r = row_space(select_rows(Mat.identity(8), (0, 1, 4, 5)))
    want = row_space(select_rows(Mat.identity(8), (1, 5)))
    assert rep.ann_r == want_r
    assert rep.ann == want
    assert rep.isotropic
    assert is_isotropic(rep.ann_r, spec.metric)
    assert not rep.ann_r_equals_ann


def test_heisenberg_center_is_not_a_strong_ideal(loaded):
    spec, conn = loaded["heisenberg3_euclid"]
    center = Subspace.from_vectors(3, [unit(3, 2)])
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
        n, gamma = spec.dim, conn.table.entries
        pieces = list(dec.factors) + ([dec.g0] if dec.g0 is not None else [])
        for h in pieces:
            hp = orthogonal_complement(h, spec.metric)
            for w in hp.basis.entries:
                for i in range(n):
                    assert hp.contains(table_at(gamma, unit(n, i), w))
                for v in h.basis.entries:
                    assert not any(table_at(gamma, v, w)), name


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


def _strong_ideal_oracle(h, conn):
    """Every one of the 2n operators L_i, R_j maps every basis vector of h
    into h."""
    ops = left_ops(conn) + right_ops(conn)
    return all(h.contains_rows(h.basis @ op.transpose()) for op in ops)


def _annihilators_oracle(conn):
    """(Ann_R, Ann, ∇gg) from all 2n operators: Ann_R the joint kernel of
    the L_i, Ann its intersection with the joint kernel of the R_j, ∇gg
    the span of every Γ_ij."""
    n = conn.dim

    def joint_kernel(ops):
        rows = [r for op in ops for r in op.entries]
        return kernel(Mat.from_rows(rows, n)) if rows else Subspace.full(n)
    a_r = joint_kernel(left_ops(conn))
    a = subspace_intersect(a_r, joint_kernel(right_ops(conn)))
    ngg = Subspace.from_vectors(n, conn.table.entries)   # every Γ_ij
    return a_r, a, ngg


def _test_subspaces(conn, rng, count):
    """Spans of random small integer vectors (mostly not ideals), their
    strong-ideal closures (ideals), and the annihilators and ∇gg."""
    n = conn.dim
    out = [Subspace.from_vectors(n, []), Subspace.full(n), ann_r(conn), ann(conn),
           nabla_gg(conn)]
    for _ in range(count):
        k = rng.randint(1, n)
        h = Subspace.from_vectors(n, [[rng.randint(-1, 1) for _ in range(n)]
                                      for _ in range(k)])
        out += [h, strong_ideal_closure(h, conn)]
    return out


def test_is_strong_ideal_matches_the_all_operator_oracle(
        shipped_and_generic):
    rng = random.Random(5)
    seen = set()
    for label, _, conn in shipped_and_generic:
        for h in _test_subspaces(conn, rng, 6):
            want = _strong_ideal_oracle(h, conn)
            assert is_strong_ideal(h, conn) == want, label
            seen.add(want)
    assert seen == {True, False}


@given(random_spec(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_is_strong_ideal_matches_the_all_operator_oracle_on_random_tables(
        spec, rng):
    conn = connection_of(spec)
    for h in _test_subspaces(conn, rng, 3):
        assert is_strong_ideal(h, conn) == _strong_ideal_oracle(h, conn)


def test_annihilators_match_the_all_operator_oracle(shipped_and_generic):
    for label, spec, conn in shipped_and_generic:
        want = _annihilators_oracle(conn)
        rep = ann_report(spec)
        assert (rep.ann_r, rep.ann, rep.nabla_gg) == want, label
        assert (ann_r(conn), ann(conn), nabla_gg(conn)) == want, label


@given(random_spec())
@settings(max_examples=40, deadline=None)
def test_annihilators_match_the_all_operator_oracle_on_random_tables(spec):
    conn = connection_of(spec)
    rep = ann_report(spec)
    assert (rep.ann_r, rep.ann, rep.nabla_gg) == _annihilators_oracle(conn)


# Per-vector definitions of the whole-basis products: each vector goes
# through the Fraction sum ∇_x y = Σ x_i y_j Γ_ij (`oracles.table_at`, on
# Γ's entries `gamma`) on its own, and membership is read with
# `Subspace.contains`.

def _nabla_images(gamma, v):
    """∇_{e_i} v and ∇_v e_i for every i."""
    n = len(v)
    return [w for i in range(n) for w in (table_at(gamma, unit(n, i), v),
                                          table_at(gamma, v, unit(n, i)))]


def _per_vector_strong_ideal(h, gamma):
    return all(h.contains(w) for v in h.basis.entries
               for w in _nabla_images(gamma, v))


def _per_vector_closure(s, gamma):
    current = s
    while True:
        rows = current.basis.entries
        nxt = Subspace.from_vectors(s.ambient_dim, list(rows) + [
            w for v in rows for w in _nabla_images(gamma, v)])
        if nxt == current:
            return current
        current = nxt


def _per_vector_nabla_span(gamma, a, b):
    return Subspace.from_vectors(a.ambient_dim, [
        table_at(gamma, x, y) for x in a.basis.entries for y in b.basis.entries])


def _check_against_per_vector_definitions(spec, conn, subspaces):
    """is_strong_ideal, strong_ideal_closure, nabla_span, `_interacts` and
    the Γ table of `restrict` on each subspace (ideals or not); the
    strong-ideal verdicts seen."""
    seen, gamma = set(), conn.table.entries
    for h in subspaces:
        ideal = _per_vector_strong_ideal(h, gamma)
        seen.add(ideal)
        assert is_strong_ideal(h, conn) == ideal
        assert strong_ideal_closure(h, conn) == _per_vector_closure(h, gamma)
        for b in (h, subspaces[-1]):
            assert nabla_span(conn, h, b) == _per_vector_nabla_span(gamma, h, b)
            assert _interacts(conn, h, b) == any(
                any(table_at(gamma, x, y)) or any(table_at(gamma, y, x))
                for x in h.basis.entries for y in b.basis.entries)
        if not (ideal and h.dim and spec.metric.restrict(h).is_nondegenerate()):
            with pytest.raises(PreconditionError):
                restrict(spec, h)
            continue
        # row p·k + q: the coordinates c of ∇_{h_p} h_q in h, Σ_r c_r·h_r;
        # the canonical rows h_r are 1 at their own pivot, 0 at the others'
        rows = h.basis.entries
        values = [table_at(gamma, x, y) for x in rows for y in rows]
        want = tuple(tuple(v[p] for p in h.pivots) for v in values)
        assert Mat.from_rows(want, h.dim) @ h.basis == Mat.from_rows(
            values, conn.dim)
        sub = restrict(spec, h)
        assert connection_of(sub).table.entries == want
        assert connection_of(sub).table == Mat.from_rows(want, h.dim)
        if sub.connection_table is not None:
            assert sub.connection_table.entries == want
    return seen


def test_whole_basis_products_match_the_per_vector_definitions(
        shipped_and_generic):
    rng = random.Random(7)
    seen = set()
    for label, spec, conn in shipped_and_generic:
        try:
            seen |= _check_against_per_vector_definitions(
                spec, conn, _test_subspaces(conn, rng, 2))
        except AssertionError as exc:
            raise AssertionError(label) from exc
    assert seen == {True, False}


@given(random_spec(), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_whole_basis_products_match_the_per_vector_definitions_on_random_tables(
        spec, rng):
    conn = connection_of(spec)
    _check_against_per_vector_definitions(spec, conn, _test_subspaces(conn, rng, 2))
