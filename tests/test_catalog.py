"""Every expectation recorded on a catalog entry is recomputed here."""


import pytest

from metriclie import (
    ConnectionCoeffs,
    PreconditionError,
    Unsupported,
    ann_report,
    build_strong_isometry,
    classify,
    commutant,
    compare_decompositions,
    decomposition_from_factors,
    derive_connection,
    filtration,
    flat_riemannian_structure,
    killing_form,
    ricci,
    validate,
)
from metriclie.catalog import catalog_get, catalog_list
from metriclie.decompose import NotApplicable
from metriclie.linalg import congruent_diagonalize, rat


def test_catalog_names_are_unique_and_loadable():
    names = catalog_list()
    assert len(names) == len(set(names))
    for name in names:
        entry = catalog_get(name)
        doc = entry.load()
        assert doc.name == name


def test_unknown_entry_mentions_the_options():
    from metriclie.errors import InputFormatError
    with pytest.raises(InputFormatError) as err:
        catalog_get("missing_entry")
    assert "abelian_2" in str(err.value)


def test_expected_records(loaded, decomposed):
    for name in catalog_list():
        entry = catalog_get(name)
        spec, conn = loaded[name]
        dec = decomposed[name]
        rep = ann_report(spec)
        cls = classify(spec)
        e = entry.expected

        assert e["dim"] == spec.dim, name
        assert e["case"] == rep.case == dec.case, name
        assert e["factor_count"] == len(dec.factors), name
        if "factor_dims" in e:
            assert e["factor_dims"] == sorted(f.dim for f in dec.factors), name
        if "g0_dim" in e:
            got = dec.g0.dim if dec.g0 is not None else 0
            assert e["g0_dim"] == got, name
        if "orthogonal" in e:
            assert e["orthogonal"] == dec.orthogonal, name
        if "has_note" in e:
            assert (dec.note is not None) == e["has_note"], name
        if "flat" in e:
            assert e["flat"] == cls.flat, name
        if "ricci_flat" in e:
            assert e["ricci_flat"] == cls.ricci_flat, name
        if "einstein" in e:
            assert rat(e["einstein"]) == cls.einstein, name
        if "biinvariant" in e:
            assert e["biinvariant"] == cls.biinvariant, name
        if "nilpotency_class" in e:
            assert e["nilpotency_class"] == cls.nilpotency_class, name
        if "signature" in e:
            sig = congruent_diagonalize(spec.metric).signature
            assert tuple(e["signature"]) == sig, name
        if "killing_diagonal" in e:
            k = killing_form(spec)
            for i in range(spec.dim):
                for j in range(spec.dim):
                    want = rat(e["killing_diagonal"][i]) if i == j else 0
                    assert k.entries[i][j] == want, name
        if "killing_matrix" in e:
            k = killing_form(spec)
            for i in range(spec.dim):
                for j in range(spec.dim):
                    assert k.entries[i][j] == rat(e["killing_matrix"][i][j])
        if "ricci_diagonal" in e:
            r = ricci(spec)
            for i in range(spec.dim):
                for j in range(spec.dim):
                    want = rat(e["ricci_diagonal"][i]) if i == j else 0
                    assert r.entries[i][j] == want, name
        if "commutant_dim" in e:
            assert len(commutant(conn)) == e["commutant_dim"], name
        if "ann_r_dim" in e:
            assert rep.ann_r.dim == e["ann_r_dim"], name
        if "ann_dim" in e:
            assert rep.ann.dim == e["ann_dim"], name
        if "jacobi_fails" in e:
            assert validate(spec).jacobi_ok == (not e["jacobi_fails"]), name
        if "evidence" in e:
            kinds = [ev.kind for ev in
                     dec.certificate.indecomposability_evidence]
            assert kinds == e["evidence"], name
        if "filtration_dims" in e:
            ch = filtration(spec)
            assert [s.dim for s in ch.chain] == e["filtration_dims"], name
            assert [s.dim for s in ch.h_blocks] == e["h_block_dims"], name
        if "flat_split" in e:
            split = flat_riemannian_structure(spec)
            assert not isinstance(split, NotApplicable), name
            want = e["flat_split"]
            assert split.b.dim == want["b_dim"], name
            assert split.ann.dim == want["ann_dim"], name
            assert split.derived.dim == want["derived_dim"], name
        if e.get("flat_riemannian") == "not_applicable":
            assert isinstance(flat_riemannian_structure(spec), NotApplicable)
        if "koszul_matches_override" in e:
            derived = derive_connection(spec)
            assert (derived.gamma == spec.connection_override) \
                == e["koszul_matches_override"], name


def test_alt_factor_records(loaded, decomposed):
    for name in catalog_list():
        entry = catalog_get(name)
        e = entry.expected
        spec, _ = loaded[name]
        if "alt_isometry_supported" in e:
            alt = decomposition_from_factors(spec, list(entry.alt_subspaces()))
            res = build_strong_isometry(spec, decomposed[name], alt)
            assert isinstance(res, Unsupported) != e["alt_isometry_supported"]
        if "alt_unsupported_isometry" in e:
            alt = decomposition_from_factors(
                spec, list(entry.alt_subspaces("alt_factors_unsupported")))
            res = build_strong_isometry(spec, decomposed[name], alt)
            assert isinstance(res, Unsupported) != e["alt_unsupported_isometry"]
        if "alt_compare_ok" in e:
            alt = decomposition_from_factors(spec, list(entry.alt_subspaces()))
            rep = compare_decompositions(spec, decomposed[name], alt)
            ok = (rep.dims_ok and rep.nabla_spaces_ok
                  and rep.cross_vanishing_ok and all(rep.strong_hom_ok)
                  and all(rep.isometric))
            assert ok == e["alt_compare_ok"], name
        if e.get("isometry_rejected"):
            alt = decomposition_from_factors(spec, list(entry.alt_subspaces()))
            with pytest.raises(PreconditionError):
                build_strong_isometry(spec, decomposed[name], alt)


def test_connection_mode_entry_round_trips_through_koszul(loaded):
    # the shipped coefficient table and the derived one agree, so the
    # metric really is compatible with the stored connection
    spec, conn = loaded["nonorthogonal8"]
    assert spec.mode == "connection"
    assert isinstance(conn, ConnectionCoeffs)
    assert derive_connection(spec).gamma == spec.connection_override
