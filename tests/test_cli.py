import importlib.resources
import json

import pytest

from metriclie.cli import main
from metriclie.errors import CertificateError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_output(capsys):
    code, out, err = run(capsys, "classify", "--catalog", "so3_killing_neg")
    assert code == 0
    assert "einstein: 1/4" in out
    assert "biinvariant: true" in out
    assert err == ""


def test_machine_output_is_byte_identical(capsys):
    args = ("decompose", "--catalog", "so3_x_so3", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["factor_count"] == 2
    assert payload["orthogonal"] is True
    assert len(payload["certificate"]["splitting_idempotents"]) == 2


def test_seeded_compare_is_byte_identical(capsys):
    args = ("compare", "--catalog", "h3_plane", "--format", "json",
            "--seed", "0xBEEF")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["partner"] == "basis_change"


def test_consecutive_calls_share_no_option_state(capsys):
    for name in ("abelian_2", "abelian_3"):
        code, out, _ = run(capsys, "ann", "--catalog", name, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert "results" not in payload
        assert payload["source"] == name
    _, out, _ = run(capsys, "decompose", "--catalog", "abelian_2", "--recheck",
                    "--format", "json")
    assert json.loads(out)["recheck"] == "passed"
    _, out, _ = run(capsys, "decompose", "--catalog", "abelian_2",
                    "--format", "json")
    assert "recheck" not in json.loads(out)


def test_no_floats_in_machine_output(capsys):
    for cmd in ("connection", "curvature", "ricci", "classify", "ann",
                "decompose"):
        _, out, _ = run(capsys, cmd, "--catalog", "sl2_killing",
                        "--format", "json")
        def scan(v):
            assert not isinstance(v, float)
            if isinstance(v, dict):
                for x in v.values():
                    scan(x)
            elif isinstance(v, list):
                for x in v:
                    scan(x)
        scan(json.loads(out))


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1


def test_missing_input_exits_one(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 1
    assert "no inputs" in err


def test_unknown_catalog_name_exits_one(capsys):
    code, _, err = run(capsys, "classify", "--catalog", "nope")
    assert code == 1
    assert "known entries" in err


def test_unreadable_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--input",
                       str(tmp_path / "missing.json"))
    assert code == 1


def test_malformed_file_exits_one(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"name": "x"}')
    code, _, err = run(capsys, "validate", "--input", str(p))
    assert code == 1
    assert "error" in err


def test_degenerate_metric_exits_two(capsys, tmp_path):
    p = tmp_path / "degen.json"
    p.write_text(json.dumps({
        "name": "degen", "dim": 2, "basis": ["a", "b"], "mode": "bracket",
        "brackets": [], "metric": [{"x": "a", "y": "a", "value": "1"}]}))
    code, _, err = run(capsys, "decompose", "--input", str(p))
    assert code == 2
    assert "degenerate" in err
    # validate still reports instead of failing
    code, out, _ = run(capsys, "validate", "--input", str(p))
    assert code == 0
    assert "metric_nondegenerate_ok: false" in out


def test_isometry_precondition_exits_two(capsys):
    code, _, err = run(capsys, "isometry", "--catalog", "nonorthogonal8_alt")
    assert code == 2
    assert "annihilators" in err


def test_certificate_failures_exit_three(capsys, monkeypatch):
    import metriclie.cli as cli

    def boom(spec, args):
        raise CertificateError("synthetic mismatch")
    monkeypatch.setitem(cli._REPORTERS, "decompose", boom)
    code, _, err = run(capsys, "decompose", "--catalog", "abelian_2")
    assert code == 3
    assert "synthetic mismatch" in err


def test_jacobi_warning_goes_to_stderr_only(capsys):
    code, out, err = run(capsys, "decompose", "--catalog", "nonorthogonal8",
                         "--format", "json")
    assert code == 0
    assert "Jacobi" in err
    assert "warning" not in out
    json.loads(out)   # machine payload stays clean


def test_recheck_passes_on_all_entries(capsys):
    from metriclie.catalog import catalog_list
    for name in catalog_list():
        code, out, _ = run(capsys, "decompose", "--catalog", name,
                           "--recheck", "--format", "json")
        assert code == 0, name
        assert json.loads(out)["recheck"] == "passed", name


def test_multiple_sources_are_ordered(capsys, tmp_path):
    entry_text = importlib.resources.files("metriclie").joinpath(
        "data", "abelian_2.json").read_text(encoding="utf-8")
    p = tmp_path / "copy.json"
    p.write_text(entry_text)
    code, out, _ = run(capsys, "ann", "--input", str(p),
                       "--catalog", "abelian_3", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["name"] for r in results] == ["abelian_2", "abelian_3"]
    assert results[1]["case"] == "ANN_R_FULL"


def test_output_file_matches_stdout(capsys, tmp_path):
    _, out, _ = run(capsys, "ricci", "--catalog", "heisenberg3_euclid",
                    "--format", "json")
    target = tmp_path / "r.json"
    code, stdout, _ = run(capsys, "ricci", "--catalog", "heisenberg3_euclid",
                          "--format", "json", "--output", str(target))
    assert code == 0
    assert stdout == ""
    assert target.read_text() == out


def test_catalog_show_embeds_the_shipped_document(capsys):
    code, out, _ = run(capsys, "catalog", "show", "n23_quadratic",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    shipped = json.loads(importlib.resources.files("metriclie").joinpath(
        "data", "n23_quadratic.json").read_text(encoding="utf-8"))
    assert payload["document"] == shipped
    assert payload["expected"]["nilpotency_class"] == 3


def test_catalog_list_covers_everything(capsys):
    from metriclie.catalog import catalog_list
    code, out, _ = run(capsys, "catalog", "list", "--format", "json")
    assert code == 0
    names = [e["name"] for e in json.loads(out)["entries"]]
    assert names == list(catalog_list())


def test_catalog_show_without_name_exits_one(capsys):
    code, _, err = run(capsys, "catalog", "show")
    assert code == 1
