import importlib
import importlib.resources
import json
import os
import subprocess
import sys
import textwrap

import pytest

import metriclie
from metriclie import AlgebraSpec, dumps_document
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
    warning = ("warning: nonorthogonal8: Jacobi identity fails on 2 basis "
               "triple(s)\n")
    for command in ("validate", "ann", "decompose"):
        code, out, err = run(capsys, command, "--catalog", "nonorthogonal8",
                             "--format", "json")
        assert code == 0, command
        assert err == warning, command
        assert "warning" not in out
        json.loads(out)   # machine payload stays clean
    code, _, err = run(capsys, "ann", "--catalog", "so3_x_so3")
    assert code == 0
    assert err == ""


def test_negative_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["decompose", "--catalog", "t_star_h3", "--budget", "-5"])
    assert e.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget: must not be negative: -5" in captured.err


def test_recheck_derives_the_connection_once(capsys, monkeypatch):
    import metriclie.algebra as algebra
    derive = algebra.derive_connection
    derived = []

    def counting(spec):
        derived.append(spec)
        return derive(spec)
    monkeypatch.setattr(algebra, "derive_connection", counting)
    code, out, _ = run(capsys, "decompose", "--catalog", "so3_x_so3",
                       "--recheck", "--format", "json")
    assert code == 0
    assert json.loads(out)["recheck"] == "passed"
    assert len(derived) == 1


def test_connection_identities_are_checked_once_per_source(capsys,
                                                          monkeypatch):
    """validate reads connection_ok from the connection's own derivation,
    so `decompose` on a connection-mode entry checks the Γ identities
    once."""
    import metriclie.algebra as algebra
    check = algebra.check_torsion_and_compatibility
    calls = []

    def counting(gamma, spec):
        calls.append(spec)
        return check(gamma, spec)
    monkeypatch.setattr(algebra, "check_torsion_and_compatibility", counting)
    code, _, _ = run(capsys, "decompose", "--catalog", "nonorthogonal8",
                     "--format", "json")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name, pairs", [("abelian_2_lorentz", 3),
                                         ("abelian_3", 6),
                                         ("abelian_2_aniso", 2)])
def test_isometry_pairs_inert_factors_once(capsys, monkeypatch, name, pairs):
    """`isometry` reads the inert pair maps its factor matching found, so
    it diagonalizes no more factor pairs than `compare` does."""
    decompose = importlib.import_module("metriclie.decompose")
    pair_map = decompose._inert_pair_map
    calls = []

    def counting(spec, f_a, f_b):
        calls.append((f_a, f_b))
        return pair_map(spec, f_a, f_b)
    monkeypatch.setattr(decompose, "_inert_pair_map", counting)
    for command in ("compare", "isometry"):
        calls.clear()
        code, _, _ = run(capsys, command, "--catalog", name, "--format",
                         "json")
        assert code == 0
        assert len(calls) == pairs, command


@pytest.mark.parametrize("name, calls", [("abelian_2_lorentz", 4),
                                         ("nonorthogonal8", 6)])
def test_compare_tests_each_factor_once_per_verification(capsys, monkeypatch,
                                                         name, calls):
    """The verifier is the only strong-ideal test of a factor: a supplied
    factor is not tested again before it.  Both entries have two factors;
    abelian_2_lorentz verifies its decomposition and its alternative
    factors, nonorthogonal8 also the decomposition on a changed basis
    that its supplied factors are mapped back from."""
    original = metriclie.algebra.is_strong_ideal
    tested = []

    def counting(h, conn):
        tested.append(h)
        return original(h, conn)
    for module in ("algebra", "ideals", "decompose"):
        mod = importlib.import_module("metriclie." + module)
        if getattr(mod, "is_strong_ideal", None) is original:
            monkeypatch.setattr(mod, "is_strong_ideal", counting)
    code, _, _ = run(capsys, "compare", "--catalog", name, "--format", "json")
    assert code == 0
    assert len(tested) == calls


def test_a_connection_table_failing_the_identities_is_reported_and_refused(
        capsys, tmp_path):
    # ∇_a a = b and ∇_b b = 2a break metric compatibility twice
    spec = AlgebraSpec.build(
        ("a", "b"), metric={("a", "a"): 1, ("b", "b"): 1},
        connection={("a", "a"): {"b": 1}, ("b", "b"): {"a": 2}})
    p = tmp_path / "broken.json"
    p.write_text(dumps_document("broken", spec))
    code, out, _ = run(capsys, "validate", "--input", str(p),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["connection_ok"] is False
    code, _, err = run(capsys, "decompose", "--input", str(p))
    assert code == 2
    assert ("connection table fails the defining identities: compatibility "
            "at (0, 0, 1); compatibility at (1, 0, 1)") in err


def test_importing_the_cli_runs_no_library_function():
    """Every command pays for the import, so it may only define things:
    nothing in metriclie runs then but module and class bodies (and the
    comprehensions inside them) and the catalog's `_add` registrations."""
    script = textwrap.dedent("""
        import importlib.util, inspect, os, sys
        pkg = os.path.dirname(importlib.util.find_spec("metriclie").origin)
        ran = []

        def is_body(code):
            return not code.co_flags & inspect.CO_OPTIMIZED

        def profile(frame, event, arg):
            code = frame.f_code
            if event != "call" or os.path.dirname(code.co_filename) != pkg:
                return
            where = (os.path.basename(code.co_filename), code.co_name)
            if is_body(code) or where == ("catalog.py", "_add") or (
                    code.co_name.startswith("<")
                    and is_body(frame.f_back.f_code)):
                return
            ran.append(":".join(where))

        sys.setprofile(profile)
        import metriclie.cli
        sys.setprofile(None)
        print(" ".join(ran))
    """)
    src = os.path.dirname(os.path.dirname(metriclie.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


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


def test_a_failing_source_among_several_becomes_a_record(capsys, tmp_path):
    """With several sources, one that fails is reported in place and the
    others still run; the exit code is the highest seen.  A single source
    keeps its stdout, stderr and exit code."""
    names = ("abelian_2", "e2_flat", "so3_killing_neg")
    argv = ["isometry", "--format", "json"]
    code, out, err = run(capsys, *argv, *(a for name in names
                                          for a in ("--catalog", name)))
    assert code == 2
    results = json.loads(out)["results"]
    assert [r["source"] for r in results] == list(names)
    code, single_out, single_err = run(capsys, *argv, "--catalog", "e2_flat")
    assert (code, single_out) == (2, "")
    message = single_err.removeprefix("error: ").rstrip("\n")
    assert results[1] == {"source": "e2_flat", "error": message,
                          "exit_code": 2}
    assert err == f"error: e2_flat: {message}\n"
    for i in (0, 2):
        code, single_out, _ = run(capsys, *argv, "--catalog", names[i])
        assert code == 0 and json.loads(single_out) == results[i]
    degenerate = tmp_path / "degen.json"
    degenerate.write_text(json.dumps({
        "name": "degen", "dim": 1, "basis": ["a"], "mode": "bracket",
        "brackets": [], "metric": []}))
    code, out, err = run(capsys, "ann", "--input", str(degenerate),
                         "--catalog", "abelian_3", "--format", "json")
    assert code == 2
    assert json.loads(out)["results"][0]["error"] == "metric is degenerate"
    assert err == f"error: {degenerate}: metric is degenerate\n"
    # an so(3)-type input that parses and validates, but whose Ricci,
    # curvature and Killing entries have more digits than the interpreter
    # prints (Python ≥ 3.11): a result that cannot be printed
    if hasattr(sys, "get_int_max_str_digits") and \
            0 < sys.get_int_max_str_digits() < 5000:
        v = "7" * 3000
        long = tmp_path / "long.json"
        long.write_text(json.dumps({
            "name": "long", "dim": 3, "basis": ["e1", "e2", "e3"],
            "mode": "bracket",
            "brackets": [{"x": "e2", "y": "e3", "value": {"e1": v}},
                         {"x": "e3", "y": "e1", "value": {"e2": v}},
                         {"x": "e1", "y": "e2", "value": {"e3": v}}],
            "metric": [{"x": e, "y": e, "value": "1"}
                       for e in ("e1", "e2", "e3")]}))
        assert run(capsys, "validate", "--input", str(long))[0] == 0
        for command in ("ricci", "curvature", "classify"):
            code, out, err = run(capsys, command, "--input", str(long),
                                 "--catalog", "abelian_3", "--format", "json")
            assert code == 2, command
            first, second = json.loads(out)["results"]
            assert first["exit_code"] == 2
            assert first["error"].startswith("number too long to print: ")
            assert "error" not in second
            code, out, err = run(capsys, command, "--input", str(long))
            assert (code, out) == (2, ""), command
            assert err.startswith("error: number too long to print: ")
            assert err.count("\n") == 1


def test_a_source_that_cannot_be_loaded_among_several_becomes_a_record(
        capsys, tmp_path):
    """A file that does not parse, a file that cannot be read and an
    unknown catalog name each become a record naming them, and the other
    sources still run; alone, such a source prints its error line and
    exits 1.  So does a file nested too deeply to decode."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "ann", "--input", str(bad), "--catalog",
                         "abelian_3", "--format", "json")
    assert code == 1
    first, second = json.loads(out)["results"]
    assert first == {"source": str(bad), "error": "missing key 'dim'",
                     "exit_code": 1}
    assert second["source"] == "abelian_3" and second["case"]
    assert err == f"error: {bad}: missing key 'dim'\n"
    code, out, _ = run(capsys, "ann", "--input", str(missing), "--catalog",
                       "nosuch", "--catalog", "abelian_3", "--format", "json")
    assert code == 1
    results = json.loads(out)["results"]
    assert [r["source"] for r in results] == [str(missing), "nosuch",
                                              "abelian_3"]
    assert [r.get("exit_code") for r in results] == [1, 1, None]
    assert "no catalog entry named 'nosuch'" in results[1]["error"]
    code, out, err = run(capsys, "ann", "--input", str(bad))
    assert (code, out, err) == (1, "", "error: missing key 'dim'\n")
    # bytes that are not UTF-8 are a file that cannot be read
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "validate", "--input", str(undecodable),
                         "--catalog", "abelian_2", "--format", "json")
    assert code == 1
    first, second = json.loads(out)["results"]
    assert first["source"] == str(undecodable) and first["exit_code"] == 1
    assert first["error"].startswith(f"cannot read {undecodable}: ")
    assert second["source"] == "abelian_2" and "error" not in second
    code, out, err = run(capsys, "validate", "--input", str(undecodable))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {undecodable}: ")
    assert err.count("\n") == 1
    # JSON nested deeper than the decoder recurses is invalid JSON
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "validate", "--input", str(deep),
                         "--catalog", "abelian_2", "--format", "json")
    assert code == 1
    first, second = json.loads(out)["results"]
    assert first == {"source": str(deep), "exit_code": 1,
                     "error": "invalid JSON: nested too deeply"}
    assert second["source"] == "abelian_2" and "error" not in second
    code, out, err = run(capsys, "validate", "--input", str(deep))
    assert (code, out, err) == (1, "",
                                "error: invalid JSON: nested too deeply\n")
    # a number past the interpreter's integer digit limit (Python ≥ 3.11),
    # as a string and as a bare JSON integer, is an input-format error
    if hasattr(sys, "get_int_max_str_digits") and \
            0 < sys.get_int_max_str_digits() < 5000:
        doc = {"name": "long", "dim": 1, "basis": ["e1"], "mode": "bracket",
               "brackets": [],
               "metric": [{"x": "e1", "y": "e1", "value": "9" * 5000}]}
        as_string = tmp_path / "as_string.json"
        as_string.write_text(json.dumps(doc))
        as_int = tmp_path / "as_int.json"
        as_int.write_text(json.dumps(doc).replace(f'"{"9" * 5000}"',
                                                  "9" * 5000))
        code, out, err = run(capsys, "validate", "--input", str(as_string),
                             "--input", str(as_int), "--catalog", "abelian_2",
                             "--format", "json")
        assert code == 1
        results = json.loads(out)["results"]
        assert [r["source"] for r in results] == [str(as_string), str(as_int),
                                                  "abelian_2"]
        assert [r.get("exit_code") for r in results] == [1, 1, None]
        assert all(r["error"].startswith("number too long: ")
                   for r in results[:2])
        for path in (as_string, as_int):
            code, out, err = run(capsys, "validate", "--input", str(path))
            assert (code, out) == (1, "")
            assert err.startswith("error: number too long: ")
            assert err.count("\n") == 1


def test_only_the_searching_commands_take_seed_and_budget(capsys):
    for command in ("validate", "connection", "curvature", "ricci",
                    "classify", "ann", "filtration"):
        for knob in ("--seed", "--budget"):
            with pytest.raises(SystemExit) as e:
                main([command, "--catalog", "abelian_3", knob, "1"])
            assert e.value.code == 1, (command, knob)
            assert f"unrecognized arguments: {knob} 1" in \
                capsys.readouterr().err
    for command in ("decompose", "compare", "isometry"):
        code, _, _ = run(capsys, command, "--catalog", "abelian_3",
                         "--seed", "1", "--budget", "2")
        assert code == 0, command


def test_output_file_matches_stdout(capsys, tmp_path):
    _, out, _ = run(capsys, "ricci", "--catalog", "heisenberg3_euclid",
                    "--format", "json")
    target = tmp_path / "r.json"
    code, stdout, _ = run(capsys, "ricci", "--catalog", "heisenberg3_euclid",
                          "--format", "json", "--output", str(target))
    assert code == 0
    assert stdout == ""
    assert target.read_text() == out


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_unwritable_output_is_one_error_line(capsys, tmp_path, where):
    target = tmp_path / "no" / "x.json" if where == "missing directory" \
        else tmp_path
    code, out, err = run(capsys, "classify", "--catalog", "e2_flat",
                         "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
