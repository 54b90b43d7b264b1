"""Golden machine output: the exit code and the SHA-256 of the
`--format json` stdout of every analysis command on every catalog entry,
with the default seed and budget.

The digests live in `golden_cli.json` next to this file.  A change that
alters machine output on purpose records them again with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which outputs changed and why.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import pathlib

from metriclie.catalog import catalog_list
from metriclie.cli import COMMANDS, main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")


def golden_cases():
    """(command, catalog name) pairs covered by the golden file."""
    return [(cmd, name) for cmd in COMMANDS for name in catalog_list()]


def run_case(command, name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--catalog", name, "--format", "json"])
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


def record():
    return {f"{cmd} {name}": run_case(cmd, name)
            for cmd, name in golden_cases()}


def test_machine_output_matches_the_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(f"{c} {n}" for c, n in golden_cases())
    mismatched = [key for key, expected in golden.items()
                  if run_case(*key.split(" ")) != expected]
    assert not mismatched


def test_every_name_the_benchmark_tracer_wraps_is_bound():
    """perfbench/spans.py wraps layer functions by name and fails a traced
    run on a missing one; this catches it without running the benchmark."""
    path = GOLDEN.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    _, search_home, search_names = spans.SEARCH
    for home, names in [*spans.LAYERS.values(), (search_home, search_names)]:
        module = importlib.import_module(f"metriclie.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), (home, name)


if __name__ == "__main__":
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}"
             for k, v in sorted(record().items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
