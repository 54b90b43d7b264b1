"""The README's examples run as written: its python block prints what its
comments say, and each `$ metriclie …` example exits 0."""

import contextlib
import io
import pathlib
import re
import shlex

from metriclie.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_readme_python_block_prints_what_its_comments_say():
    (code,) = _blocks("python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_command_examples_exit_zero(capsys):
    examples = [line[2:] for block in _blocks("sh")
                for line in block.splitlines() if line.startswith("$ metriclie ")]
    assert len(examples) == 5
    for line in examples:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
