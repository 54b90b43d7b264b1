"""The library keeps only what is used: every function it defines is named
by the library or the benchmark, exported, or a base-class override."""

import ast
import importlib
import pathlib

import metriclie

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "metriclie"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _defs(node, owner=None):
    """(name of the enclosing class or None, def node) for every def below
    node; a def nested in a function has no class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defs(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield owner, child
            yield from _defs(child)
        else:
            yield from _defs(child, owner)


def _overrides(module, owner, name):
    cls = getattr(importlib.import_module(f"metriclie.{module}"), owner)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def test_every_library_function_is_used_exported_or_an_override():
    used = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _defs(_parse(path)):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name in used or name in metriclie.__all__
                    or owner and _overrides(path.stem, owner, name)):
                continue
            unused.append(".".join(filter(None, (path.stem, owner, name))))
    assert not unused, f"defined but never used: {', '.join(unused)}"
