"""Every public function of ``bnexplain`` has a user besides the tests.

A public module-level function is used when other ``src/`` code refers to
it (a re-export in ``__init__.py`` does not count), when ``perfbench/``
reads it, when ``BENCHMARK.json`` traces it, or when ``README.md`` names it
in code (`` `name` ``, `` `module.name` `` or ``name(``). A function with
none of these users is code only its tests call: delete it, or document it.
"""
import ast
import re
from pathlib import Path

from test_benchmark_names import PERFBENCH_READS, ROOT, _traced_names

SRC = ROOT / "src" / "bnexplain"
README = (ROOT / "README.md").read_text()


def _public_functions() -> dict[str, ast.FunctionDef]:
    """``module.function`` -> its definition, for every module under src/."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out[f"{path.stem}.{node.name}"] = node
    return out


def _referred_names() -> set[str]:
    """Every name that src/ code outside ``__init__.py`` loads, bare or as
    an attribute, counting no function's references to itself."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        own = {id(n): f.name for f in tree.body if isinstance(f, ast.FunctionDef)
               for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if own.get(id(node)) != name:
                names.add(name)
    return names


def _unused() -> list[str]:
    referred, traced = _referred_names(), set(_traced_names())
    unused = []
    for qualified in _public_functions():
        module, name = qualified.split(".")
        if (name in referred or qualified in traced
                or f"bnexplain.{qualified}" in PERFBENCH_READS
                or f"bnexplain.{name}" in PERFBENCH_READS
                or re.search(rf"`(?:{module}\.)?{name}`|\b{name}\(", README)):
            continue
        unused.append(qualified)
    return unused


def test_the_scan_finds_functions_and_their_uses():
    functions = _public_functions()
    assert {"search.candidate_count", "kmre.dominates", "cli.main"} <= set(functions)
    assert "mre" in _referred_names()  # cli calls it; __init__ only re-exports


def test_every_public_function_has_a_user():
    assert _unused() == []
