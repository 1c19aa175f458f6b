"""The bnexplain names the benchmark reads must exist.

``perfbench/run.py --trace 1`` reports each per-layer metric of
``BENCHMARK.json`` as ``values[name]``; a ``<module>.<function>.calls`` or
``.self_s`` metric only exists when that function is traced, and the tracer
wraps only public, non-generator functions defined at module level. Renaming
or deleting one of them turns the traced run into a KeyError. The harness
and its tests also import bnexplain names and read module attributes; a
missing one fails the benchmark run. This file only reads ``perfbench/``.
"""
import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
PERFBENCH = ROOT / "perfbench"

# perfbench/spans.py sums these into infer.contract.calls and .self_s
CONTRACT = ("infer.multiply", "infer.sum_out", "infer.restrict")


def _traced_names() -> list[str]:
    spec = json.loads(BENCHMARK.read_text())
    names = set(CONTRACT)
    for metric in spec["per_layer"]:
        m = re.fullmatch(r"(\w+\.\w+)\.(calls|self_s)", metric["name"])
        if m and m.group(1) != "infer.contract":
            names.add(m.group(1))
    return sorted(names)


def test_benchmark_lists_traced_functions():
    assert "kmre.minimal_set" in _traced_names()
    assert "infer.likelihood" in _traced_names()


@pytest.mark.parametrize("name", _traced_names())
def test_traced_function_is_public_at_module_level(name):
    module, function = name.split(".")
    mod = importlib.import_module(f"bnexplain.{module}")
    fn = getattr(mod, function, None)
    assert inspect.isfunction(fn), name
    assert fn.__module__ == mod.__name__, name
    assert not function.startswith("_")
    assert not inspect.isgeneratorfunction(fn), name


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def _read_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(bnexplain module, attribute) for every name the code imports from a
    bnexplain module or reads as ``<module>.<attr>`` off one it imported."""
    modules: dict[str, str] = {}  # local name -> bnexplain module
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bnexplain":
                    local = alias.asname or "bnexplain"
                    modules[local] = alias.name if alias.asname else "bnexplain"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bnexplain":
            for alias in node.names:
                reads.add((node.module, alias.name))
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain.append(node.attr)
            node = node.value
        if not (chain and isinstance(node, ast.Name) and node.id in modules):
            continue
        module = modules[node.id]
        for attr in reversed(chain):
            if not _is_module(f"{module}.{attr}"):
                reads.add((module, attr))
                break
            module = f"{module}.{attr}"
    return reads


def _perfbench_reads() -> dict[str, list[str]]:
    """``module.attr`` -> the perfbench files that read it."""
    out: dict[str, list[str]] = {}
    for path in sorted([*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")]):
        for module, attr in _read_names(ast.parse(path.read_text())):
            out.setdefault(f"{module}.{attr}", []).append(str(path.relative_to(ROOT)))
    return out


PERFBENCH_READS = _perfbench_reads()


def test_perfbench_reads_are_found():
    for name in ("bench.SCENARIO_IDS", "baselines.tree_doc", "baselines.query",
                 "infer.brute_force_joint", "model.parse_network"):
        assert f"bnexplain.{name}" in PERFBENCH_READS, name


@pytest.mark.parametrize("name", sorted(PERFBENCH_READS))
def test_perfbench_reads_exist(name):
    module, attr = name.rsplit(".", 1)
    assert hasattr(importlib.import_module(module), attr), PERFBENCH_READS[name]
