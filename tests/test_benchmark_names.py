"""The functions the benchmark's traced run reads by name must exist.

``perfbench/run.py --trace 1`` reports each per-layer metric of
``BENCHMARK.json`` as ``values[name]``; a ``<module>.<function>.calls`` or
``.self_s`` metric only exists when that function is traced, and the tracer
wraps only public, non-generator functions defined at module level. Renaming
or deleting one of them turns the traced run into a KeyError.
"""
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

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
