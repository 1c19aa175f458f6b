"""Span tracing of bnexplain from outside the package.

``Tracer.installed()`` replaces every public module-level function of the
traced modules with a wrapper that records one span per call: name, start,
end, parent span and op id. The wrapper is installed on every module-level
binding of the function, so ``baselines.query`` is traced as well as
``infer.query``, and ``infer.expand_cpt`` as well as ``model.expand_cpt``.
Spans are named after the defining module (``model.expand_cpt``).

Generator functions are left unwrapped: their call returns before any work
is done, so that work is counted in the caller's self time.

Spans live in flat arrays in memory and are written out by ``save``.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("model", "infer", "relevance", "search", "kmre", "baselines", "cli", "bench")

# Spans of these functions record the size of the factor they return.
FACTOR_PRODUCERS = ("infer.cpt_factor", "infer.multiply", "infer.sum_out", "infer.restrict")
CONTRACT = ("infer.multiply", "infer.sum_out", "infer.restrict")
# Candidate scoring happens inside these spans.
SEARCHES = ("search.score_all", "search.mre")


def _factor_size(args, res):
    return res.values.size, res.values.nbytes


def _kept_and_scored(args, res):
    return len(res[0]), len(args[0])


# name -> function(args, result) giving the two per-span measures (a, b)
MEASURES = {name: _factor_size for name in FACTOR_PRODUCERS}
MEASURES["kmre.minimal_set"] = _kept_and_scored


class Tracer:
    """Spans of one run. Set ``current_op`` around each op; spans recorded
    while it is -1 (set-up, for instance) belong to no op."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self.current_op = -1
        self._stack = [-1]
        self._wrappers: dict = {}

    def _wrap(self, fn, qualname):
        nid = len(self.names)
        self.names.append(qualname)
        measure = MEASURES.get(qualname)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, a, b = self.start, self.end, self.a, self.b
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            a.append(0)
            b.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if measure is not None:
                a[i], b[i] = measure(args, res)
            return res

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        mods = {m: importlib.import_module(f"bnexplain.{m}") for m in MODULES}
        wrappers = self._wrappers
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj not in wrappers
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        patched = []
        for mod in [importlib.import_module("bnexplain"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "a": np.frombuffer(self.a, dtype=np.int64).copy(),
            "b": np.frombuffer(self.b, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (and the name table) as an uncompressed .npz."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self, setup: bool = False) -> dict[str, float]:
        """Per-layer counts and self times over the spans of ops (op >= 0),
        or with ``setup`` over the spans recorded outside any op (op -1).

        Self time is a span's duration minus the durations of its direct
        children; spans on one thread nest, so those children are disjoint.
        """
        s = self.arrays()
        n = len(s["name"])
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        cover = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - cover
        keep = s["op"] < 0 if setup else s["op"] >= 0
        ids = {q: i for i, q in enumerate(self.names)}
        k = len(self.names)
        calls = np.bincount(s["name"][keep], minlength=k)
        self_s = np.bincount(s["name"][keep], weights=self_t[keep], minlength=k)

        out: dict[str, float] = {}
        for q, i in ids.items():
            out[f"{q}.calls"] = int(calls[i])
            out[f"{q}.self_s"] = float(self_s[i])

        out["infer.contract.calls"] = sum(out[f"{q}.calls"] for q in CONTRACT)
        out["infer.contract.self_s"] = sum(out[f"{q}.self_s"] for q in CONTRACT)

        producing = keep & np.isin(s["name"], [ids[q] for q in FACTOR_PRODUCERS])
        out["infer.max_factor_entries"] = int(s["a"][producing].max(initial=0))
        out["infer.factor_bytes"] = int(s["b"][producing].sum())

        minimal = keep & (s["name"] == ids["kmre.minimal_set"])
        scored_rows = int(s["b"][minimal].sum())
        out["kmre.kept_ratio"] = int(s["a"][minimal].sum()) / scored_rows if scored_rows else 0.0

        # A span is "in search" when it or an ancestor is a search span;
        # parents are recorded before their children, so one pass suffices.
        search_ids = {ids[q] for q in SEARCHES}
        in_search = np.zeros(n, dtype=bool)
        name, parent = s["name"].tolist(), s["parent"].tolist()
        for i in range(n):
            p = parent[i]
            in_search[i] = name[i] in search_ids or (p >= 0 and in_search[p])
        scored = keep & in_search & (s["name"] == ids["relevance.gbf_from_probs"])
        queries = keep & in_search & (s["name"] == ids["infer.query"])
        out["search.candidates_scored"] = int(scored.sum())
        out["search.queries_per_candidate"] = (
            int(queries.sum()) / out["search.candidates_scored"]
            if out["search.candidates_scored"] else 0.0)
        return out
