"""The benchmark's workloads: their inputs, their ops and the checks on outputs.

An op is one explanation query: one method on one (network, evidence) case.
Ops run in cycles. A cycle holds an equal share of every kind of op in the
workload, so medians taken over whole cycles do not depend on where a run
happened to stop.
"""
from __future__ import annotations

import contextlib
import io
import json
import random

from bnexplain import baselines, bench, cli, kmre, model, search

import netgen
import reference

METHODS = ("mre", "kmre", "kmap", "ksimp", "etree", "cetree")
# K-MAP ranks joints rounded to 10 decimals, so joints closer than this tie
# and either may be reported.
KMAP_TIE = 1e-10


def _rows(rows) -> list:
    return [(r.bindings, r.kind, r.value, r.prior, r.posterior) for r in rows]


# ---------------------------------------------------------------------------
# fixtures-cli


class FixturesCli:
    """Every golden scenario times every method, as in-process CLI calls."""

    name = "fixtures-cli"

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = [(sid, m) for sid in bench.SCENARIO_IDS for m in METHODS]
        self.cases: list = []

    @staticmethod
    def load(_bundle) -> list:
        """Set-up: build every fixture network once."""
        return [bench.fixture(f) for f in bench.FIXTURE_IDS]

    def write_bundle(self, path) -> None:
        path.write_text("{}")

    def cycle(self, k: int) -> list:
        ops = list(self.ops)
        random.Random(f"{self.name}:{self.seed}:{k}").shuffle(ops)
        return ops

    def warmup_ops(self) -> list:
        return [(bench.SCENARIO_IDS[0], m) for m in METHODS]

    @staticmethod
    def argv(op) -> list[str]:
        sc = bench.SCENARIOS[op[0]]
        argv = ["explain", "--fixture", sc.fixture_id]
        for var, state in sc.evidence:
            argv += ["--evidence", f"{var}={state}"]
        return argv + ["--method", op[1], "--k", str(sc.k), "--format", "json"]

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(op))
        return code, buf.getvalue()

    def digest(self, op, out):
        return out

    def check(self, ops, outputs) -> tuple[list[str | None], list[str]]:
        """One problem (or None) per op, and the problems of the run as a whole."""
        reports = [bench.run_scenario(sid) for sid in bench.SCENARIO_IDS]
        failing = [r.scenario_id for r in reports if not r.passed]
        refs: dict = {}
        problems = []
        for op, (code, text) in zip(ops, outputs):
            if code != 0:
                problems.append(f"exit code {code}")
                continue
            doc = json.loads(text)
            goldens = _goldens(op)
            if goldens:
                problems.append(_golden_problem(doc["rows"], goldens))
                continue
            if op not in refs:
                refs[op] = json.loads(self.run(op)[1])
            problems.append(None if doc == refs[op] else "differs from the reference pass")
        print(f"golden scenarios: {len(reports) - len(failing)}/{len(reports)} pass")
        return problems, [f"golden scenario {sid} fails" for sid in failing]


def _goldens(op) -> list:
    sid, method = op
    return [e for e in bench.SCENARIOS[sid].expected if e.kind in (method, f"{method}-count")]


def _golden_problem(rows, goldens) -> str | None:
    for exp in goldens:
        if exp.kind.endswith("-count"):
            if len(rows) != exp.value:
                return f"{len(rows)} rows, golden {exp.value:g}"
            continue
        if exp.rank >= len(rows):
            return f"no row at rank {exp.rank + 1}"
        row = rows[exp.rank]
        got = sorted(row["explanation"].items())
        if exp.bindings is not None:
            want = sorted(exp.bindings)
            if len(got) != len(want) or any(
                    gv != wv or ws not in ("*", gs) for (gv, gs), (wv, ws) in zip(got, want)):
                return f"rank {exp.rank + 1}: {got} is not golden {want}"
        if abs(row["score"] - exp.value) > exp.tol:
            return f"rank {exp.rank + 1}: score {row['score']} is not golden {exp.value}"
    return None


# ---------------------------------------------------------------------------
# synthetic workloads


class Synthetic:
    """Seeded generated networks; each case runs every method as a library call.

    Every case has the workload's SHAPE, and a cycle is one case. The
    structure of case i comes from i alone and its parameters and evidence
    from i and the seed: every case is a fresh network, yet runs with
    different seeds do the same structural work. All cases share one shape
    so that each per-method median is taken over one distribution of cases.
    POOL cases are generated and loaded before timing; a run that gets
    through all of them starts again at the first.
    """

    name = ""
    SHAPE: netgen.Shape
    POOL = 192

    def __init__(self, seed: int):
        self.seed = seed
        self.cases: list[tuple[model.Network, dict]] = []

    def generate(self, i: int) -> tuple[str, dict]:
        net, evidence = netgen.generate(self.SHAPE, f"{self.name}:{i}",
                                        f"{self.name}:{self.seed}:{i}")
        return model.serialize_network(net), evidence

    def write_bundle(self, path) -> None:
        """Generate the pool and, after it, one case for the warm-up ops."""
        docs = [self.generate(i) for i in range(self.POOL + 1)]
        path.write_text(json.dumps([{"network": t, "evidence": e} for t, e in docs]))

    @staticmethod
    def load(bundle) -> list:
        """Set-up: parse every network of the workload."""
        return [(model.parse_network(d["network"]), d["evidence"])
                for d in json.loads(bundle.read_text())]

    def cycle(self, k: int) -> list:
        return [(k % self.POOL, m) for m in METHODS]

    def warmup_ops(self) -> list:
        return [(self.POOL, m) for m in METHODS]

    def run(self, op):
        net, ev = self.cases[op[0]]
        m = op[1]
        if m == "mre":
            return search.mre(net, ev)
        if m == "kmre":
            return kmre.k_mre(net, ev)
        if m == "kmap":
            return baselines.k_map(net, ev)
        if m == "ksimp":
            return baselines.k_simp(net, ev)
        if m == "etree":
            return baselines.explanation_tree(net, ev)
        return baselines.causal_explanation_tree(net, ev)

    def digest(self, op, out):
        """The part of an output the checks read, so results are not kept."""
        m = op[1]
        if m == "mre":
            return _rows([out])
        if m == "kmre":
            return _rows(out.rows), len(out.scored)
        if m in ("kmap", "ksimp"):
            return _rows(out)
        return baselines.tree_doc(out)

    def check(self, ops, outputs) -> tuple[list[str | None], list[str]]:
        tables: dict = {}
        problems = []
        for op, got in zip(ops, outputs):
            case, m = op
            if m in ("ksimp", "etree", "cetree"):
                same = got == self.digest(op, self.run(op))
                problems.append(None if same else "differs from the reference pass")
                continue
            if case not in tables:
                tables[case] = reference.Tables(*self.cases[case])
            problems.append(_oracle_problem(m, got, tables[case]))
        return problems, []


def _oracle_problem(method, got, t: "reference.Tables") -> str | None:
    close = reference.close
    if method == "kmap":
        for bindings, _, value, prior, _ in got:
            if not (close(value, t.joint_of(bindings)) and close(prior, t.prior_of(bindings))):
                return f"K-MAP row {bindings} does not match the exact tables"
        kth = t.top_joints(len(got))[-1]
        if any(t.joint_of(r[0]) < kth - KMAP_TIE for r in got):
            return "K-MAP rows are not the top joints"
        return None
    rows = got if method == "mre" else got[0]
    if method == "kmre" and got[1] != t.candidates:
        return f"{got[1]} candidates scored, expected {t.candidates}"
    for bindings, _, value, prior, posterior in rows:
        lo, hi = t.gbf_range(bindings)
        if not (close(prior, t.prior_of(bindings)) and close(posterior, t.posterior_of(bindings))
                and lo <= value <= hi):
            return f"{method} row {bindings} does not match the exact tables"
    if rows[0][2] < t.best_gbf_floor():
        return f"{method} top GBF {rows[0][2]} is below the maximum {t.best_gbf_floor()}"
    return None


class SynthTargets(Synthetic):
    """Many candidates, cheap queries: 5 targets, a thin auxiliary layer."""

    name = "synth-targets"
    SHAPE = netgen.Shape((2, 2, 2, 3, 3), n_aux=2, fan_in=(1, 3), n_obs=5, window=64)


class SynthDeep(Synthetic):
    """Few candidates, costly queries: 3 targets under a deep auxiliary band.

    Findings stay at 7: the causal explanation tree builds a joint over all
    evidence variables, so its factors grow as 2^findings by definition.
    """

    name = "synth-deep"
    SHAPE = netgen.Shape((2, 2, 2), n_aux=16, fan_in=(5, 7), n_obs=7, window=12)


WORKLOADS = {w.name: w for w in (FixturesCli, SynthTargets, SynthDeep)}
