"""Embedded benchmark networks and the golden score tables they reproduce.

Six small diagnosis/abduction networks ship with the package as code; the
builders below are the only source of each (``bnexplain show --fixture X
--format json`` prints one in the JSON network format). Each benchmark
scenario pins a fixture, an evidence assignment, and a set of expected rows;
``run_scenario`` recomputes every row and reports per-row pass/fail with
deltas.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Iterable

from .baselines import BaselineParams, k_map, k_simp
from .infer import prob
from .kmre import k_mre
from .model import (
    DeterministicCpt,
    Network,
    NoisyOrCpt,
    NoisyOrTrigger,
    TableCpt,
    Variable,
)
from .relevance import cbf
from .search import ScoredExplanation

Bindings = tuple[tuple[str, str], ...]


# ---------------------------------------------------------------------------
# fixture builders


class _Build:
    """Incremental network assembly; table rows keyed by parent configuration."""

    def __init__(self):
        self._vars: list[Variable] = []
        self._cpts: list = []
        self._states: dict[str, tuple[str, ...]] = {}

    def var(self, name: str, states: Iterable[str], role: str = "auxiliary") -> None:
        states = tuple(states)
        self._vars.append(Variable(name, states, role))
        self._states[name] = states

    def table(self, child: str, parents: Iterable[str], dist: dict) -> None:
        parents = tuple(parents)
        rows: list[float] = []
        for config in itertools.product(*(self._states[p] for p in parents)):
            rows.extend(dist[config])
        self._cpts.append(TableCpt(child=child, parents=parents, rows=tuple(rows)))

    def prior(self, child: str, row: Iterable[float]) -> None:
        self.table(child, (), {(): tuple(row)})

    def cpt(self, cpt) -> None:
        self._cpts.append(cpt)

    def net(self) -> Network:
        return Network(tuple(self._vars), tuple(self._cpts))


def _circuit() -> Network:
    """Cascade of four gates feeding a noisy-OR'd total output.

    Gates block current when ok; a defective gate leaks current downstream
    with high probability. Evidence clamps the source and the total output.
    """
    b = _Build()
    b.var("Input", ("current", "noCurr"), role="observation")
    b.prior("Input", (1.0, 0.0))
    for gate, p_def in (("A", 0.016), ("B", 0.1), ("C", 0.15), ("D", 0.1)):
        b.var(gate, ("ok", "defective"), role="target")
        b.prior(gate, (1.0 - p_def, p_def))

    def gate_out(p_cur: float) -> dict:
        # child states (current, noCurr); parents (gate, feed)
        return {
            ("ok", "current"): (0.0, 1.0),
            ("ok", "noCurr"): (0.0, 1.0),
            ("defective", "current"): (p_cur, 1.0 - p_cur),
            ("defective", "noCurr"): (0.0, 1.0),
        }

    for out, gate, feed, p_cur in (
        ("OutA", "A", "Input", 0.999),
        ("OutB", "B", "Input", 0.99),
        ("OutC", "C", "OutB", 0.985),
        ("OutD", "D", "OutB", 0.995),
    ):
        b.var(out, ("current", "noCurr"))
        b.table(out, (gate, feed), gate_out(p_cur))

    b.var("TotalOutput", ("current", "noCurr"), role="observation")
    b.cpt(NoisyOrCpt(
        child="TotalOutput",
        parents=("OutA", "OutC", "OutD"),
        effect_state="current",
        triggers=(
            NoisyOrTrigger("OutA", "current", 0.9),
            NoisyOrTrigger("OutC", "current", 0.99),
            NoisyOrTrigger("OutD", "current", 0.995),
        ),
    ))
    return b.net()


def _vacation(multi: bool) -> Network:
    """Health/location pair explaining survival of a vacation.

    The multi variant splits the away-from-home mass over 100 trails to
    stress explanations over a high-cardinality variable.
    """
    b = _Build()
    b.var("Healthy", ("healthy", "unhealthy"), role="target")
    b.prior("Healthy", (0.8, 0.2))
    if multi:
        locations = ("home",) + tuple(f"trail_{i}" for i in range(1, 101))
        loc = {
            ("healthy",): (0.1,) + (0.009,) * 100,
            ("unhealthy",): (0.8,) + (0.002,) * 100,
        }
    else:
        locations = ("home", "hiking")
        loc = {("healthy",): (0.2, 0.8), ("unhealthy",): (0.8, 0.2)}
    b.var("Location", locations, role="target")
    b.table("Location", ("Healthy",), loc)

    alive = {}
    for h in ("healthy", "unhealthy"):
        for s in locations:
            p = 0.99 if h == "healthy" else (0.9 if s == "home" else 0.1)
            alive[(h, s)] = (p, 1.0 - p)
    b.var("Alive", ("alive", "dead"), role="observation")
    b.table("Alive", ("Healthy", "Location"), alive)
    return b.net()


def _academe() -> Network:
    """Student assessment model: four causes behind a pass/fail final mark."""
    b = _Build()
    b.var("Theory", ("good", "average", "bad"), role="target")
    b.prior("Theory", (0.4, 0.3, 0.3))
    b.var("Practice", ("good", "average", "bad"), role="target")
    b.prior("Practice", (0.6, 0.25, 0.15))
    b.var("Extra", ("yes", "no"), role="target")
    b.prior("Extra", (0.3, 0.7))
    b.var("OtherFactors", ("plus", "minus"), role="target")
    b.prior("OtherFactors", (0.8, 0.2))

    pass_map = {
        ("good", "good"): 1.0,
        ("good", "average"): 0.85,
        ("average", "good"): 0.9,
        ("average", "average"): 0.2,
    }
    mark = {}
    for t in ("good", "average", "bad"):
        for p in ("good", "average", "bad"):
            m = 0.0 if "bad" in (t, p) else pass_map[(t, p)]
            mark[(t, p)] = (m, 1.0 - m)
    b.var("MarkTP", ("pass", "fail"))
    b.table("MarkTP", ("Theory", "Practice"), mark)

    b.var("GlobalMark", ("pass", "fail"))
    b.table("GlobalMark", ("MarkTP", "Extra"), {
        ("pass", "yes"): (1.0, 0.0),
        ("pass", "no"): (1.0, 0.0),
        ("fail", "yes"): (0.25, 0.75),
        ("fail", "no"): (0.0, 1.0),
    })
    b.var("FinalMark", ("pass", "fail"), role="observation")
    b.table("FinalMark", ("GlobalMark", "OtherFactors"), {
        ("pass", "plus"): (1.0, 0.0),
        ("pass", "minus"): (0.7, 0.3),
        ("fail", "plus"): (0.05, 0.95),
        ("fail", "minus"): (0.0, 1.0),
    })
    return b.net()


def _asia() -> Network:
    """Chest-clinic screening network with three candidate diseases."""
    b = _Build()
    b.var("VisitAsia", ("yes", "no"))
    b.prior("VisitAsia", (0.01, 0.99))
    b.var("Smoking", ("yes", "no"))
    b.prior("Smoking", (0.5, 0.5))
    b.var("Tuberculosis", ("yes", "no"), role="target")
    b.table("Tuberculosis", ("VisitAsia",),
            {("yes",): (0.05, 0.95), ("no",): (0.01, 0.99)})
    b.var("LungCancer", ("yes", "no"), role="target")
    b.table("LungCancer", ("Smoking",),
            {("yes",): (0.1, 0.9), ("no",): (0.01, 0.99)})
    b.var("Bronchitis", ("yes", "no"), role="target")
    b.table("Bronchitis", ("Smoking",),
            {("yes",): (0.6, 0.4), ("no",): (0.3, 0.7)})
    b.var("TbOrCa", ("yes", "no"))
    b.cpt(DeterministicCpt(
        child="TbOrCa",
        parents=("Tuberculosis", "LungCancer"),
        default_state="yes",
        exceptions=((("no", "no"), "no"),),
    ))
    b.var("XRay", ("abnormal", "normal"), role="observation")
    b.table("XRay", ("TbOrCa",),
            {("yes",): (0.98, 0.02), ("no",): (0.05, 0.95)})
    b.var("Dyspnea", ("yes", "no"), role="observation")
    b.table("Dyspnea", ("TbOrCa", "Bronchitis"), {
        ("yes", "yes"): (0.9, 0.1),
        ("yes", "no"): (0.7, 0.3),
        ("no", "yes"): (0.8, 0.2),
        ("no", "no"): (0.1, 0.9),
    })
    return b.net()


def _circuit2() -> Network:
    """Two inverters into a gate with fail-low behavior, all components suspect.

    Deterministic except for broken-component behavior, so explanation
    scores land on exact dyadic rationals.
    """
    b = _Build()
    b.var("In1", ("low", "high"), role="observation")
    b.prior("In1", (1.0, 0.0))
    b.var("In2", ("low", "high"), role="observation")
    b.prior("In2", (1.0, 0.0))
    for ok in ("OK1", "OK2", "OK3"):
        b.var(ok, ("abnormal", "ok"), role="target")
        b.prior(ok, (0.5, 0.5))

    inverter = {
        ("low", "ok"): (0.0, 1.0),
        ("high", "ok"): (1.0, 0.0),
        ("low", "abnormal"): (1.0, 0.0),     # broken: stuck low on low input
        ("high", "abnormal"): (0.5, 0.5),    # broken: coin flip on high input
    }
    b.var("Out1", ("low", "high"))
    b.table("Out1", ("In1", "OK1"), inverter)
    b.var("Out2", ("low", "high"))
    b.table("Out2", ("In2", "OK2"), inverter)

    b.var("E", ("low", "high"), role="observation")
    b.cpt(DeterministicCpt(
        child="E",
        parents=("Out1", "Out2", "OK3"),
        default_state="low",
        exceptions=(
            (("low", "high", "ok"), "high"),
            (("high", "low", "ok"), "high"),
            (("high", "high", "ok"), "high"),
        ),
    ))
    return b.net()


_BUILDERS = {
    "circuit": _circuit,
    "vacation1": lambda: _vacation(False),
    "vacation100": lambda: _vacation(True),
    "academe": _academe,
    "asia": _asia,
    "circuit2": _circuit2,
}

FIXTURE_IDS = tuple(_BUILDERS)


def fixture(fixture_id: str) -> Network:
    """Build a benchmark network by id."""
    if fixture_id not in _BUILDERS:
        known = ", ".join(sorted(_BUILDERS))
        raise ValueError(f"unknown fixture id {fixture_id!r} (known: {known})")
    return _BUILDERS[fixture_id]()


# ---------------------------------------------------------------------------
# golden scenarios


@dataclass(frozen=True)
class Expected:
    """One golden row: a value the scenario must reproduce.

    kind selects the comparison:
      gbf            score of the identified candidate in the full ranking
      kmre/kmap/ksimp  row at ``rank`` must match bindings and/or score
      kmre-count, ksimp-count  number of returned rows
      posterior      P(bindings | evidence)
      cbf            GBF of bindings given evidence, conditioned on ``given``
      candidates     size of the explanation lattice
      evidence-prob  P(evidence)

    A ``"*"`` state in bindings matches any state of that variable.
    """

    kind: str
    value: float
    tol: float = 0.0
    bindings: Bindings | None = None
    given: Bindings | None = None
    rank: int | None = None


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    fixture_id: str
    evidence: Bindings
    expected: tuple[Expected, ...]
    k: int = 3


@dataclass(frozen=True)
class RowResult:
    label: str
    expected: float
    tol: float
    computed: float | None
    delta: float | None
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: str
    rows: tuple[RowResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def doc(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "passed": self.passed,
            "rows": [asdict(r) for r in self.rows],
        }

    def text(self) -> str:
        n_pass = sum(r.passed for r in self.rows)
        lines = [f"{self.scenario_id}: {n_pass}/{len(self.rows)} rows pass"]
        width = max((len(r.label) for r in self.rows), default=0)
        for r in self.rows:
            status = "ok  " if r.passed else "FAIL"
            exp = _num(r.expected)
            got = _num(r.computed)
            delta = "" if r.delta is None else f"  delta {r.delta:.2e}"
            detail = f"  [{r.detail}]" if r.detail and not r.passed else ""
            lines.append(
                f"  {status}  {r.label:<{width}}  expect {exp:>10}  got {got:>10}{delta}{detail}"
            )
        return "\n".join(lines)


def _num(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and not x.is_integer():
        return f"{x:.6g}"
    return f"{x:g}" if isinstance(x, float) else str(x)


def _fmt(bindings: Bindings) -> str:
    return "(" + ", ".join(f"{v}={s}" for v, s in sorted(bindings)) + ")"


def _label(exp: Expected) -> str:
    parts = [exp.kind]
    if exp.rank is not None:
        parts.append(f"rank {exp.rank + 1}")
    if exp.bindings:
        parts.append(_fmt(exp.bindings))
    if exp.given:
        parts.append("given " + _fmt(exp.given))
    return " ".join(parts)


def _matches(got: Bindings, want: Bindings) -> bool:
    got = tuple(sorted(got))
    want = tuple(sorted(want))
    if len(got) != len(want):
        return False
    return all(gv == wv and ws in ("*", gs)
               for (gv, gs), (wv, ws) in zip(got, want))


_E = Expected

SCENARIOS: dict[str, Scenario] = {}


def _scenario(scenario_id, fixture_id, evidence, expected, k=3):
    SCENARIOS[scenario_id] = Scenario(
        scenario_id=scenario_id,
        fixture_id=fixture_id,
        evidence=evidence,
        expected=expected,
        k=k,
    )


_scenario("circuit", "circuit", (("Input", "current"), ("TotalOutput", "current")), (
    # spot values in the full GBF ranking; wider slack where the golden
    # figures were truncated rather than rounded
    _E("gbf", 42.62, 0.005, bindings=(("B", "defective"), ("C", "defective"))),
    _E("gbf", 42.15, 0.005, bindings=(("A", "ok"), ("B", "defective"), ("C", "defective"))),
    _E("gbf", 39.93, 0.005, bindings=(("B", "defective"), ("C", "defective"), ("D", "ok"))),
    _E("gbf", 39.56, 0.005, bindings=(("A", "ok"), ("B", "defective"), ("C", "defective"), ("D", "ok"))),
    _E("gbf", 39.44, 0.015, bindings=(("A", "defective"),)),
    _E("gbf", 36.98, 0.015, bindings=(("A", "defective"), ("B", "ok"))),
    _E("gbf", 35.99, 0.015, bindings=(("A", "defective"), ("C", "ok"))),
    _E("gbf", 35.88, 0.005, bindings=(("B", "defective"), ("D", "defective"))),
    _E("kmre", 42.62, 0.005, bindings=(("B", "defective"), ("C", "defective")), rank=0),
    _E("kmre", 39.44, 0.015, bindings=(("A", "defective"),), rank=1),
    _E("kmre", 35.88, 0.005, bindings=(("B", "defective"), ("D", "defective")), rank=2),
    _E("posterior", 0.391, 5e-4, bindings=(("A", "defective"),)),
    _E("posterior", 0.649, 5e-4, bindings=(("B", "defective"),)),
    _E("posterior", 0.446, 5e-4, bindings=(("C", "defective"),)),
    _E("posterior", 0.301, 5e-4, bindings=(("D", "defective"),)),
    _E("posterior", 0.394, 5e-4, bindings=(("B", "defective"), ("C", "defective"))),
    _E("posterior", 0.266, 5e-4, bindings=(("B", "defective"), ("D", "defective"))),
    _E("kmap", 0.0128, 5e-5, bindings=(("A", "ok"), ("B", "defective"), ("C", "defective"), ("D", "ok")), rank=0),
    _E("kmap", 0.0099, 5e-5, bindings=(("A", "defective"), ("B", "ok"), ("C", "ok"), ("D", "ok")), rank=1),
    _E("kmap", 0.0082, 5e-5, bindings=(("A", "ok"), ("B", "defective"), ("C", "ok"), ("D", "defective")), rank=2),
    _E("ksimp", 0.9818, 5e-5, bindings=(("B", "defective"), ("D", "defective")), rank=0),
    _E("ksimp", 0.9683, 5e-5, bindings=(("B", "defective"), ("C", "defective")), rank=1),
    _E("ksimp", 0.9014, 5e-5, bindings=(("A", "defective"),), rank=2),
    # a further fault adds almost nothing once (B,C) are known defective
    _E("cbf", 1.03, 0.005, bindings=(("A", "defective"),),
       given=(("B", "defective"), ("C", "defective"))),
    _E("candidates", 80),
))

_scenario("vacation1-alive", "vacation1", (("Alive", "alive"),), (
    _E("kmre-count", 2),
    _E("kmre", 1.3378, 5e-4, bindings=(("Healthy", "healthy"),), rank=0),
    _E("kmre", 1.0078, 5e-4, bindings=(("Location", "home"),), rank=1),
    _E("kmap", 0.6336, 5e-4, bindings=(("Healthy", "healthy"), ("Location", "hiking")), rank=0),
    _E("kmap", 0.1584, 5e-4, bindings=(("Healthy", "healthy"), ("Location", "home")), rank=1),
    _E("kmap", 0.1440, 5e-4, bindings=(("Healthy", "unhealthy"), ("Location", "home")), rank=2),
    _E("ksimp-count", 2),
    _E("ksimp", 0.99, 5e-4, bindings=(("Healthy", "healthy"),), rank=0),
    _E("ksimp", 0.945, 5e-4, bindings=(("Location", "home"),), rank=1),
    _E("candidates", 8),
))

_scenario("vacation1-dead", "vacation1", (("Alive", "dead"),), (
    _E("kmre-count", 1),
    _E("kmre", 36.00, 5e-4, bindings=(("Healthy", "unhealthy"), ("Location", "hiking")), rank=0),
    _E("kmap", 0.036, 5e-4, bindings=(("Healthy", "unhealthy"), ("Location", "hiking")), rank=0),
    _E("kmap", 0.016, 5e-4, bindings=(("Healthy", "unhealthy"), ("Location", "home")), rank=1),
    _E("kmap", 0.0064, 5e-4, bindings=(("Healthy", "healthy"), ("Location", "hiking")), rank=2),
    _E("ksimp-count", 3),
    _E("ksimp", 0.9, 5e-4, bindings=(("Healthy", "unhealthy"), ("Location", "hiking")), rank=0),
    _E("ksimp", 0.26, 5e-4, bindings=(("Healthy", "unhealthy"),), rank=1),
    _E("ksimp", 0.0624, 5e-4, bindings=(("Location", "hiking"),), rank=2),
))

_scenario("vacation100-alive", "vacation100", (("Alive", "alive"),), (
    _E("kmre-count", 2),
    _E("kmre", 1.3378, 5e-4, bindings=(("Healthy", "healthy"),), rank=0),
    _E("kmre", 1.0034, 5e-4, bindings=(("Location", "*"),), rank=1),
    _E("kmap", 0.1440, 5e-4, bindings=(("Healthy", "unhealthy"), ("Location", "home")), rank=0),
    _E("kmap", 0.0792, 5e-4, bindings=(("Healthy", "healthy"), ("Location", "home")), rank=1),
    _E("kmap", 0.0071, 5e-4, bindings=(("Healthy", "healthy"), ("Location", "*")), rank=2),
    _E("ksimp-count", 2),
    _E("ksimp", 0.99, 5e-4, bindings=(("Healthy", "healthy"),), rank=0),
    _E("ksimp", 0.93, 5e-4, bindings=(("Location", "home"),), rank=1),
    _E("candidates", 305),
))

_scenario("vacation100-dead", "vacation100", (("Alive", "dead"),), (
    _E("kmre-count", 2),
    _E("kmre", 26.0000, 5e-4, bindings=(("Healthy", "unhealthy"),), rank=0),
    _E("kmre", 1.2310, 5e-4, bindings=(("Location", "home"),), rank=1),
    _E("kmap", 0.016, 5e-4, bindings=(("Healthy", "unhealthy"), ("Location", "home")), rank=0),
    _E("kmap", 0.0008, 5e-4, bindings=(("Healthy", "healthy"), ("Location", "home")), rank=1),
    _E("kmap", 0.0004, 5e-4, bindings=(("Healthy", "unhealthy"), ("Location", "*")), rank=2),
    _E("ksimp-count", 3),
    _E("ksimp", 0.9, 5e-4, bindings=(("Healthy", "unhealthy"), ("Location", "*")), rank=0),
    _E("ksimp", 0.26, 5e-4, bindings=(("Healthy", "unhealthy"),), rank=1),
    _E("ksimp", 0.07, 5e-4, bindings=(("Location", "home"),), rank=2),
))

_scenario("academe", "academe", (("FinalMark", "fail"),), (
    _E("kmre", 3.0205, 5e-5, bindings=(("Theory", "bad"),), rank=0),
    _E("kmre", 2.2986, 5e-5, bindings=(("Extra", "no"), ("Practice", "bad")), rank=1),
    _E("kmre", 2.0209, 5e-5,
       bindings=(("OtherFactors", "minus"), ("Practice", "bad"), ("Theory", "good")), rank=2),
    _E("kmap", 0.0958, 5e-5,
       bindings=(("Extra", "no"), ("OtherFactors", "plus"), ("Practice", "good"), ("Theory", "bad")), rank=0),
    _E("kmap", 0.0399, 5e-5,
       bindings=(("Extra", "no"), ("OtherFactors", "plus"), ("Practice", "average"), ("Theory", "bad")), rank=1),
    _E("kmap", 0.03192, 5e-5,
       bindings=(("Extra", "no"), ("OtherFactors", "plus"), ("Practice", "average"), ("Theory", "average")), rank=2),
    _E("ksimp-count", 2),
    _E("ksimp", 0.9600, 5e-5, bindings=(("Extra", "no"), ("Theory", "bad")), rank=0),
    _E("ksimp", 0.7260, 5e-5, bindings=(("Practice", "average"), ("Theory", "average")), rank=1),
    _E("candidates", 143),
))

_scenario("asia-dyspnea", "asia", (("Dyspnea", "yes"),), (
    _E("kmre", 6.1391, 5e-5, bindings=(("Bronchitis", "yes"),), rank=0),
    _E("kmre", 1.9678, 5e-5, bindings=(("LungCancer", "yes"),), rank=1),
    _E("kmre", 1.8276, 5e-5, bindings=(("Tuberculosis", "yes"),), rank=2),
    _E("kmap", 0.3313, 5e-5,
       bindings=(("Bronchitis", "yes"), ("LungCancer", "no"), ("Tuberculosis", "no")), rank=0),
    _E("kmap", 0.0521, 5e-5,
       bindings=(("Bronchitis", "no"), ("LungCancer", "no"), ("Tuberculosis", "no")), rank=1),
    _E("kmap", 0.02806, 5e-5,
       bindings=(("Bronchitis", "yes"), ("LungCancer", "yes"), ("Tuberculosis", "no")), rank=2),
    _E("ksimp", 0.9000, 5e-5, bindings=(("Bronchitis", "yes"), ("LungCancer", "yes")), rank=0),
    _E("ksimp", 0.8080, 5e-5, bindings=(("Bronchitis", "yes"),), rank=1),
    _E("ksimp", 0.4323, 5e-5 + 1e-9, bindings=(("Tuberculosis", "no"),), rank=2),
    _E("candidates", 26),
))

_scenario("asia-xray", "asia", (("XRay", "abnormal"),), (
    _E("kmre", 16.4231, 5e-5, bindings=(("LungCancer", "yes"),), rank=0),
    _E("kmre", 9.6886, 5e-5, bindings=(("Tuberculosis", "yes"),), rank=1),
    _E("kmre", 1.2535, 5e-5, bindings=(("Bronchitis", "yes"),), rank=2),
    _E("kmap", 0.0305, 5e-5,
       bindings=(("Bronchitis", "yes"), ("LungCancer", "yes"), ("Tuberculosis", "no")), rank=0),
    _E("kmap", 0.0261, 5e-5,
       bindings=(("Bronchitis", "no"), ("LungCancer", "no"), ("Tuberculosis", "no")), rank=1),
    _E("kmap", 0.0228, 5e-5,
       bindings=(("Bronchitis", "no"), ("LungCancer", "yes"), ("Tuberculosis", "no")), rank=2),
    _E("ksimp-count", 2),
    _E("ksimp", 0.9800, 5e-5, bindings=(("LungCancer", "yes"),), rank=0),
    _E("ksimp", 0.1012, 5e-5 + 1e-9, bindings=(("Tuberculosis", "no"),), rank=1),
))

_scenario("circuit2", "circuit2", (("E", "low"),), (
    _E("evidence-prob", 0.625, 1e-9),
    _E("kmre-count", 2),
    _E("kmre", 4.0, 1e-9, bindings=(("OK3", "abnormal"),), rank=0),
    _E("kmre", 2.0, 1e-9, bindings=(("OK1", "abnormal"), ("OK2", "abnormal")), rank=1),
    # five full configurations tie for the top joint score
    _E("kmap", 0.1250, 1e-9, rank=0),
    _E("kmap", 0.1250, 1e-9, rank=1),
    _E("kmap", 0.1250, 1e-9, rank=2),
    _E("ksimp-count", 2),
    _E("ksimp", 1.0, 1e-9, bindings=(("OK3", "abnormal"),), rank=0),
    _E("ksimp", 1.0, 1e-9, bindings=(("OK1", "abnormal"), ("OK2", "abnormal")), rank=1),
    _E("candidates", 26),
))

SCENARIO_IDS = tuple(SCENARIOS)


def run_scenario(scenario_id: str) -> ScenarioReport:
    """Recompute a scenario's golden rows and report per-row pass/fail.

    K-MRE, K-MAP and K-SIMP run once each; the GBF rows and the candidate
    count read K-MRE's full sweep. Mismatches are report content, not
    exceptions.
    """
    if scenario_id not in SCENARIOS:
        known = ", ".join(SCENARIO_IDS)
        raise ValueError(f"unknown scenario {scenario_id!r} (known: {known})")
    sc = SCENARIOS[scenario_id]
    net = fixture(sc.fixture_id)
    ev = dict(sc.evidence)
    res = k_mre(net, ev, k=sc.k)
    ranked = {"kmre": res.rows, "kmap": k_map(net, ev, k=sc.k),
              "ksimp": k_simp(net, ev, BaselineParams(k=sc.k))}
    rows = tuple(_check(exp, net, ev, res.scored, ranked) for exp in sc.expected)
    return ScenarioReport(sc.scenario_id, rows)


def _check(exp: Expected, net: Network, ev: dict, scored: list[ScoredExplanation],
           ranked: dict[str, list[ScoredExplanation]]) -> RowResult:
    label = _label(exp)

    def against(computed: float | None, detail: str = "", id_ok: bool = True) -> RowResult:
        if computed is None:
            return RowResult(label, exp.value, exp.tol, None, None, False, detail)
        delta = abs(computed - exp.value)
        passed = id_ok and delta <= exp.tol
        return RowResult(label, exp.value, exp.tol, computed, delta, passed, detail)

    if exp.kind == "gbf":
        want = frozenset(exp.bindings)
        row = next((r for r in scored if frozenset(r.bindings) == want), None)
        if row is None:
            return against(None, detail="candidate not found")
        return against(row.value)

    if exp.kind in ("kmre", "kmap", "ksimp"):
        rows = ranked[exp.kind]
        if exp.rank >= len(rows):
            return against(None, detail=f"only {len(rows)} rows returned")
        row = rows[exp.rank]
        detail = _fmt(row.bindings)
        id_ok = exp.bindings is None or _matches(row.bindings, exp.bindings)
        if not id_ok:
            detail = f"got {_fmt(row.bindings)}, want {_fmt(exp.bindings)}"
        return against(row.value, detail=detail, id_ok=id_ok)

    if exp.kind in ("kmre-count", "ksimp-count"):
        return against(float(len(ranked[exp.kind.split("-")[0]])))

    if exp.kind == "posterior":
        return against(prob(net, dict(exp.bindings), ev))

    if exp.kind == "cbf":
        return against(cbf(net, dict(exp.bindings), ev, dict(exp.given)))

    if exp.kind == "candidates":
        return against(float(len(scored)))

    if exp.kind == "evidence-prob":
        return against(prob(net, ev))

    raise ValueError(f"unknown expectation kind {exp.kind!r}")
