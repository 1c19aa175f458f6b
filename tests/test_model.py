import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnexplain
import oracle
from bnexplain import bench
from bnexplain.baselines import causal_explanation_tree, causal_flow, explanation_tree
from bnexplain.infer import explanation_tables, mutilate, prob, query
from bnexplain.kmre import k_mre
from bnexplain.model import (
    DeterministicCpt,
    Network,
    NoisyOrCpt,
    NoisyOrTrigger,
    TableCpt,
    Variable,
    check_assignment,
    d_separated,
    expand_cpt,
    parse_network,
    serialize_network,
    validate,
)


def _net(*pairs):
    return Network(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def _v(name, states=("a", "b"), role="auxiliary"):
    return Variable(name, tuple(states), role)


# ---------------------------------------------------------------------------
# validation

def test_all_fixtures_validate_clean(nets):
    for fid, net in nets.items():
        assert validate(net) == [], fid


def test_row_sum_violation_reported():
    net = _net((_v("X"), TableCpt(child="X", parents=(), rows=(0.5, 0.4))))
    problems = validate(net)
    assert any("sum" in p for p in problems)


def test_nan_entries_reported(nets):
    doc = json.loads(serialize_network(nets["vacation1"]))
    cpt = next(c for c in doc["cpts"] if c["kind"] == "table")
    width = len(next(v for v in doc["variables"] if v["name"] == cpt["child"])["states"])
    cpt["rows"][:width] = [math.nan] * width
    with pytest.raises(ValueError, match="row 0 has entries outside"):
        parse_network(json.dumps(doc))
    net = _net((_v("X"), TableCpt(child="X", parents=(), rows=(math.nan, 1.0))))
    problems = validate(net)
    assert "CPT of X: row 0 has entries outside [0,1]" in problems
    assert "CPT of X: row 0 sum nan != 1" in problems


def test_cycle_reported():
    net = _net(
        (_v("A"), TableCpt(child="A", parents=("B",), rows=(1.0, 0.0, 0.0, 1.0))),
        (_v("B"), TableCpt(child="B", parents=("A",), rows=(1.0, 0.0, 0.0, 1.0))),
    )
    assert "cycle: A -> B" in validate(net)
    longer = _net(
        (_v("X"), TableCpt(child="X", parents=(), rows=(0.5, 0.5))),
        (_v("A"), TableCpt(child="A", parents=("X", "C"), rows=(1.0, 0.0) * 4)),
        (_v("B"), TableCpt(child="B", parents=("A",), rows=(1.0, 0.0, 0.0, 1.0))),
        (_v("C"), TableCpt(child="C", parents=("B",), rows=(1.0, 0.0, 0.0, 1.0))),
    )
    assert [p for p in validate(longer) if "cycle" in p] == ["cycle: A -> B -> C"]


def test_import_leaves_networkx_unloaded():
    # networkx is needed only for d_separated and Network.graph
    src = Path(bnexplain.__file__).resolve().parents[1]
    code = "import sys, bnexplain; print('networkx' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_duplicate_variable_reported():
    net = _net(
        (_v("A"), TableCpt(child="A", parents=(), rows=(0.5, 0.5))),
    )
    net = Network(net.variables + (_v("A"),), net.cpts)
    assert any("duplicate variable" in p for p in validate(net))


def test_one_state_variable_reported():
    net = _net((_v("X", states=("only",)), TableCpt(child="X", parents=(), rows=(1.0,))))
    assert any("fewer than 2 states" in p for p in validate(net))


def test_unknown_parent_reported():
    net = _net((_v("X"), TableCpt(child="X", parents=("Ghost",), rows=(0.5, 0.5))))
    assert any("unknown parent" in p for p in validate(net))


def test_noisy_or_needs_binary_child():
    net = _net((
        _v("X", states=("a", "b", "c")),
        NoisyOrCpt(child="X", parents=(), effect_state="a", triggers=()),
    ))
    assert any("binary" in p for p in validate(net))


def test_deterministic_exception_must_bind_every_parent():
    net = _net(
        (_v("P"), TableCpt(child="P", parents=(), rows=(0.5, 0.5))),
        (_v("X"), DeterministicCpt(child="X", parents=("P",), default_state="a",
                                   exceptions=((("a", "b"), "b"),))),
    )
    assert any("every parent" in p for p in validate(net))


def test_check_assignment_rejects_unknowns(nets):
    net = nets["asia"]
    with pytest.raises(ValueError, match="unknown variable"):
        check_assignment(net, {"NoSuchVar": "yes"})
    with pytest.raises(ValueError, match="not a state"):
        check_assignment(net, {"Smoking": "maybe"})


def test_unknown_names_raise_value_error(nets):
    net, bad = nets["asia"], {"Nope": "yes"}
    calls = (
        lambda: k_mre(net, bad),
        lambda: query(net, ("Nope",)),
        lambda: prob(net, bad),
        lambda: explanation_tables(net, bad),
        lambda: explanation_tree(net, bad),
        lambda: causal_explanation_tree(net, bad),
        lambda: causal_flow(net, "Nope", ("Dyspnea",), {}, {}),
        lambda: causal_flow(net, "Bronchitis", ("Nope",), {}, {}),
        lambda: mutilate(net, ("Nope",)),
        lambda: d_separated(net, {"Nope"}, {"XRay"}, set()),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unknown variable 'Nope'"):
            call()


# ---------------------------------------------------------------------------
# CPT expansion

def test_expanded_rows_sum_to_one_everywhere(nets):
    for fid, net in nets.items():
        for cpt in net.cpts:
            full = expand_cpt(net, cpt)
            assert full.shape == tuple(net.card(v) for v in cpt.parents + (cpt.child,))
            assert np.all(np.abs(full.sum(axis=-1) - 1.0) <= 1e-9), (fid, cpt.child)


def _expanded_row(net, child, parent_config):
    values = expand_cpt(net, net.cpt(child))
    idx = tuple(net.states(p).index(s) for p, s in zip(net.parents(child), parent_config))
    return tuple(values[idx].tolist())


def test_noisy_or_expansion_values(nets):
    net = nets["circuit"]
    # child states (current, noCurr); parents (OutA, OutC, OutD)
    assert _expanded_row(net, "TotalOutput", ("noCurr", "noCurr", "noCurr"))[0] == 0.0
    assert _expanded_row(net, "TotalOutput", ("current", "noCurr", "noCurr"))[0] == pytest.approx(0.9, abs=1e-12)
    assert _expanded_row(net, "TotalOutput", ("current", "current", "noCurr"))[0] == pytest.approx(0.999, abs=1e-12)
    assert _expanded_row(net, "TotalOutput", ("current", "current", "current"))[0] == pytest.approx(
        1 - 0.1 * 0.01 * 0.005, abs=1e-15)


def test_noisy_or_leak_floor():
    net = _net(
        (_v("P", states=("on", "off")), TableCpt(child="P", parents=(), rows=(0.5, 0.5))),
        (_v("X", states=("yes", "no")),
         NoisyOrCpt(child="X", parents=("P",), effect_state="yes",
                    triggers=(NoisyOrTrigger("P", "on", 0.8),), leak=0.1)),
    )
    assert validate(net) == []
    assert _expanded_row(net, "X", ("off",))[0] == pytest.approx(0.1, abs=1e-15)
    assert _expanded_row(net, "X", ("on",))[0] == pytest.approx(1 - 0.9 * 0.2, abs=1e-15)


def test_noisy_or_expansion_refuses_an_unknown_activating_state():
    # validate refuses this network; lowering it anyway raises, not drops the trigger
    net = _net(
        (_v("P", states=("on", "off")), TableCpt(child="P", parents=(), rows=(0.5, 0.5))),
        (_v("X", states=("yes", "no")),
         NoisyOrCpt(child="X", parents=("P",), effect_state="yes",
                    triggers=(NoisyOrTrigger("P", "sparks", 0.8),))),
    )
    assert validate(net) == ["CPT of X: bad activating state for 'P'"]
    with pytest.raises(ValueError):
        expand_cpt(net, net.cpt("X"))


def test_deterministic_expansion_point_mass(nets):
    net = nets["asia"]
    assert _expanded_row(net, "TbOrCa", ("yes", "no")) == (1.0, 0.0)
    assert _expanded_row(net, "TbOrCa", ("no", "yes")) == (1.0, 0.0)
    assert _expanded_row(net, "TbOrCa", ("no", "no")) == (0.0, 1.0)
    net2 = nets["circuit2"]
    assert _expanded_row(net2, "E", ("low", "low", "ok")) == (1.0, 0.0)
    assert _expanded_row(net2, "E", ("high", "low", "ok")) == (0.0, 1.0)
    assert _expanded_row(net2, "E", ("high", "high", "abnormal")) == (1.0, 0.0)


def _gate_net(data, kind):
    """A valid network: root parents (cardinality 2-4) feeding one child
    with a random noisy-OR or deterministic CPT."""
    cards = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=7), label="cards")
    pairs = []
    parents = tuple(f"P{i}" for i in range(len(cards)))
    for p, n in zip(parents, cards):
        pairs.append((_v(p, states=tuple(f"s{j}" for j in range(n))),
                      TableCpt(child=p, parents=(), rows=(1.0 / n,) * n)))
    probability = st.floats(0.0, 1.0)
    if kind == "noisy_or":
        child = _v("C", states=("on", "off"))
        triggers = tuple(
            NoisyOrTrigger(p, f"s{data.draw(st.integers(0, n - 1))}", data.draw(probability))
            for p, n in zip(parents, cards) if data.draw(st.booleans()))
        leak = data.draw(st.one_of(st.just(0.0), probability))
        cpt = NoisyOrCpt(child="C", parents=parents,
                         effect_state=data.draw(st.sampled_from(child.states)),
                         triggers=triggers, leak=leak)
    else:
        child = _v("C", states=tuple(f"c{j}" for j in range(data.draw(st.integers(2, 4)))))
        confs = data.draw(st.lists(
            st.tuples(*(st.sampled_from([f"s{j}" for j in range(n)]) for n in cards)),
            max_size=6, unique=True))
        cpt = DeterministicCpt(child="C", parents=parents,
                               default_state=data.draw(st.sampled_from(child.states)),
                               exceptions=tuple((c, data.draw(st.sampled_from(child.states)))
                                                for c in confs))
    net = _net(*pairs, (child, cpt))
    assert validate(net) == []
    return net


@settings(deadline=None, max_examples=150)
@given(kind=st.sampled_from(["noisy_or", "deterministic"]), data=st.data())
def test_expansion_equals_the_oracle_at_every_entry(kind, data):
    net = _gate_net(data, kind)
    values = expand_cpt(net, net.cpt("C"))
    parents = net.parents("C")
    assert values.shape == tuple(net.card(v) for v in parents + ("C",))
    for conf in itertools.product(*(net.states(p) for p in parents)):
        idx = tuple(net.states(p).index(s) for p, s in zip(parents, conf))
        for j, state in enumerate(net.states("C")):
            assert values[idx + (j,)] == oracle.cpt_prob(net, "C", state, conf), (conf, state)


# ---------------------------------------------------------------------------
# serialization

def test_round_trip_identity(nets):
    for fid, net in nets.items():
        text = serialize_network(net)
        back = parse_network(text)
        assert back.variables == net.variables, fid
        assert serialize_network(back) == text, fid
        for cpt in net.cpts:
            assert np.array_equal(expand_cpt(back, back.cpt(cpt.child)),
                                  expand_cpt(net, cpt)), (fid, cpt.child)


def test_round_trip_preserves_cpt_kinds(nets):
    net = parse_network(serialize_network(nets["asia"]))
    assert net.cpt("TbOrCa").kind == "deterministic"
    assert net.cpt("Smoking").kind == "table"
    net = parse_network(serialize_network(nets["circuit"]))
    assert net.cpt("TotalOutput").kind == "noisy_or"


def test_parse_rejects_bad_documents():
    with pytest.raises(ValueError):
        parse_network("not json at all {")
    with pytest.raises(ValueError):
        parse_network(json.dumps({"variables": [], "cpts": []}))
    with pytest.raises(ValueError, match="missing field"):
        parse_network(json.dumps({"variables": [{"name": "X"}], "cpts": []}))
    doc = {
        "variables": [{"name": "X", "states": ["a", "b"], "role": "target"}],
        "cpts": [{"child": "X", "parents": [], "kind": "mystery"}],
    }
    with pytest.raises(ValueError, match="kind"):
        parse_network(json.dumps(doc))
    doc["cpts"] = [{"child": "X", "parents": [], "kind": "table", "rows": [0.7, 0.7]}]
    with pytest.raises(ValueError, match="sum"):
        parse_network(json.dumps(doc))


def _on(fid, i, edit):
    """A mutation that swaps in another fixture's document and edits its
    CPT i, of a kind vacation1 lacks: circuit's noisy-OR TotalOutput (9) or
    asia's deterministic TbOrCa (5)."""
    def mutate(doc):
        doc.update(json.loads(serialize_network(bench.fixture(fid))))
        edit(doc["cpts"][i])
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(variables=5), "variables must be an array"),
    (lambda d: d.update(cpts=5), "cpts must be an array"),
    (lambda d: d["variables"][0].update(states=[[1], [2]]), r"states must be an array of strings"),
    (lambda d: d["variables"][0].update(states="ad"), r"states must be an array of strings"),
    (lambda d: d["variables"][0].update(name=[1]), r"name must be a string"),
    (lambda d: d["cpts"][0].update(child=[1]), r"child must be a string"),
    (lambda d: d["cpts"][1].update(parents="Healthy"), r"parents must be an array of strings"),
    (lambda d: d["variables"].__setitem__(0, "Healthy"), "variables[0] must be an object"),
    (lambda d: d["cpts"].__setitem__(2, ["Alive"]), "cpts[2] must be an object"),
    (lambda d: d["cpts"][0].update(rows=["0.8", "0.2"]),
     "cpts[0].rows must be an array of numbers"),
    (lambda d: d["cpts"][0].update(rows=[True, False]),
     "cpts[0].rows must be an array of numbers"),
    (lambda d: d["cpts"][0].update(rows=[0.8, None]),
     "cpts[0].rows must be an array of numbers"),
    (_on("circuit", 9, lambda c: c["triggers"][1].update(p="0.9")),
     "cpts[9].triggers[1].p must be a number"),
    (_on("circuit", 9, lambda c: c["triggers"][0].update(p=True)),
     "cpts[9].triggers[0].p must be a number"),
    (_on("circuit", 9, lambda c: c.update(leak="0")),
     "cpts[9].leak must be a number"),
    (_on("circuit", 9, lambda c: c.update(leak=False)),
     "cpts[9].leak must be a number"),
    (_on("circuit", 9, lambda c: c["triggers"].__setitem__(2, "OutC")),
     "cpts[9].triggers[2] must be an object"),
    (_on("asia", 5, lambda c: c["exceptions"].__setitem__(0, "no")),
     "cpts[5].exceptions[0] must be an object"),
    (_on("asia", 5, lambda c: c["exceptions"][0].update(when=["no", "no"])),
     "cpts[5].exceptions[0].when must be an object"),
    (_on("circuit", 9, lambda c: c["triggers"][0].update(parent=["OutA"])),
     "cpts[9].triggers[0].parent must be a string"),
    (_on("circuit", 9, lambda c: c["triggers"][0].update(activating_state=1)),
     "cpts[9].triggers[0].activating_state must be a string"),
    (_on("asia", 5, lambda c: c["exceptions"][0]["when"].update(LungCancer=False)),
     "cpts[5].exceptions[0].when.LungCancer must be a string"),
    (_on("asia", 5, lambda c: c["exceptions"][0].update(then=None)),
     "cpts[5].exceptions[0].then must be a string"),
])
def test_parse_rejects_mistyped_fields(nets, mutate, message):
    doc = json.loads(serialize_network(nets["vacation1"]))
    mutate(doc)
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_network(json.dumps(doc))


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["variables"][0].update(states=["healthy", "healthy"]),
     "Healthy: duplicate state names"),
    (lambda d: d["cpts"].append(dict(d["cpts"][0])), "multiple CPTs for one variable"),
    (lambda d: d["cpts"][1].update(parents=["Healthy", "Healthy"]),
     "CPT of Location: bad parent list"),
    (_on("circuit", 9, lambda c: c.update(effect_state="sparks")),
     "CPT of TotalOutput: effect state 'sparks' unknown"),
    (_on("circuit", 9, lambda c: c.update(leak=1.5)),
     "CPT of TotalOutput: leak 1.5 outside [0,1]"),
    (_on("circuit", 9, lambda c: c["triggers"][0].update(parent="Input")),
     "CPT of TotalOutput: trigger on non-parent 'Input'"),
    (_on("circuit", 9, lambda c: c["triggers"][1].update(parent="OutA")),
     "CPT of TotalOutput: two triggers on 'OutA'"),
    (_on("circuit", 9, lambda c: c["triggers"][0].update(activating_state="sparks")),
     "CPT of TotalOutput: bad activating state for 'OutA'"),
    (_on("circuit", 9, lambda c: c["triggers"][2].update(p=-0.1)),
     "CPT of TotalOutput: trigger p -0.1 outside [0,1]"),
    (_on("asia", 5, lambda c: c.update(default_state="maybe")),
     "CPT of TbOrCa: default state 'maybe' unknown"),
    (_on("asia", 5, lambda c: c["exceptions"][0]["when"].update(LungCancer="maybe")),
     "CPT of TbOrCa: exception state 'maybe' not a state of 'LungCancer'"),
    (_on("asia", 5, lambda c: c["exceptions"][0].update(then="maybe")),
     "CPT of TbOrCa: exception child state 'maybe' unknown"),
    (_on("asia", 5, lambda c: c["exceptions"].append(dict(c["exceptions"][0]))),
     "CPT of TbOrCa: parent configuration ('no', 'no') covered twice"),
])
def test_parse_refuses_invalid_networks(nets, mutate, message):
    # each document is well typed, so validate's message is the one raised
    doc = json.loads(serialize_network(nets["vacation1"]))
    mutate(doc)
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_network(json.dumps(doc))


def test_parse_accepts_json_integers(nets):
    doc = json.loads(serialize_network(nets["circuit"]))
    doc["cpts"][0]["rows"] = [1, 0]
    doc["cpts"][9]["leak"] = 0
    doc["cpts"][9]["triggers"][0]["p"] = 1
    net = parse_network(json.dumps(doc))
    assert net.cpt("Input").rows == (1.0, 0.0)
    assert all(type(x) is float for x in net.cpt("Input").rows)
    total = net.cpt("TotalOutput")
    assert (total.leak, total.triggers[0].p) == (0.0, 1.0)
    assert type(total.leak) is float and type(total.triggers[0].p) is float


def test_parse_rejects_json_too_deep_and_numbers_too_large():
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_network("[" * 100_000)
    doc = {
        "variables": [{"name": "X", "states": ["a", "b"]}],
        "cpts": [{"child": "X", "parents": [], "kind": "table", "rows": [10 ** 400, 0]}],
    }
    with pytest.raises(ValueError, match="cpts"):
        parse_network(json.dumps(doc))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_parse_raises_only_value_error_on_mutated_fixtures(data):
    doc = json.loads(serialize_network(bench.fixture(data.draw(st.sampled_from(bench.FIXTURE_IDS)))))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(_JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON)
    try:
        parse_network(json.dumps(doc))
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# d-separation

def test_d_separation_examples(nets):
    asia = nets["asia"]
    assert d_separated(asia, {"Bronchitis"}, {"XRay"}, {"Smoking", "TbOrCa"})
    assert not d_separated(asia, {"Tuberculosis"}, {"LungCancer"}, {"TbOrCa"})
    circuit = nets["circuit"]
    assert d_separated(circuit, {"A"}, {"B"}, set())
    assert not d_separated(circuit, {"A"}, {"B"}, {"TotalOutput"})
    with pytest.raises(ValueError, match="unknown variable"):
        d_separated(asia, {"NoSuch"}, {"XRay"}, set())


def test_d_separation_implies_numerical_independence(nets):
    # for every separated pair (given singleton or empty z), the conditional
    # joint must factor into the product of its marginals
    for fid, net in nets.items():
        names = net.names()
        for a, b in itertools.combinations(names, 2):
            if net.card(a) * net.card(b) > 32:
                continue
            for z in [None] + [c for c in names if c not in (a, b)]:
                zset = {z} if z else set()
                if not d_separated(net, {a}, {b}, zset):
                    continue
                for zs in (net.states(z) if z else (None,)):
                    cond = {z: zs} if z else {}
                    f = query(net, (a, b), cond)
                    total = f.values.sum()
                    if total <= 0.0:
                        continue
                    pab = f.values / total
                    pa = pab.sum(axis=1, keepdims=True)
                    pb = pab.sum(axis=0, keepdims=True)
                    gap = abs(pab - pa * pb).max()
                    assert gap <= 1e-9, (fid, a, b, z, gap)
