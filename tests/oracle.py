"""Slow dict-based reference implementations for cross-checking the engine.

Deliberately independent of the factor machinery: no numpy, no variable
elimination, just explicit enumeration of full configurations. Each CPT kind
is evaluated directly from its own parameters rather than through expand_cpt.
``minimal_set`` is the plain O(n * alive) scan that ``kmre.minimal_set``
replaced, kept as the reference for its sub-assignment lookup.
``minfill_order`` recounts every fill count at every step pair by pair; it
is the reference for ``infer._minfill_order``, which recounts too but by set
differences, once per query shape (``infer._plan``).
``do_joint``, ``causal_flow`` and ``causal_explanation_tree`` take every
intervention by truncated factorisation, never through ``infer.mutilate``.
``explanation_tree`` and ``k_simp`` follow the documented rules of
``baselines.explanation_tree`` and ``baselines.k_simp`` on the enumerated joint.
"""

import functools
import itertools
import math

from bnexplain.baselines import ZERO_FLOW
from bnexplain.kmre import REL_TOL, DominanceVerdict


def cpt_prob(network, name, child_state, parent_states):
    """P(child = child_state | parents = parent_states) straight off the CPT."""
    cpt = network.cpt(name)
    if cpt.kind == "table":
        idx = 0
        for p, s in zip(cpt.parents, parent_states):
            p_states = network.states(p)
            idx = idx * len(p_states) + p_states.index(s)
        states = network.states(name)
        return cpt.rows[idx * len(states) + states.index(child_state)]
    if cpt.kind == "noisy_or":
        q = 1.0 - cpt.leak
        by_parent = {t.parent: t for t in cpt.triggers}
        for p, s in zip(cpt.parents, parent_states):
            t = by_parent.get(p)
            if t is not None and s == t.activating_state:
                q *= 1.0 - t.p
        return 1.0 - q if child_state == cpt.effect_state else q
    # deterministic
    chosen = cpt.default_state
    for config, out in cpt.exceptions:
        if tuple(config) == tuple(parent_states):
            chosen = out
            break
    return 1.0 if child_state == chosen else 0.0


def joint(network):
    """Full joint as {configuration tuple: probability} over declared order."""
    names = network.names()
    parents = {n: network.cpt(n).parents for n in names}
    table = {}
    for config in itertools.product(*(network.states(n) for n in names)):
        at = dict(zip(names, config))
        p = 1.0
        for n in names:
            p *= cpt_prob(network, n, at[n], tuple(at[q] for q in parents[n]))
        table[config] = p
    return table


def mass(network, joint_table, assignment):
    """Total probability of all configurations consistent with assignment."""
    names = network.names()
    idx = {n: i for i, n in enumerate(names)}
    picks = [(idx[v], s) for v, s in assignment.items()]
    total = 0.0
    for config, p in joint_table.items():
        if all(config[i] == s for i, s in picks):
            total += p
    return total


def prob(network, joint_table, assignment, evidence=None):
    """P(assignment | evidence) by direct summation."""
    if not evidence:
        return mass(network, joint_table, assignment)
    pe = mass(network, joint_table, evidence)
    return mass(network, joint_table, {**assignment, **evidence}) / pe


def gbf(network, joint_table, x, e, given=None):
    """Posterior/prior odds ratio with the extreme-value conventions; `given`
    joins both conditioning sides."""
    given = given or {}
    prior = prob(network, joint_table, x, given)
    posterior = prob(network, joint_table, x, {**given, **e})
    if prior <= 0.0 or prior >= 1.0:
        return 0.0
    if posterior >= 1.0:
        return math.inf
    return posterior * (1.0 - prior) / (prior * (1.0 - posterior))


def mutual_information(network, joint_table, x, y, context=None):
    """I(x ; y | context) in nats by enumeration."""
    context = context or {}
    pc = mass(network, joint_table, context)
    total = 0.0
    for sx in network.states(x):
        for sy in network.states(y):
            pxy = mass(network, joint_table, {**context, x: sx, y: sy}) / pc
            px = mass(network, joint_table, {**context, x: sx}) / pc
            py = mass(network, joint_table, {**context, y: sy}) / pc
            if pxy > 0.0:
                total += pxy * math.log(pxy / (px * py))
    return max(total, 0.0)


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def minimal_set(rows):
    """Filter rows to the minimal (undominated) set; input order is preserved.

    Also returns a witness for every excluded row, keyed by its bindings.
    """
    by_size = {}
    for r in rows:
        by_size.setdefault(len(r.bindings), []).append(r)

    alive = []
    witness = {}
    for size in sorted(by_size):
        level_kept = []
        for r in sorted(by_size[size], key=lambda r: r.order):
            rb = set(r.bindings)
            killer = None
            for k in alive:
                if set(k.bindings) < rb and (k.value > r.value or _close(k.value, r.value)):
                    killer = k
                    break
            if killer is not None:
                witness[r.bindings] = DominanceVerdict(
                    "strong", killer.bindings, r.bindings, killer.value, r.value)
            else:
                level_kept.append(r)
        evicted = set()
        for r in level_kept:
            rb = set(r.bindings)
            for k in alive:
                if (k.bindings not in evicted and set(k.bindings) < rb
                        and r.value > k.value and not _close(r.value, k.value)):
                    witness[k.bindings] = DominanceVerdict(
                        "weak", r.bindings, k.bindings, r.value, k.value)
                    evicted.add(k.bindings)
        alive = [k for k in alive if k.bindings not in evicted] + level_kept

    keep = {r.bindings for r in alive}
    return [r for r in rows if r.bindings in keep], witness


def minfill_order(scopes, keep):
    """Elimination order by min-fill, lexicographic tie-break, recounting
    every remaining variable's fill-in at every step."""
    adj = {}
    for sc in scopes:
        for v in sc:
            adj.setdefault(v, set()).update(u for u in sc if u != v)
    todo = set(adj) - set(keep)
    order = []
    while todo:
        def fill(v):
            ns = list(adj[v])
            return sum(1 for i in range(len(ns)) for j in range(i + 1, len(ns))
                       if ns[j] not in adj[ns[i]])
        v = min(todo, key=lambda u: (fill(u), u))
        ns = adj.pop(v)
        for u in ns:
            adj[u].discard(v)
        for u in ns:
            for w in ns:
                if u != w:
                    adj[u].add(w)
        todo.remove(v)
        order.append(v)
    return order


def do_joint(network, var, state):
    """Joint after do(var = state) as {configuration: probability}, by
    truncated factorisation: every CPT but var's, with var fixed at state."""
    names = network.names()
    parents = {n: network.cpt(n).parents for n in names}
    table = {}
    for config in itertools.product(*(network.states(n) for n in names)):
        at = dict(zip(names, config))
        p = 0.0
        if at[var] == state:
            p = 1.0
            for n in names:
                if n != var:
                    p *= cpt_prob(network, n, at[n], tuple(at[q] for q in parents[n]))
        table[config] = p
    return table


def causal_flow(network, joint_table, do_joints, var, evidence, branch):
    """CET's causal flow from var to the evidence variables at a branch.

    Each state s of var weighs P(var = s | branch, e). Its outcome
    distribution is P(E | branch) under do(var = s), read from
    do_joints[(var, s)] (`do_joint`). The flow is the weighted symmetrized
    KL divergence of each outcome distribution against the weighted mixture,
    on that distribution's support; a flow below ZERO_FLOW is 0.
    """
    flow = _divergence(network, joint_table, do_joints, var, evidence, branch)
    return flow if flow >= ZERO_FLOW else 0.0


def _divergence(network, joint_table, do_joints, var, evidence, branch):
    """`causal_flow` before flows below ZERO_FLOW are set to 0."""
    evidence_vars = sorted(evidence)
    context = {**branch, **evidence}
    pc = mass(network, joint_table, context)
    if pc == 0.0:
        return 0.0
    cells = list(itertools.product(*(network.states(v) for v in evidence_vars)))
    weights, dists = {}, {}
    for s in network.states(var):
        w = mass(network, joint_table, {**context, var: s}) / pc
        if w == 0.0:
            continue
        d = [mass(network, do_joints[var, s], {**branch, **dict(zip(evidence_vars, c))})
             for c in cells]
        z = sum(d)
        if z == 0.0:
            continue
        weights[s] = w
        dists[s] = [x / z for x in d]
    mix = [sum(weights[s] * d[i] for s, d in dists.items()) for i in range(len(cells))]
    flow = 0.0
    for s, d in dists.items():
        flow += weights[s] * sum((p - q) * math.log(p / q) for p, q in zip(d, mix) if p > 0.0)
    return max(0.0, flow)


class RoundOffTie(Exception):
    """A tree or K-SIMP choice that round-off could turn either way."""


def _floored(value, close, what):
    """value, or 0 below ZERO_FLOW. Raises RoundOffTie when close(a, b)
    calls value and ZERO_FLOW equal, as round-off then picks the side."""
    if close(value / ZERO_FLOW, 1.0):
        raise RoundOffTie(f"{what} {value!r} meets ZERO_FLOW")
    return value if value >= ZERO_FLOW else 0.0


def causal_explanation_tree(network, joint_table, evidence, threshold, close):
    """CET by enumeration, in the dict form of `baselines.tree_doc`.

    The node at a branch installs the unused target of highest causal flow
    (ties by name, so two flows of exactly 0 go by name). The root is always
    installed; a deeper branch is a leaf when P(branch, e) = 0 or its best
    flow is below threshold. Labels are ln P(e | branch) - ln P(e), -inf for
    an impossible branch. Raises RoundOffTie when a choice that shapes the
    tree compares two values that close(a, b) calls equal: the top two flows
    of an installed node unless both are 0, the best flow and a positive
    threshold, or any flow and ZERO_FLOW (as close(flow / ZERO_FLOW, 1)).
    """
    targets = [t for t in network.targets if t not in evidence]
    do_joints = {(v, s): do_joint(network, v, s) for v in targets for s in network.states(v)}
    pe = mass(network, joint_table, evidence)

    def label(branch):
        pbe = mass(network, joint_table, {**branch, **evidence})
        if pbe == 0.0:
            return -math.inf
        return math.log(pbe / mass(network, joint_table, branch) / pe)

    def grow(unused, branch):
        if not unused:
            return None
        root = not branch
        if not root and mass(network, joint_table, {**branch, **evidence}) == 0.0:
            return None
        crit = {v: _floored(_divergence(network, joint_table, do_joints, v, evidence, branch),
                            close, f"flow of {v} at {branch}")
                for v in unused}
        ranked = sorted(unused, key=lambda v: (-crit[v], v))
        best = ranked[0]
        if not root:
            # a flow is never below 0, so a threshold of at most 0 cannot flip
            if threshold > 0.0 and close(crit[best], threshold):
                raise RoundOffTie(f"flow {crit[best]!r} of {best} at {branch} "
                                  f"meets the threshold {threshold}")
            if crit[best] < threshold:
                return None
        if len(ranked) > 1 and crit[best] > 0.0 and close(crit[best], crit[ranked[1]]):
            raise RoundOffTie(f"flows of {best} and {ranked[1]} at {branch}: "
                              f"{crit[best]!r} and {crit[ranked[1]]!r}")
        rest = [u for u in unused if u != best]
        return {"variable": best, "criterion": crit[best], "branches": [
            {"state": s, "label": label({**branch, best: s}),
             "child": grow(rest, {**branch, best: s})}
            for s in network.states(best)]}

    return grow(targets, {})


def _evidence_information(network, joint_table, var, evidence_vars, branch):
    """I(var ; E | branch) in nats, the evidence variables E taken as one."""
    pb = mass(network, joint_table, branch)
    total = 0.0
    for cell in itertools.product(*(network.states(v) for v in evidence_vars)):
        at = {**branch, **dict(zip(evidence_vars, cell))}
        pc = mass(network, joint_table, at) / pb
        for s in network.states(var):
            pj = mass(network, joint_table, {**at, var: s}) / pb
            pv = mass(network, joint_table, {**branch, var: s}) / pb
            if pj > 0.0:
                total += pj * math.log(pj / (pc * pv))
    return max(total, 0.0)


def _entropy(network, joint_table, var, context):
    pc = mass(network, joint_table, context)
    ps = [mass(network, joint_table, {**context, var: s}) / pc for s in network.states(var)]
    return -sum(p * math.log(p) for p in ps if p > 0.0)


def explanation_tree(network, joint_table, evidence, mi_threshold, branch_floor, close):
    """ET by enumeration, in the dict form of `baselines.tree_doc`.

    The node at a branch installs the unused target of highest criterion:
    the largest I(v ; u | branch, e) over the other unused targets u, or,
    for the last one, I(v ; E | branch) with the evidence variables E taken
    as one. An information below ZERO_FLOW is 0. Ties go to the higher
    entropy of P(v | branch, e), then to the smaller name. The root is
    always installed; a deeper branch is a leaf when P(branch | e) <=
    branch_floor or its criterion is below mi_threshold. Labels are
    P(branch | e).

    Both members of a pair share its information, so the top two criteria
    are often one number; the engine computes each pair once, so such a tie
    is exact there too and goes to entropy, as does a tie at 0. Raises
    RoundOffTie when a choice that shapes the tree compares two values that
    close(a, b) calls equal and that the engine need not hold as one float:
    the best criterion and another that is not its pair's or 0, two
    entropies of a tie that is exact, an information and ZERO_FLOW, or the
    mass or criterion of a deeper branch and a positive floor or threshold.
    """
    targets = [t for t in network.targets if t not in evidence]
    evidence_vars = sorted(evidence)
    pe = mass(network, joint_table, evidence)

    def label(branch):
        return mass(network, joint_table, {**branch, **evidence}) / pe

    def choose(unused, branch):
        """The best target, its criterion and why round-off could flip it."""
        context = {**branch, **evidence}
        if len(unused) == 1:
            v = unused[0]
            return v, _floored(_evidence_information(network, joint_table, v, evidence_vars,
                                                     branch), close, f"criterion of {v}"), None
        pair = {frozenset(p): _floored(mutual_information(network, joint_table, *p, context),
                                       close, f"information of {p} at {branch}")
                for p in itertools.combinations(unused, 2)}
        crit, top = {}, {}
        for v in unused:
            mine = sorted(((x, p) for p, x in pair.items() if v in p), key=lambda t: t[0])
            crit[v] = mine[-1][0]
            # the pair that gives v's criterion, unless round-off could pick another
            top[v] = mine[-1][1] if len(mine) == 1 or not close(*[x for x, _ in mine[-2:]]) else None
        ent = {v: _entropy(network, joint_table, v, context) for v in unused}
        best = min(unused, key=lambda v: (-crit[v], -ent[v], v))
        for v in unused:
            if v == best:
                continue
            exact = crit[best] == crit[v] == 0.0 or top[best] == top[v] == frozenset((best, v))
            if exact and close(ent[best], ent[v]):
                return best, crit[best], (f"entropies within round-off: {best} and {v} "
                                          f"at {branch}, {ent[best]!r} and {ent[v]!r}")
            if not exact and close(crit[best], crit[v]):
                return best, crit[best], (f"criteria within round-off: {best} and {v} "
                                          f"at {branch}, {crit[best]!r} and {crit[v]!r}")
        return best, crit[best], None

    def grow(unused, branch):
        if not unused:
            return None
        root = not branch
        if not root:
            mass_e = label(branch)
            if branch_floor > 0.0 and close(mass_e, branch_floor):
                raise RoundOffTie(f"mass at the floor: P(branch | e) {mass_e!r} at {branch}")
            if mass_e <= branch_floor:
                return None
        best, crit, tie = choose(unused, branch)
        if not root:
            if mi_threshold > 0.0 and close(crit, mi_threshold):
                raise RoundOffTie(f"criterion at the threshold: {crit!r} of {best} "
                                  f"at {branch}, threshold {mi_threshold}")
            if crit < mi_threshold:
                return None
        if tie is not None:
            raise RoundOffTie(tie)
        rest = [u for u in unused if u != best]
        return {"variable": best, "criterion": crit, "branches": [
            {"state": s, "label": label({**branch, best: s}),
             "child": grow(rest, {**branch, best: s})}
            for s in network.states(best)]}

    return grow(targets, {})


def _larger_first(close, a, b):
    """cmp for sorted: the larger first, 0 when close(a, b)."""
    return 0 if close(a, b) else (-1 if a > b else 1)


# K-SIMP compares a likelihood with its bound at 10 significant digits
# (`baselines._KEY_DECIMALS`); values this close are equal in exact arithmetic
# and apart by round-off only, which those digits do not see.
SAME_TOL = 1e-13


def k_simp(network, joint_table, evidence, k, simplify_factor, close):
    """K-SIMP by enumeration: [(bindings sorted by name, P(e | bindings))].

    The k MAP configurations of the unobserved targets (by P(x, e), ties by
    higher P(x), then enumeration order) with P(x, e) > 0 are each shrunk
    greedily. A variable may go while P(e | rest) >= (1 - simplify_factor)
    P(e | x) for the original x, a likelihood within SAME_TOL of the bound
    counting as equal to it; each step deletes the one leaving the highest
    likelihood, ties the latest declared. Duplicate results keep their first
    occurrence; rows rank by likelihood, then by fewer variables. Values
    that close(a, b) calls equal tie. Raises RoundOffTie when a deletion's
    likelihood is close to the bound but not within SAME_TOL of it, since
    the engine's rounding then decides whether the variable may go.
    """
    targets = [t for t in network.targets if t not in evidence]
    declared = network.names()
    configs = [dict(zip(targets, c))
               for c in itertools.product(*(network.states(t) for t in targets))]
    joints = [mass(network, joint_table, {**x, **evidence}) for x in configs]
    priors = [mass(network, joint_table, x) for x in configs]
    ranked = sorted(range(len(configs)), key=functools.cmp_to_key(
        lambda i, j: _larger_first(close, joints[i], joints[j])
        or _larger_first(close, priors[i], priors[j])))

    def likelihood(x):
        return mass(network, joint_table, {**x, **evidence}) / mass(network, joint_table, x)

    results = {}
    for i in ranked[:k]:
        if joints[i] <= 0.0:
            continue
        cur = configs[i]
        like = likelihood(cur)
        bound = (1.0 - simplify_factor) * like
        while len(cur) > 1:
            trials = {v: likelihood({u: s for u, s in cur.items() if u != v}) for v in cur}
            same = {v: math.isclose(lt, bound, rel_tol=SAME_TOL) for v, lt in trials.items()}
            for v, lt in trials.items():
                if close(lt, bound) and not same[v]:
                    raise RoundOffTie(f"likelihood at the bound: deleting {v} from {cur} "
                                      f"leaves {lt!r}, the bound is {bound!r}")
            allowed = [v for v in cur if trials[v] >= bound or same[v]]
            if not allowed:
                break
            top = max(trials[v] for v in allowed)
            gone = max((v for v in allowed if close(trials[v], top)), key=declared.index)
            cur = {u: s for u, s in cur.items() if u != gone}
            like = trials[gone]
        results.setdefault(tuple(sorted(cur.items())), like)
    rows = sorted(results.items(), key=functools.cmp_to_key(
        lambda a, b: _larger_first(close, a[1], b[1]) or len(a[0]) - len(b[0])))
    return rows[:k]
