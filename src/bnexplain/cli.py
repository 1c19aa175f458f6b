"""Command-line front end: explanation queries, benchmarks, curves.

Exit codes: 0 success, 1 parse/validation error, 2 impossible evidence,
3 benchmark golden-row mismatch. Diagnostics go to stderr, reports to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bench
from .baselines import (
    BaselineParams,
    causal_explanation_tree,
    explanation_tree,
    k_map,
    k_simp,
    render_tree,
    tree_doc,
)
from .infer import ImpossibleEvidenceError
from .kmre import _check_gbf_floor, k_mre
from .model import Network, load_network, serialize_network, validate
from .relevance import curve_csv, gbf_curve, parse_grid
from .search import ScoredExplanation, mre


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; this tool reserves 2 for impossible
    # evidence, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _score_str(x: float) -> str:
    """4 decimals, dropping to 2 once the integer part reaches two digits."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.2f}" if abs(x) >= 10 else f"{x:.4f}"


def _json_safe(doc):
    """doc with every infinite float as the string the text output prints."""
    if isinstance(doc, float) and math.isinf(doc):
        return _score_str(doc)
    if isinstance(doc, dict):
        return {k: _json_safe(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_json_safe(v) for v in doc]
    return doc


def _print_json(doc) -> None:
    """Standard JSON (RFC 8259): no Infinity or NaN tokens."""
    print(json.dumps(_json_safe(doc), indent=2, allow_nan=False))


def _load(args) -> Network:
    if args.fixture:
        return bench.fixture(args.fixture)
    return load_network(args.network)


def _parse_evidence(network: Network, tokens) -> dict[str, str]:
    ev: dict[str, str] = {}
    names = set(network.names())
    for tok in tokens:
        var, sep, state = tok.partition("=")
        if not sep or not var or not state:
            raise ValueError(f"bad evidence token {tok!r}: expected VAR=state")
        if var not in names:
            raise ValueError(f"unknown variable in evidence token {tok!r}")
        if state not in network.states(var):
            choices = ", ".join(network.states(var))
            raise ValueError(
                f"unknown state in evidence token {tok!r}: choices are {choices}")
        if var in ev and ev[var] != state:
            raise ValueError(f"conflicting evidence for {var!r}")
        ev[var] = state
    return ev


def _row_doc(r: ScoredExplanation) -> dict:
    return {
        "explanation": dict(r.bindings),
        "score": r.value,
        "kind": r.kind,
        "prior": r.prior,
        "posterior": r.posterior,
        "strength": r.strength,
    }


def _rows_text(rows: list[ScoredExplanation]) -> str:
    width = max(len(bench._fmt(r.bindings)) for r in rows)
    lines = []
    for i, r in enumerate(rows, 1):
        line = f"{i:>2}  {bench._fmt(r.bindings):<{width}}  {_score_str(r.value):>9}"
        if r.strength is not None:
            line += f"  {r.strength}"
        lines.append(line)
    return "\n".join(lines)


def _cmd_explain(args) -> int:
    _check_gbf_floor(args.gbf_floor)  # for every method, as BaselineParams does
    net = _load(args)
    ev = _parse_evidence(net, args.evidence)
    params = BaselineParams(
        simplify_factor=args.threshold_simplify,
        branch_floor=args.threshold_branch,
        mi_threshold=args.threshold_mi,
        flow_threshold=args.threshold_flow,
        k=args.k,
    )

    if args.method in ("etree", "cetree"):
        build = explanation_tree if args.method == "etree" else causal_explanation_tree
        tree = build(net, ev, params)
        if args.format == "json":
            _print_json({"method": args.method, "evidence": ev, "tree": tree_doc(tree)})
        else:
            print(render_tree(tree), end="")
        return 0

    pruned_doc = []
    if args.method == "mre":
        rows = [mre(net, ev)]
    elif args.method == "kmre":
        res = k_mre(net, ev, k=args.k, gbf_floor=args.gbf_floor)
        rows = res.rows
        if args.verbose:
            cutoff = rows[-1].value
            reported = {r.bindings for r in rows}
            for cand in res.scored:
                if cand.bindings in reported or cand.value < cutoff:
                    continue
                verdict = res.witnesses.get(cand.bindings)
                if verdict is not None:
                    pruned_doc.append(verdict)
    elif args.method == "kmap":
        rows = k_map(net, ev, k=args.k)
    else:
        rows = k_simp(net, ev, params)

    if args.format == "json":
        doc = {"method": args.method, "evidence": ev,
               "rows": [_row_doc(r) for r in rows]}
        if args.verbose and args.method == "kmre":
            doc["pruned"] = [
                {"explanation": dict(v.loser), "score": v.loser_value,
                 "relation": v.relation,
                 "dominated_by": dict(v.winner), "winner_score": v.winner_value}
                for v in pruned_doc
            ]
        _print_json(doc)
    else:
        print(_rows_text(rows))
        if pruned_doc:
            print("pruned near the top:")
            for v in pruned_doc:
                print(f"    {bench._fmt(v.loser)} {_score_str(v.loser_value)}"
                      f"  dominated ({v.relation}) by"
                      f" {bench._fmt(v.winner)} {_score_str(v.winner_value)}")
    return 0


def _cmd_bench(args) -> int:
    ids = args.ids or ["all"]
    if ids == ["all"]:
        ids = list(bench.SCENARIO_IDS)
    reports = [bench.run_scenario(i) for i in ids]
    if args.format == "json":
        _print_json([r.doc() for r in reports])
    else:
        for r in reports:
            print(r.text())
            print()
        n_ok = sum(r.passed for r in reports)
        print(f"{n_ok}/{len(reports)} scenarios pass")
    return 0 if all(r.passed for r in reports) else 3


def _cmd_curve(args) -> int:
    grid = parse_grid(args.grid)
    rows = gbf_curve(grid, fixed_delta=args.fixed_delta, fixed_ratio=args.fixed_ratio)
    text = curve_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def _cmd_validate(args) -> int:
    net = _load(args)
    problems = validate(net)  # parse_network has already refused a bad --network file
    if problems:
        raise ValueError("; ".join(problems))
    print(f"ok: {len(net.variables)} variables, {len(net.cpts)} cpts, "
          f"{len(net.targets)} targets, {len(net.observations)} observations")
    return 0


def _cmd_show(args) -> int:
    net = _load(args)
    if args.format == "json":
        print(serialize_network(net))
        return 0
    lines = [f"network: {len(net.variables)} variables"]
    for v in net.variables:
        role = f"  [{v.role}]" if v.role != "auxiliary" else ""
        lines.append(f"  {v.name}{role}: {', '.join(v.states)}")
    lines.append("cpts:")
    for c in net.cpts:
        parents = ", ".join(c.parents) if c.parents else "-"
        lines.append(f"  {c.child} <- {parents}  ({c.kind})")
    print("\n".join(lines))
    return 0


def _add_source(p: _Parser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fixture", choices=sorted(bench.FIXTURE_IDS),
                   help="embedded benchmark network")
    g.add_argument("--network", help="path to a network JSON file")


def _add_format(p: _Parser) -> None:
    p.add_argument("--format", choices=("table", "json"), default="table")


def build_parser() -> _Parser:
    parser = _Parser(prog="bnexplain",
                     description="explanation mining for discrete Bayesian networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="rank explanations for observed evidence")
    _add_source(p)
    p.add_argument("--evidence", action="append", required=True, metavar="VAR=STATE",
                   help="observed state, repeatable; names are case-sensitive")
    p.add_argument("--method", default="kmre",
                   choices=("mre", "kmre", "kmap", "ksimp", "etree", "cetree"))
    p.add_argument("--k", type=int, default=3, help="rows to report")
    p.add_argument("--gbf-floor", type=float, default=1.0,
                   help="kmre rows beyond the first must score above this GBF "
                        "(-inf: no floor)")
    p.add_argument("--verbose", action="store_true",
                   help="kmre: also list dominated candidates near the top")
    p.add_argument("--threshold-simplify", type=float, default=0.05,
                   help="ksimp likelihood slack factor")
    p.add_argument("--threshold-branch", type=float, default=0.0,
                   help="etree: minimum branch probability")
    p.add_argument("--threshold-mi", type=float, default=0.05,
                   help="etree: minimum selection criterion")
    p.add_argument("--threshold-flow", type=float, default=0.01,
                   help="cetree: minimum causal flow")
    _add_format(p)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("bench", help="recompute the golden benchmark scenarios")
    p.add_argument("ids", nargs="*",
                   help=f"scenario ids or 'all' (known: {', '.join(bench.SCENARIO_IDS)})")
    _add_format(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("curve", help="tabulate GBF against the prior")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fixed-delta", type=float, default=None,
                   help="posterior = prior + delta")
    g.add_argument("--fixed-ratio", type=float, default=None,
                   help="posterior = prior * ratio")
    p.add_argument("--grid", required=True, metavar="START:STOP:STEP",
                   help="prior grid, e.g. 0.01:0.49:0.01")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("validate", help="check a network definition")
    _add_source(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("show", help="pretty-print a network")
    _add_source(p)
    _add_format(p)
    p.set_defaults(func=_cmd_show)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ImpossibleEvidenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
