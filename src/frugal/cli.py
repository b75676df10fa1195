"""Command-line front end.

Subcommands: vc-auction, flow-auction, cut-auction, nu, double-cut,
verify, frugality. All output is JSON on stdout with sorted keys, so
identical inputs (and seeds) produce byte-identical output. Exit status:
0 success, 1 domain or input error, 2 scale error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from .cut import (auction_on_double_cut, cm_run, min_double_cut,
                  select_double_cut)
from .eigen import VcInstance, build_vc_instance, ev_run
from .errors import FrugalError, InputError, ScaleError
from .flow import fm_run, nu_flow_fast
from .graph import graph_from_json
from .oracle import (check_truthfulness, measure_frugality, random_costs,
                     random_cut_network, random_kplus1_flow,
                     random_undirected_graph)
from .rational import format_rational, parse_rational, rounded_ratio
from .setsystems import CUT, K_FLOW, VERTEX_COVER, SetSystem, nu, tot

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SCALE = 2
EXIT_VERIFY = 3


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _graph_and_costs(graph_path: str, costs_path, flag: str = "bids"):
    """The graph, and its costs from `--<flag>` or else its edges."""
    g, file_costs = graph_from_json(_load_json(graph_path))
    costs = _load_costs(costs_path) if costs_path else file_costs
    if costs is None:
        raise InputError(f"no {flag}: pass --{flag} or put costs on the edges")
    return g, costs


def _load_costs(path: str) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path} must map agent ids to rationals")
    return {str(k): parse_rational(v) for k, v in data.items()}


def _approx(x: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(f"{x:.12g}")


def _ratio_json(x: float) -> float | None:
    """A ratio for output: null where it has no finite value."""
    return None if x == float("inf") else _approx(x)


def _payments_json(payments: dict) -> dict:
    return {a: _approx(p) for a, p in sorted(payments.items())}


def _cuts_json(result) -> list | None:
    return [sorted(side) for side in result.cuts] if result.cuts else None


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True, indent=2, allow_nan=False))


def _load_system(path: str) -> SetSystem:
    data = _load_json(path)
    if not isinstance(data, dict) or "kind" not in data or "graph" not in data:
        raise InputError("system file needs 'kind' and 'graph' keys")
    g, _ = graph_from_json(data["graph"])
    k = int(data.get("k", 0)) if data["kind"] == K_FLOW else None
    return SetSystem(data["kind"], g, k=k)


def _vc_setup(g) -> tuple[SetSystem, dict, VcInstance]:
    """g's monopoly-free vertex-cover system, Tot map and instance."""
    sys_ = SetSystem(VERTEX_COVER, g)
    sys_.check_monopoly_free()
    tot_map = {v: tot(sys_, v) for v in g.vertices}
    return sys_, tot_map, build_vc_instance(g, tot_map)


def cmd_nu(args) -> int:
    result = nu(_load_system(args.system), _load_costs(args.costs))
    _emit({
        "nu": format_rational(result.value),
        "bids": {a: format_rational(b) for a, b in sorted(result.bids.items())},
        "winning_set": sorted(result.winning_set),
    })
    return EXIT_OK


def cmd_vc_auction(args) -> int:
    g, _ = graph_from_json(_load_json(args.graph))
    bids = _load_costs(args.bids)
    if args.tot == "auto":
        _, tot_map, inst = _vc_setup(g)
    else:
        tot_map = _load_costs(args.tot)
        inst = build_vc_instance(g, tot_map)
    outcome = ev_run(inst, bids)
    _emit({
        "approx": True,
        "lambda": [_approx(c.eigenvalue) for c in inst.components],
        "winners": sorted(outcome.winners),
        "payments": _payments_json(outcome.payments),
        "total_payment": _approx(outcome.total_payment),
        "tot": {v: format_rational(t) for v, t in sorted(tot_map.items())},
    })
    return EXIT_OK


def cmd_flow_auction(args) -> int:
    g, bids = _graph_and_costs(args.graph, args.bids)
    outcome = fm_run(g, bids, args.k)
    h = g.subgraph_edges(outcome.diagnostics["pruned_support"])
    nu_h = nu_flow_fast(h, bids, args.k)
    data = {
        "approx": True,
        "pruned_edges": sorted(e.id for e in h.edges),
        "winners": sorted(outcome.winners),
        "payments": _payments_json(outcome.payments),
        "total_payment": _approx(outcome.total_payment),
        "nu_H": format_rational(nu_h),
    }
    try:
        nu_g = nu(SetSystem(K_FLOW, g, k=args.k), bids).value
        data["nu_G"] = format_rational(nu_g)
    except ScaleError:
        nu_g = None
    bound = nu_g if (nu_g is not None and nu_g > 0) else nu_h
    if bound > 0:
        data["ratio"] = _ratio_json(rounded_ratio(outcome.total_payment,
                                                  bound))
    _emit(data)
    return EXIT_OK


def cmd_cut_auction(args) -> int:
    g, bids = _graph_and_costs(args.graph, args.bids)
    core, result = select_double_cut(g, bids)
    outcome = auction_on_double_cut(g, bids, core, result)
    _emit({
        "approx": True,
        "double_cut": sorted(result.double_cut),
        "cuts": _cuts_json(result),
        "method": result.method,
        "winners": sorted(outcome.winners),
        "payments": _payments_json(outcome.payments),
        "total_payment": _approx(outcome.total_payment),
    })
    return EXIT_OK


def cmd_double_cut(args) -> int:
    g, costs = _graph_and_costs(args.graph, args.costs, "costs")
    result = min_double_cut(g, costs)
    data = {
        "double_cut": sorted(result.double_cut),
        "cost": format_rational(result.cost),
        "dual_objective": format_rational(result.dual_objective),
        "method": result.method,
        "cuts": _cuts_json(result),
    }
    if result.flow_value is not None:
        data["flow_value"] = format_rational(result.flow_value)
        data["relief_total"] = format_rational(result.relief_total)
    _emit(data)
    return EXIT_OK


class _Draw(NamedTuple):
    """A random instance: mechanism, agents (whom `verify` probes and
    `frugality` draws costs over), Nash bound; for vc, instance and
    Tot."""
    mechanism: Callable
    agents: Sequence[str]
    nu: Callable
    inst: Optional[VcInstance] = None
    tot: Optional[dict] = None


def _draw(suite: str, rng: random.Random) -> _Draw:
    while suite == "vc":
        g = random_undirected_graph(rng, rng.randint(3, 6))
        if not g.edges:
            continue
        try:
            sys_, tot_map, inst = _vc_setup(g)
        except FrugalError:
            continue
        return _Draw(lambda b: ev_run(inst, b), g.vertices,
                     lambda c: nu(sys_, c).value, inst, tot_map)
    if suite == "flow":
        k = rng.randint(1, 2)
        g = random_kplus1_flow(rng, k)
        mechanism, nu_fn = (lambda b: fm_run(g, b, k),
                            lambda c: nu_flow_fast(g, c, k))
    else:
        g = random_cut_network(rng, rng.randint(4, 6), rng.randint(5, 9))
        mechanism, nu_fn = (lambda b: cm_run(g, b),
                            lambda c: nu(SetSystem(CUT, g), c).value)
    agents = [e.id for e in g.edges]
    return _Draw(mechanism, agents, nu_fn)


def _run_suite(suite: str, rng: random.Random, trials: int,
               run: Callable[[_Draw], object]) -> list:
    """[(draw, run(draw))] for `trials` draws. Only a cut draw whose run
    raises FrugalError is redrawn; in vc and flow the error propagates."""
    results = []
    while len(results) < trials:
        draw = _draw(suite, rng)
        try:
            results.append((draw, run(draw)))
        except FrugalError:
            if suite != "cut":
                raise
    return results


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    suites = ["vc", "flow", "cut"] if args.suite == "all" else [args.suite]
    report = {"seed": args.seed, "suites": {}}
    for suite in suites:
        results = _run_suite(suite, rng, args.trials, lambda d: (
            check_truthfulness(d.mechanism, d.agents, rng, trials=5)))
        violations = [list(map(str, v))
                      for _, probe in results for v in probe.violations]
        report["suites"][suite] = {"instances": len(results),
                                   "violations": violations}
    report["ok"] = not any(s["violations"] for s in report["suites"].values())
    _emit(report)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def cmd_frugality(args) -> int:
    rng = random.Random(args.seed)

    def run(draw):
        vectors = [random_costs(rng, draw.agents) for _ in range(5)]
        outcomes = []

        def mechanism(costs):
            outcomes.append(draw.mechanism(costs))
            return outcomes[-1]
        ratio = measure_frugality(mechanism, draw.nu, vectors)
        return ratio, vectors, outcomes

    results = _run_suite(args.suite, rng, args.trials, run)
    worst = max([0.0, *(ratio for _, (ratio, _, _) in results)])
    # A payment on a vector whose Nash bound is 0 has no finite ratio.
    report = {"seed": args.seed, "suite": args.suite,
              "worst_ratio": _ratio_json(worst)}
    if args.suite == "vc":
        # The guaranteed payment bound is lambda * sum(c_v tot_v);
        # the ratio against nu can exceed lambda on rare instances.
        ok = True
        for draw, (_, vectors, outcomes) in results:
            # measure_frugality stops at the first infinite ratio.
            outcomes += map(draw.mechanism, vectors[len(outcomes):])
            for c, outcome in zip(vectors, outcomes):
                cap_val = draw.inst.max_eigenvalue * float(
                    sum(x * draw.tot[v] for v, x in c.items()))
                ok = ok and not outcome.total_payment > cap_val + 1e-6
        report["lambda_bound"] = _approx(
            max([0.0, *(d.inst.max_eigenvalue for d, _ in results)]))
        report["certified_bound"] = "lambda * sum(c_v * tot_v)"
    elif args.suite == "flow":
        report["bound"] = "2(k+1)"
        ok = worst != float("inf")
    else:
        report["bound"] = 4.0
        ok = worst <= 4.0 + 1e-6
    report["ok"] = ok
    _emit(report)
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frugal",
        description="Truthful frugal auctions for covers, flows, and cuts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nu", help="buyer-pessimal Nash bound of a set system")
    p.add_argument("--system", required=True)
    p.add_argument("--costs", required=True)
    p.set_defaults(func=cmd_nu)

    p = sub.add_parser("vc-auction", help="eigenvector vertex cover auction")
    p.add_argument("--graph", required=True,
                   help="undirected conflict graph JSON")
    p.add_argument("--bids", required=True)
    p.add_argument("--tot", default="auto",
                   help="'auto' or a JSON file mapping agents to Tot values")
    p.set_defaults(func=cmd_vc_auction)

    p = sub.add_parser("flow-auction", help="k edge-disjoint paths auction")
    p.add_argument("--graph", required=True)
    p.add_argument("--bids")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=cmd_flow_auction)

    p = sub.add_parser("cut-auction", help="s-t cut auction")
    p.add_argument("--graph", required=True)
    p.add_argument("--bids")
    p.set_defaults(func=cmd_cut_auction)

    p = sub.add_parser("double-cut", help="minimum-cost double cut only")
    p.add_argument("--graph", required=True)
    p.add_argument("--costs")
    p.set_defaults(func=cmd_double_cut)

    p = sub.add_parser("verify", help="seeded truthfulness verification")
    p.add_argument("--suite", choices=["vc", "flow", "cut", "all"],
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("frugality", help="measure payment / Nash-bound ratios")
    p.add_argument("--suite", choices=["vc", "flow", "cut"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_frugality)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScaleError as exc:
        print(f"scale error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except FrugalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
