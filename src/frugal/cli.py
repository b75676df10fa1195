"""Command-line front end.

Subcommands: vc-auction, flow-auction, cut-auction, nu, double-cut,
verify, frugality. All output is JSON on stdout with sorted keys, so
identical inputs (and seeds) produce byte-identical output. Exit
status: 0 success, 1 domain or input error, 2 scale error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .cut import cm_run, min_double_cut, select_double_cut
from .eigen import build_vc_instance, ev_run
from .errors import FrugalError, InputError, ScaleError
from .flow import fm_run, nu_flow_fast
from .graph import graph_from_json
from .oracle import (check_truthfulness, measure_frugality, random_costs,
                     random_cut_network, random_kplus1_flow,
                     random_undirected_graph)
from .rational import format_rational, parse_rational
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


def _load_graph(path: str):
    return graph_from_json(_load_json(path))


def _load_costs(path: str) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path} must map agent ids to rationals")
    return {str(k): parse_rational(v) for k, v in data.items()}


def _approx(x: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(f"{x:.12g}")


def _payments_json(payments: dict) -> dict:
    return {a: _approx(p) for a, p in sorted(payments.items())}


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _load_system(path: str) -> SetSystem:
    data = _load_json(path)
    if not isinstance(data, dict) or "kind" not in data or "graph" not in data:
        raise InputError("system file needs 'kind' and 'graph' keys")
    kind = data["kind"]
    g, _ = graph_from_json(data["graph"])
    if kind == K_FLOW:
        return SetSystem(kind, g, k=int(data.get("k", 0)))
    if kind in (VERTEX_COVER, CUT):
        return SetSystem(kind, g)
    raise InputError(f"unknown system kind {kind!r}")


def cmd_nu(args) -> int:
    sys_ = _load_system(args.system)
    costs = _load_costs(args.costs)
    result = nu(sys_, costs)
    _emit({
        "nu": format_rational(result.value),
        "bids": {a: format_rational(b) for a, b in sorted(result.bids.items())},
        "winning_set": sorted(result.winning_set),
    })
    return EXIT_OK


def cmd_vc_auction(args) -> int:
    g, _ = _load_graph(args.graph)
    bids = _load_costs(args.bids)
    if args.tot == "auto":
        sys_ = SetSystem(VERTEX_COVER, g)
        sys_.check_monopoly_free()
        tot_map = {v: tot(sys_, v) for v in g.vertices}
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
    g, file_costs = _load_graph(args.graph)
    bids = _load_costs(args.bids) if args.bids else file_costs
    if bids is None:
        raise InputError("no bids: pass --bids or put costs on the edges")
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
        data["ratio"] = _approx(outcome.total_payment / float(bound))
    _emit(data)
    return EXIT_OK


def cmd_cut_auction(args) -> int:
    g, file_costs = _load_graph(args.graph)
    bids = _load_costs(args.bids) if args.bids else file_costs
    if bids is None:
        raise InputError("no bids: pass --bids or put costs on the edges")
    _, result = select_double_cut(g, bids)
    outcome = cm_run(g, bids)
    _emit({
        "approx": True,
        "double_cut": sorted(result.double_cut),
        "cuts": ([sorted(result.cuts[0]), sorted(result.cuts[1])]
                 if result.cuts else None),
        "certified": result.certified,
        "method": result.method,
        "winners": sorted(outcome.winners),
        "payments": _payments_json(outcome.payments),
        "total_payment": _approx(outcome.total_payment),
    })
    return EXIT_OK


def cmd_double_cut(args) -> int:
    g, file_costs = _load_graph(args.graph)
    costs = _load_costs(args.costs) if args.costs else file_costs
    if costs is None:
        raise InputError("no costs: pass --costs or put costs on the edges")
    result = min_double_cut(g, costs)
    data = {
        "double_cut": sorted(result.double_cut),
        "cost": format_rational(result.cost),
        "dual_objective": format_rational(result.dual_objective),
        "certified": result.certified,
        "method": result.method,
        "cuts": ([sorted(result.cuts[0]), sorted(result.cuts[1])]
                 if result.cuts else None),
    }
    if result.flow_value is not None:
        data["flow_value"] = format_rational(result.flow_value)
        data["relief_total"] = format_rational(result.relief_total)
    _emit(data)
    return EXIT_OK


def _verify_vc(rng: random.Random, trials: int) -> dict:
    violations = []
    done = 0
    while done < trials:
        g = random_undirected_graph(rng, rng.randint(3, 6))
        if not g.edges:
            continue
        try:
            sys_ = SetSystem(VERTEX_COVER, g)
            sys_.check_monopoly_free()
            tot_map = {v: tot(sys_, v) for v in g.vertices}
            inst = build_vc_instance(g, tot_map)
        except FrugalError:
            continue
        report = check_truthfulness(lambda b: ev_run(inst, b),
                                    inst.agents, rng, trials=5)
        violations.extend(report.violations)
        done += 1
    return {"instances": done, "violations": violations}


def _verify_flow(rng: random.Random, trials: int) -> dict:
    violations = []
    done = 0
    while done < trials:
        k = rng.randint(1, 2)
        g = random_kplus1_flow(rng, k)
        agents = [e.id for e in g.edges]
        report = check_truthfulness(lambda b: fm_run(g, b, k),
                                    agents, rng, trials=5)
        violations.extend(report.violations)
        done += 1
    return {"instances": done, "violations": violations}


def _verify_cut(rng: random.Random, trials: int) -> dict:
    violations = []
    done = 0
    while done < trials:
        g = random_cut_network(rng, rng.randint(4, 6), rng.randint(5, 9))
        agents = [e.id for e in g.edges]
        try:
            report = check_truthfulness(lambda b: cm_run(g, b),
                                        agents, rng, trials=5)
        except FrugalError:
            continue
        violations.extend(report.violations)
        done += 1
    return {"instances": done, "violations": violations}


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    suites = ["vc", "flow", "cut"] if args.suite == "all" else [args.suite]
    runners = {"vc": _verify_vc, "flow": _verify_flow, "cut": _verify_cut}
    report = {"seed": args.seed, "suites": {}}
    total_violations = 0
    for name in suites:
        result = runners[name](rng, args.trials)
        result["violations"] = [list(map(str, v)) for v in result["violations"]]
        report["suites"][name] = result
        total_violations += len(result["violations"])
    report["ok"] = total_violations == 0
    _emit(report)
    return EXIT_OK if total_violations == 0 else EXIT_VERIFY


def cmd_frugality(args) -> int:
    rng = random.Random(args.seed)
    report = {"seed": args.seed, "suite": args.suite}
    ok = True
    if args.suite == "vc":
        worst = 0.0
        lam_bound = 0.0
        done = 0
        while done < args.trials:
            g = random_undirected_graph(rng, rng.randint(3, 6))
            if not g.edges:
                continue
            try:
                sys_ = SetSystem(VERTEX_COVER, g)
                sys_.check_monopoly_free()
                tot_map = {v: tot(sys_, v) for v in g.vertices}
                inst = build_vc_instance(g, tot_map)
            except FrugalError:
                continue
            vectors = [random_costs(rng, g.vertices) for _ in range(5)]
            ratio = measure_frugality(lambda b: ev_run(inst, b),
                                      lambda c: nu(sys_, c).value, vectors)
            # The guaranteed payment bound is lambda * sum(c_v tot_v);
            # the ratio against nu can exceed lambda on rare instances.
            for c in vectors:
                cap_val = inst.max_eigenvalue * float(
                    sum(x * tot_map[v] for v, x in c.items()))
                if ev_run(inst, c).total_payment > cap_val + 1e-6:
                    ok = False
            worst = max(worst, ratio)
            lam_bound = max(lam_bound, inst.max_eigenvalue)
            done += 1
        report["worst_ratio"] = _approx(worst)
        report["lambda_bound"] = _approx(lam_bound)
        report["certified_bound"] = "lambda * sum(c_v * tot_v)"
    elif args.suite == "flow":
        worst = 0.0
        done = 0
        while done < args.trials:
            k = rng.randint(1, 2)
            g = random_kplus1_flow(rng, k)
            agents = [e.id for e in g.edges]
            vectors = [random_costs(rng, agents) for _ in range(5)]
            ratio = measure_frugality(
                lambda b: fm_run(g, b, k),
                lambda c: nu_flow_fast(g, c, k), vectors)
            worst = max(worst, ratio)
            done += 1
        report["worst_ratio"] = _approx(worst)
        report["bound"] = "2(k+1)"
        ok = worst != float("inf")
    else:
        worst = 0.0
        done = 0
        while done < args.trials:
            g = random_cut_network(rng, rng.randint(4, 6), rng.randint(5, 9))
            agents = [e.id for e in g.edges]
            vectors = [random_costs(rng, agents) for _ in range(5)]
            try:
                ratio = measure_frugality(
                    lambda b: cm_run(g, b),
                    lambda c: nu(SetSystem(CUT, g), c).value, vectors)
            except FrugalError:
                continue
            worst = max(worst, ratio)
            done += 1
        report["worst_ratio"] = _approx(worst)
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
