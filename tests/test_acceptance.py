"""End-to-end acceptance checks.

Each test covers one numbered guarantee at full scale and prints a
single pass/fail line outside pytest's capture, so the run log shows
the verdict per criterion even on quiet runs. Randomness is seeded;
reruns are byte-for-byte repeatable.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import networkx as nx
import pytest

from frugal.cli import main
from frugal.cut import (cm_run, contract_to_h, min_double_cut,
                        prune_redundant)
from frugal.eigen import (MinimalCoverSolver, build_vc_instance, ev_run,
                          probe_lower_bound, unit_bid_vector)
from frugal.errors import DomainError, FrugalError, MonopolyError
from frugal.flow import (conflict_graph, fm_run, nu_flow_fast,
                         prune_to_support)
from frugal.graph import Graph, graph_to_json
from frugal.oracle import (brute_conflict_pairs, brute_double_cut,
                           check_truthfulness, random_costs,
                           random_cut_network, random_flow_network,
                           random_kplus1_flow, random_undirected_graph)
from frugal.setsystems import (CUT, K_FLOW, VERTEX_COVER, SetSystem,
                               fractional_clique_number,
                               neighborhood_subgraph, nu, tot,
                               unit_costs)

F = Fraction


def announce(capfd, number, verdict, text):
    with capfd.disabled():
        print(f"criterion {number:2d}: {verdict} - {text}")


def criterion(capfd, number, text):
    """Decorator: run the check, print one verdict line, re-raise."""
    def wrap(fn):
        try:
            fn()
        except BaseException:
            announce(capfd, number, "FAIL", text)
            raise
        announce(capfd, number, "PASS", text)
    return wrap


def from_networkx(nxg):
    verts = [f"n{u}" for u in sorted(nxg.nodes)]
    edges = [(f"e{u}_{v}", f"n{u}", f"n{v}")
             for u, v in sorted(map(sorted, nxg.edges))]
    return Graph.build(verts, edges, directed=False)


def without_isolated(g):
    live = sorted(v for v in g.vertices if g.neighbors(v))
    return Graph(tuple(live), g.edges, directed=False)


def vc_instance_with_exact_tot(g):
    sys_ = SetSystem(VERTEX_COVER, g)
    tot_map = {v: tot(sys_, v) for v in g.vertices}
    inst = build_vc_instance(g, tot_map,
                             solver=MinimalCoverSolver(g))
    return sys_, inst


def component_lambda(inst, agent):
    for comp in inst.components:
        if agent in comp.agents:
            return comp.eigenvalue
    raise AssertionError(f"agent {agent} not in any component")


def test_criterion_1_tot_is_neighborhood_clique_number(capfd):
    @criterion(capfd, 1,
               "nu at each unit cost vector equals tot and the "
               "neighborhood fractional clique number on all connected "
               "graphs with at most 6 vertices and 36 G(n, 0.4) graphs "
               "with 7-12 vertices")
    def _():
        graphs = [from_networkx(g) for g in nx.graph_atlas_g()[1:]
                  if len(g) <= 6 and len(g) >= 2 and nx.is_connected(g)]
        assert len(graphs) >= 100
        rng = random.Random(101)
        graphs += [random_undirected_graph(rng, n, p=0.4)
                   for n in range(7, 13) for _ in range(6)]
        for g in graphs:
            sys_ = SetSystem(VERTEX_COVER, g)
            for v in g.vertices:
                expected = fractional_clique_number(neighborhood_subgraph(g, v))
                assert nu(sys_, unit_costs(sys_, v)).value == expected
                assert tot(sys_, v) == expected


def test_criterion_2_payment_bounded_by_lambda_nu(capfd):
    # The lambda * nu(c) payment bound is stated for arbitrary cost
    # vectors, but its proof needs nu(c) >= sum_v c_v * tot(v), which
    # fails (see test_nu_not_superadditive_over_units); a concrete
    # auction counterexample is pinned below. What does hold, and what
    # this criterion checks on every sampled vector, is the per-unit
    # decomposition bound lambda * sum_v c_v * tot(v), plus the exact
    # extremality claim on unit vectors, where the ratio against nu
    # equals lambda precisely.
    @criterion(capfd, 2,
               "cover-auction payments stay within the certified bound "
               "lambda * sum(c_v tot_v) on 200 instances x 100 cost "
               "vectors; unit vectors attain lambda * nu exactly")
    def _():
        rng = random.Random(2024)
        instances = 0
        while instances < 200:
            g = without_isolated(
                random_undirected_graph(rng, rng.randint(2, 7),
                                        p=rng.uniform(0.3, 0.9)))
            if not g.edges:
                continue
            sys_, inst = vc_instance_with_exact_tot(g)
            lam = inst.max_eigenvalue
            for _trial in range(100):
                costs = random_costs(rng, inst.agents)
                out = ev_run(inst, costs)
                cap = lam * float(sum(c * inst.tot[v]
                                      for v, c in costs.items()))
                assert out.total_payment <= cap + 1e-6
            for agent in inst.agents:
                out = ev_run(inst, unit_bid_vector(inst, agent))
                # nu(unit_agent) == tot(agent) by criterion 1.
                ratio = out.total_payment / float(inst.tot[agent])
                lam_v = component_lambda(inst, agent)
                assert abs(ratio - lam_v) <= 1e-9 * max(1.0, lam_v)
            instances += 1

        # Pinned counterexample to the lambda * nu(c) form of the bound:
        # the total threshold payment strictly exceeds it, with exact
        # nu and eigenpair cross-checked independently.
        g = Graph.build(
            [f"v{i}" for i in range(6)],
            [("a", "v0", "v3"), ("b", "v0", "v4"), ("c", "v0", "v5"),
             ("d", "v1", "v4"), ("e", "v2", "v5"), ("f", "v3", "v5")],
            directed=False)
        sys_, inst = vc_instance_with_exact_tot(g)
        costs = {"v0": F(5), "v1": F(1), "v2": F(4),
                 "v3": F(0), "v4": F(4), "v5": F(2)}
        out = ev_run(inst, costs)
        bound = nu(sys_, costs).value
        assert bound == 12
        assert out.total_payment > inst.max_eigenvalue * float(bound) + 1e-6


def test_criterion_3_probe_lower_bound(capfd):
    @criterion(capfd, 3,
               "pairwise-competition probe reports at least lambda/2 "
               "for the cover auction on every instance")
    def _():
        rng = random.Random(333)
        instances = 0
        while instances < 100:
            g = without_isolated(
                random_undirected_graph(rng, rng.randint(2, 7),
                                        p=rng.uniform(0.3, 0.9)))
            if not g.edges:
                continue
            _, inst = vc_instance_with_exact_tot(g)
            _, ratio = probe_lower_bound(inst, lambda b: ev_run(inst, b))
            assert ratio >= inst.max_eigenvalue / 2 - 1e-9
            instances += 1


def test_criterion_4_conflict_graph_equals_cut_membership(capfd, three_flow):
    @criterion(capfd, 4,
               "flow conflict graphs match brute-force minimum-cut "
               "membership on 100 random flows and the five-edge "
               "reference network")
    def _():
        rng = random.Random(44)
        for trial in range(100):
            k = 1 + trial % 3
            h = random_kplus1_flow(rng, k)
            fast = {frozenset((e.tail, e.head))
                    for e in conflict_graph(h).edges}
            brute = {frozenset(p) for p in brute_conflict_pairs(h)}
            assert fast == brute
        pairs = {frozenset((e.tail, e.head))
                 for e in conflict_graph(three_flow).edges}
        expected = {"uv", "uw", "ux", "uy", "vw", "xy", "vy", "wx"}
        assert pairs == {frozenset(p) for p in expected}


def _flow_pruning_cases(count):
    rng = random.Random(55)
    cases = []
    while len(cases) < count:
        k = 1 + len(cases) % 2
        g = random_flow_network(rng, k, extra_edges=rng.randint(1, 3))
        if len(g.vertices) > 8:
            continue
        costs = random_costs(rng, [e.id for e in g.edges])
        try:
            h = prune_to_support(g, costs, k)
        except MonopolyError:
            continue
        cases.append((g, h, costs, k))
    return cases


def test_criterion_5_pruning_preserves_nash_bound(capfd):
    @criterion(capfd, 5,
               "nu on the pruned network never exceeds (k+1) times nu "
               "on the full network, exactly, on 100 random instances")
    def _():
        for g, h, costs, k in _flow_pruning_cases(100):
            h_costs = {e.id: costs[e.id] for e in h.edges}
            nu_h = nu(SetSystem(K_FLOW, h, k=k), h_costs).value
            nu_g = nu(SetSystem(K_FLOW, g, k=k), costs).value
            assert nu_h <= (k + 1) * nu_g


def test_criterion_6_fast_nu_and_flow_tot(capfd):
    @criterion(capfd, 6,
               "closed-form nu on pruned flows matches the LP exactly; "
               "every flow conflict graph has tot identically k")
    def _():
        for g, h, costs, k in _flow_pruning_cases(100):
            h_costs = {e.id: costs[e.id] for e in h.edges}
            lp_value = nu(SetSystem(K_FLOW, h, k=k), h_costs).value
            assert nu_flow_fast(h, h_costs, k) == lp_value
            cg = conflict_graph(h)
            cg_sys = SetSystem(VERTEX_COVER, cg)
            for eid in cg.vertices:
                assert tot(cg_sys, eid) == k


def _double_cut_cases(count):
    rng = random.Random(77)
    cases = []
    while len(cases) < count:
        g = random_cut_network(rng, rng.randint(4, 8), rng.randint(5, 13))
        if len(g.edges) > 14:
            continue
        costs = random_costs(rng, [e.id for e in g.edges])
        cases.append((g, costs))
    return cases


def test_criterion_7_double_cut_optimal_and_certified(
        capfd, path_graph, path_costs):
    @criterion(capfd, 7,
               "primal-dual double cut matches the brute-force optimum "
               "and its dual objective on 200 random networks, with "
               "disjoint crossing sets")
    def _():
        for g, costs in _double_cut_cases(200):
            res = min_double_cut(g, costs)
            _, best = brute_double_cut(g, costs)
            assert res.cost == best
            assert res.cost == res.dual_objective
            if res.cuts is not None:
                s1, s2 = res.cuts
                cross1 = {e.id for e in g.edges
                          if e.tail in s1 and e.head not in s1}
                cross2 = {e.id for e in g.edges
                          if e.tail in s2 and e.head not in s2}
                assert not (cross1 & cross2)
                assert res.dual_objective == \
                    2 * res.flow_value - res.relief_total
        worked = min_double_cut(path_graph, path_costs)
        assert worked.cost == 3
        assert worked.flow_value == 2
        assert worked.relief_total == 1


def test_criterion_8_contraction_preserves_nash_bound(capfd):
    @criterion(capfd, 8,
               "nu on the contracted cut network is at most 2 * nu on "
               "the original and equals the per-bundle max-side sum, "
               "and skips no draw")
    def _():
        checked = skipped = 0
        for g, costs in _double_cut_cases(200):
            res = min_double_cut(g, costs)
            d = prune_redundant(g, costs, res.double_cut)
            try:
                bundles = contract_to_h(g, d)
            except DomainError:
                # A minimum double cut with no two-level form would be
                # skipped here; none of these draws has one.
                skipped += 1
                continue
            h_costs = {eid: costs[eid] for eid in d}
            nu_h = nu(SetSystem(CUT, bundles.h), h_costs).value
            nu_g = nu(SetSystem(CUT, g), costs).value
            assert nu_h <= 2 * nu_g
            side_sum = sum(
                (max(sum(costs[e] for e in left), sum(costs[e] for e in right))
                 for _, left, right in bundles.bundles), F(0))
            assert nu_h == side_sum
            checked += 1
        assert (checked, skipped) == (200, 0)


def test_criterion_9_truthfulness_of_all_three_mechanisms(capfd):
    @criterion(capfd, 9,
               "200 seeded perturbation trials per mechanism find no "
               "monotonicity or threshold-payment violations and skip "
               "no draw")
    def _():
        rng = random.Random(999)

        trials = 0
        while trials < 200:
            g = without_isolated(
                random_undirected_graph(rng, rng.randint(2, 6),
                                        p=rng.uniform(0.3, 0.9)))
            if not g.edges:
                continue
            _, inst = vc_instance_with_exact_tot(g)
            report = check_truthfulness(lambda b: ev_run(inst, b),
                                        inst.agents, rng, trials=10)
            assert report.ok, report.violations
            assert report.skipped == 0
            trials += report.trials

        trials = 0
        while trials < 200:
            k = rng.randint(1, 2)
            g = random_kplus1_flow(rng, k)
            report = check_truthfulness(lambda b: fm_run(g, b, k),
                                        [e.id for e in g.edges], rng,
                                        trials=10)
            assert report.ok, report.violations
            assert report.skipped == 0
            trials += report.trials

        trials = 0
        while trials < 200:
            g = random_cut_network(rng, rng.randint(4, 6),
                                   rng.randint(5, 9))
            try:
                report = check_truthfulness(lambda b: cm_run(g, b),
                                            [e.id for e in g.edges], rng,
                                            trials=10)
            except FrugalError:
                continue
            assert report.ok, report.violations
            assert report.skipped == 0
            trials += report.trials


def test_criterion_10_deterministic_output(capfd, tmp_path):
    @criterion(capfd, 10,
               "identical inputs and seeds give byte-identical output")
    def _():
        graph_file = tmp_path / "path.json"
        costs = {"sa": F(1), "ab": F(5), "bt": F(2)}
        g = Graph.build(["s", "a", "b", "t"],
                        [("sa", "s", "a"), ("ab", "a", "b"),
                         ("bt", "b", "t")],
                        directed=True, source="s", sink="t")
        graph_file.write_text(json.dumps(graph_to_json(g, costs)))
        commands = [
            ["double-cut", "--graph", str(graph_file)],
            ["cut-auction", "--graph", str(graph_file)],
            ["verify", "--suite", "all", "--seed", "13", "--trials", "2"],
            ["frugality", "--suite", "vc", "--seed", "13", "--trials", "2"],
        ]
        for argv in commands:
            outputs = []
            for _run in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = main(argv)
                assert code == 0
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1]
            assert outputs[0].encode() == outputs[1].encode()
