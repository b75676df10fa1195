import contextlib
import itertools
import random
import signal
from fractions import Fraction

import networkx as nx
import pytest

from frugal.eigen import ev_run
from frugal.errors import DomainError, InputError, MonopolyError
from frugal.flow import (FlowCoverSolver, conflict_graph, decompose_paths,
                         fm_run, min_cost_flow, nu_flow_fast,
                         prune_to_support, successive_shortest_paths,
                         vc_from_flow)
from frugal.graph import Graph, reachable
from frugal.oracle import random_costs, random_flow_network
from frugal.setsystems import K_FLOW, SetSystem, nu, tot, unit_costs


def parallel(costs):
    ids = sorted(costs)
    g = Graph.build(["s", "t"], [(eid, "s", "t") for eid in ids],
                    source="s", sink="t")
    return g, {eid: Fraction(c) for eid, c in costs.items()}


def unit(g):
    return {e.id: Fraction(1) for e in g.edges}


def test_min_cost_flow_picks_cheapest():
    g, costs = parallel({"e1": 1, "e2": 2, "e3": 3})
    assert min_cost_flow(g, costs, 2) == frozenset({"e1", "e2"})


def test_min_cost_flow_tie_break_low_ids():
    g, costs = parallel({"e1": 1, "e2": 1, "e3": 1})
    assert min_cost_flow(g, costs, 2) == frozenset({"e1", "e2"})


def test_min_cost_flow_uses_residual_reversal():
    # The greedy shortest path s->a->b->t must be undone to fit 2 units.
    g = Graph.build(
        ["s", "a", "b", "t"],
        [("sa", "s", "a"), ("ab", "a", "b"), ("bt", "b", "t"),
         ("sb", "s", "b"), ("at", "a", "t")],
        directed=True, source="s", sink="t")
    costs = {"sa": Fraction(1), "ab": Fraction(0), "bt": Fraction(1),
             "sb": Fraction(4), "at": Fraction(4)}
    assert min_cost_flow(g, costs, 2) == frozenset({"sa", "at", "sb", "bt"})


def test_min_cost_flow_infeasible(path_graph, path_costs):
    with pytest.raises(DomainError):
        min_cost_flow(path_graph, path_costs, 2)


def test_flow_input_validation(triangle):
    with pytest.raises(InputError):
        min_cost_flow(triangle, {e.id: Fraction(1) for e in triangle.edges}, 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_fm_run_rejects_non_finite_bids(three_flow, bad):
    costs = dict(unit(three_flow), u=bad)
    with pytest.raises(InputError):
        fm_run(three_flow, costs, 2)
    with pytest.raises(InputError):
        min_cost_flow(three_flow, costs, 2)


# s->a->t costs 2 per unit and carries 3 units; s->b->t costs 4 per
# unit and carries 2 (b->t uncapacitated).
CAPACITATED = [("s", "a", 3, (1, 0)), ("a", "t", 5, (1, 0)),
               ("s", "b", 2, (2, 0)), ("b", "t", None, (2, 0))]


def test_successive_shortest_paths_pushes_the_bottleneck():
    flow, value = successive_shortest_paths("sabt", CAPACITATED, "s", "t")
    assert (flow, value) == ([3, 3, 2, 2], 5)


def test_successive_shortest_paths_stops_at_a_value():
    flow, value = successive_shortest_paths("sabt", CAPACITATED, "s", "t",
                                            value=4)
    assert (flow, value) == ([3, 3, 1, 1], 4)


def test_successive_shortest_paths_stops_below_a_length():
    # The second path is 4 long: not below 4, below 5.
    flow, value = successive_shortest_paths("sabt", CAPACITATED, "s", "t",
                                            below=4)
    assert (flow, value) == ([3, 3, 0, 0], 3)
    flow, value = successive_shortest_paths("sabt", CAPACITATED, "s", "t",
                                            below=5)
    assert (flow, value) == ([3, 3, 2, 2], 5)


def test_successive_shortest_paths_reroutes_through_a_backward_arc():
    # Two units must undo one of the three pushed along s->a->b->t.
    arcs = [("s", "a", 3, (0, 0)), ("a", "b", 3, (0, 0)),
            ("b", "t", 3, (0, 0)), ("s", "b", 2, (3, 0)),
            ("a", "t", 2, (3, 0))]
    flow, value = successive_shortest_paths("sabt", arcs, "s", "t", value=5)
    assert (flow, value) == ([3, 1, 3, 2, 2], 5)


def test_successive_shortest_paths_needs_a_capacity_on_each_path():
    arcs = [("s", "a", None, (0, 0)), ("a", "t", None, (1, 0))]
    with pytest.raises(DomainError, match="unbounded"):
        successive_shortest_paths("sat", arcs, "s", "t", below=2)
    assert successive_shortest_paths("sat", arcs, "s", "t",
                                     value=2) == ([2, 2], 2)


def test_min_cost_flow_on_float_costs():
    g, _ = parallel({"e1": 1, "e2": 2, "e3": 3})
    support = min_cost_flow(g, {"e1": 0.5, "e2": 0.25, "e3": 1.0}, 2)
    assert support == frozenset({"e1", "e2"})


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_fm_run_returns_on_tied_bids():
    # random_flow_network under random.Random(18174), k=2. Equal scaled
    # bids on edges of equal eigenvector weight once left a rounding-size
    # negative cycle in a float residual graph inside a cover query, and
    # the walk back from the sink along pred never ended.
    g = Graph.build(
        ["s", "t", "p1n0", "p1n1", "p2n0"],
        [("p0e0", "s", "t"), ("p1e0", "s", "p1n0"),
         ("p1e1", "p1n0", "p1n1"), ("p1e2", "p1n1", "t"),
         ("p2e0", "s", "p2n0"), ("p2e1", "p2n0", "t"),
         ("x0", "p1n1", "t"), ("x3", "p2n0", "p1n0"), ("x4", "s", "p1n1")],
        directed=True, source="s", sink="t")
    F = Fraction
    bids = {"p0e0": F(7), "p1e0": F(4, 3), "p1e1": F(1, 2), "p1e2": F(1, 2),
            "p2e0": F(7, 2), "p2e1": F(5, 3), "x0": F(1, 2), "x3": F(3),
            "x4": F(5, 4)}
    with time_limit(20):
        out = fm_run(g, bids, 2)
    decompose_paths(g.subgraph_edges(out.winners), 2)
    for w in out.winners:
        assert out.payments[w] >= float(bids[w]) - 1e-9


@pytest.mark.parametrize("seed", [20793, 26005])
def test_fm_run_returns_on_generated_tied_bids(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    g = random_flow_network(rng, k, rng.randint(1, 5))
    bids = {e.id: Fraction(rng.randint(0, 8), rng.randint(1, 4))
            for e in g.edges}
    with time_limit(20):
        out = fm_run(g, bids, k)
    decompose_paths(g.subgraph_edges(out.winners), k)


def test_prune_keeps_three_flow(three_flow):
    h = prune_to_support(three_flow, unit(three_flow), 2)
    assert {e.id for e in h.edges} == {"u", "v", "w", "x", "y"}


def test_prune_monopoly(path_graph, path_costs):
    with pytest.raises(MonopolyError):
        prune_to_support(path_graph, path_costs, 1)


def test_decompose_three_flow(three_flow):
    paths = decompose_paths(three_flow, 3)
    assert sorted(map(sorted, paths)) == [["u"], ["v", "x"], ["w", "y"]]


def test_decompose_rejects_leftovers(three_flow):
    with pytest.raises(DomainError):
        decompose_paths(three_flow, 2)


def test_vc_from_flow_rejects_what_is_not_k_plus_1_paths(three_flow):
    # Three paths are not two, and a cycle off every path is no path.
    with pytest.raises(DomainError):
        vc_from_flow(three_flow, 1)
    g = Graph.build(["s", "a", "b", "t"],
                    [("p", "s", "t"), ("q", "s", "t"), ("ab", "a", "b"),
                     ("ba", "b", "a")], source="s", sink="t")
    with pytest.raises(DomainError):
        vc_from_flow(g, 1)


def test_pruned_support_is_acyclic_and_splits_into_paths():
    # fm_run builds its instance without `decompose_paths`: every
    # `tie_broken` weight is positive, so a min-cost (k+1)-flow carries
    # no cycle, and its acyclic support splits into k+1 simple paths.
    rng = random.Random(72)
    cyclic = 0
    for _ in range(500):
        k = rng.randint(1, 3)
        g = random_flow_network(rng, k, rng.randint(2, 8))
        costs = {e.id: rng.randint(0, 3) for e in sorted(g.edges)}
        h = prune_to_support(g, costs, k)
        cyclic += not nx.is_directed_acyclic_graph(
            nx.MultiDiGraph([(e.tail, e.head) for e in g.edges]))
        assert nx.is_directed_acyclic_graph(
            nx.MultiDiGraph([(e.tail, e.head) for e in h.edges]))
        assert len(decompose_paths(h, k + 1)) == k + 1
    assert cyclic >= 100


def test_conflict_graph_matches_hand_derivation(three_flow):
    cg = conflict_graph(three_flow)
    pairs = {frozenset((e.tail, e.head)) for e in cg.edges}
    expected = {"uv", "uw", "ux", "uy", "vw", "xy", "vy", "wx"}
    assert pairs == {frozenset(p) for p in expected}


def test_conflict_graph_parallel_edges():
    g, _ = parallel({"e1": 0, "e2": 0})
    cg = conflict_graph(g)
    assert len(cg.edges) == 1


def test_conflict_graph_matches_pairwise_rule():
    rng = random.Random(62)
    for i in range(300):
        k = 1 + i % 3
        g = random_flow_network(rng, k, rng.randint(0, 5))
        costs = random_costs(rng, [e.id for e in g.edges])
        h = prune_to_support(g, costs, k)
        expected = set()
        for a, b in itertools.combinations(sorted(e.id for e in h.edges), 2):
            ea, eb = h.edge_by_id[a], h.edge_by_id[b]
            if (not reachable(h, ea.head, eb.tail)
                    and not reachable(h, eb.head, ea.tail)):
                expected.add((a, b))
        cg = conflict_graph(h)
        assert {(e.tail, e.head) for e in cg.edges} == expected
        assert cg.vertices == tuple(sorted(e.id for e in h.edges))


def test_flow_tot_is_k(three_flow):
    inst = vc_from_flow(three_flow, 2)
    assert all(v == Fraction(2) for v in inst.tot.values())
    sys = SetSystem(K_FLOW, three_flow, k=2)
    for eid in inst.agents:
        assert tot(sys, eid) == 2


def test_flow_solver_matches_enumeration(three_flow):
    solver = FlowCoverSolver(three_flow, 2)
    sys = SetSystem(K_FLOW, three_flow, k=2)
    rng = random.Random(5)

    def value(cover):
        return sum(costs[a] for a in cover)

    for _ in range(20):
        costs = random_costs(rng, [e.id for e in three_flow.edges])
        covers = sys.minimal_feasible_sets
        best = min(sum(costs[a] for a in s) for s in covers)
        assert value(solver.min_cover(costs)) == best
        for agent in costs:
            want_in = min(sum(costs[a] for a in s if a != agent)
                          for s in covers)
            cover = solver.min_cover_containing(agent, costs)
            assert agent in cover and value(cover - {agent}) == want_in
            pool = [s for s in covers if agent not in s]
            want_out = min(sum(costs[a] for a in s) for s in pool)
            cover = solver.min_cover_excluding(agent, costs)
            assert agent not in cover and value(cover) == want_out


def test_fm_second_price():
    g, costs = parallel({"e1": 1, "e2": 3})
    out = fm_run(g, costs, 1)
    assert out.winners == frozenset({"e1"})
    assert out.payments["e1"] == pytest.approx(3.0, abs=1e-9)


def test_fm_winners_form_a_flow(three_flow):
    rng = random.Random(9)
    for _ in range(25):
        costs = random_costs(rng, [e.id for e in three_flow.edges])
        out = fm_run(three_flow, costs, 2)
        decompose_paths(three_flow.subgraph_edges(out.winners), 2)
        for w in out.winners:
            assert out.payments[w] >= float(costs[w]) - 1e-9


def test_fm_zero_costs(three_flow):
    costs = {e.id: Fraction(0) for e in three_flow.edges}
    out = fm_run(three_flow, costs, 2)
    assert out.total_payment == 0.0
    decompose_paths(three_flow.subgraph_edges(out.winners), 2)


def large_flow_network(rng, k, min_edges):
    """k+1 disjoint s-t paths through 14 inner vertices, plus random
    edges between distinct vertices until there are `min_edges` or
    more, and integer costs 0..20."""
    inner = [f"v{i}" for i in range(14)]
    edges = []
    for p in range(k + 1):
        hops = ["s", *rng.sample(inner, rng.randint(1, 4)), "t"]
        edges += [(f"p{p}_{i}", a, b)
                  for i, (a, b) in enumerate(zip(hops, hops[1:]))]
    while len(edges) < min_edges:
        a, b = rng.sample(["s", "t", *inner], 2)
        edges.append((f"x{len(edges)}", a, b))
    g = Graph.build(["s", "t", *inner], edges, source="s", sink="t")
    return g, {e.id: Fraction(rng.randint(0, 20)) for e in g.edges}


def test_pruning_beyond_sixteen_edges_matches_networkx():
    # The pruning path is polynomial, so no edge cap applies to it. Its
    # support must cost what a networkx min-cost (k+1)-flow costs.
    rng = random.Random(60)
    for trial in range(30):
        k = rng.randint(1, 4)
        g, costs = large_flow_network(rng, k, 60 + trial)
        ref = nx.MultiDiGraph()
        ref.add_node("s", demand=-(k + 1))
        ref.add_node("t", demand=k + 1)
        for e in g.edges:
            ref.add_edge(e.tail, e.head, key=e.id, capacity=1,
                         weight=int(costs[e.id]))
        h = prune_to_support(g, costs, k)
        assert sum(costs[e.id] for e in h.edges) == nx.min_cost_flow_cost(ref)
        decompose_paths(h, k + 1)
        if trial % 5 == 0:
            out = fm_run(g, costs, k)
            min_cost_flow(g.subgraph_edges(out.winners), costs, k)


def test_fm_pruned_losers_pay_zero():
    g, costs = parallel({"e1": 1, "e2": 2, "e3": 9})
    out = fm_run(g, costs, 1)
    assert out.payments["e3"] == 0.0
    assert "e3" not in out.winners
    assert out.diagnostics["pruned_support"] == ["e1", "e2"]


def test_nu_flow_fast_examples(three_flow):
    g, costs = parallel({"e1": 1, "e2": 3})
    assert nu_flow_fast(g, costs, 1) == 3
    assert nu_flow_fast(three_flow, unit(three_flow), 2) == 4
    zero = {e.id: Fraction(0) for e in three_flow.edges}
    assert nu_flow_fast(three_flow, zero, 2) == 0


def test_nu_flow_fast_rejects_non_flow(path_graph, path_costs):
    with pytest.raises(DomainError):
        nu_flow_fast(path_graph, path_costs, 1)


def test_nu_flow_fast_matches_lp(three_flow):
    rng = random.Random(13)
    sys = SetSystem(K_FLOW, three_flow, k=2)
    for _ in range(15):
        costs = random_costs(rng, [e.id for e in three_flow.edges])
        assert nu_flow_fast(three_flow, costs, 2) == nu(sys, costs).value


def test_pruning_bound_on_random_networks():
    rng = random.Random(21)
    done = 0
    while done < 15:
        g = random_flow_network(rng, 1, extra_edges=3)
        costs = random_costs(rng, [e.id for e in g.edges])
        try:
            h = prune_to_support(g, costs, 1)
        except MonopolyError:
            continue
        nu_h = nu(SetSystem(K_FLOW, h, k=1), costs_on(h, costs)).value
        nu_g = nu(SetSystem(K_FLOW, g, k=1), costs).value
        assert nu_h <= 2 * nu_g
        assert nu_flow_fast(h, costs_on(h, costs), 1) == nu_h
        done += 1


def costs_on(h, costs):
    return {e.id: costs[e.id] for e in h.edges}


def test_composability_of_pruning(three_flow):
    rng = random.Random(17)
    for _ in range(15):
        costs = random_costs(rng, [e.id for e in three_flow.edges])
        h = prune_to_support(three_flow, costs, 1)
        winner = sorted(e.id for e in h.edges)[0]
        lowered = dict(costs)
        lowered[winner] = costs[winner] / 2
        h2 = prune_to_support(three_flow, lowered, 1)
        assert {e.id for e in h.edges} == {e.id for e in h2.edges}


def test_flow_vc_instances_have_no_isolated_agents():
    # fm_run's outcomes do not depend on how ev_run treats an isolated
    # agent as long as no pruned support yields one.
    rng = random.Random(500)
    for _ in range(500):
        k = rng.randint(1, 3)
        g = random_flow_network(rng, k, rng.randint(1, 5))
        costs = {e.id: Fraction(rng.randint(0, 8), rng.randint(1, 4))
                 for e in g.edges}
        h = prune_to_support(g, costs, k)
        assert vc_from_flow(h, k).isolated == ()


def deletion_exit(g, costs, k, agent):
    """Reference exit bid: the (k+1)-flow's cost with the agent's edge
    deleted, less its cost with the agent free; None when no
    (k+1)-flow avoids the edge."""
    def cost(support):
        return sum(costs[eid] for eid in support if eid != agent)

    contained = cost(min_cost_flow(g, dict(costs, **{agent: Fraction(0)}),
                                   k + 1))
    without = g.subgraph_edges(e.id for e in g.edges if e.id != agent)
    try:
        return cost(min_cost_flow(without, costs, k + 1)) - contained
    except DomainError:
        return None


def test_fm_exit_cap_matches_the_deletion_rule():
    # Pricing a winner above all bids and deleting its edge give the
    # same exit: payments are the cover auction's, capped by it.
    rng = random.Random(71)
    checked = binding = no_exit = 0
    while checked < 100:
        k = rng.randint(1, 3)
        g = random_flow_network(rng, k, rng.randint(0, 6))
        costs = random_costs(rng, [e.id for e in g.edges])
        try:
            out = fm_run(g, costs, k)
        except MonopolyError:
            continue
        checked += 1
        ev = ev_run(vc_from_flow(prune_to_support(g, costs, k), k), costs)
        expected = dict.fromkeys((e.id for e in g.edges), 0.0)
        expected.update(ev.payments)
        for w in ev.winners:
            tau = deletion_exit(g, costs, k, w)
            if tau is None:
                no_exit += 1
            elif float(tau) < expected[w]:
                binding += 1
                expected[w] = float(tau)
        assert out.winners == ev.winners
        assert out.payments == expected
    assert binding > 0 and no_exit > 0
