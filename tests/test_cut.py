import random
from fractions import Fraction

import pytest

import frugal.cut
from frugal.cut import (CutCoverSolver, _cut_vc_instance, cm_run,
                        contract_to_h, cut_conflict_graph, double_cut_lp,
                        is_double_cut, min_double_cut, path_edge_ids,
                        prune_redundant, select_double_cut)
from frugal.eigen import ev_run
from frugal.errors import DomainError, InputError, MonopolyError
from frugal.graph import Graph, reachable
from frugal.oracle import (brute_double_cut, canonical_double_cut_reference,
                           random_costs, random_cut_network,
                           random_flow_network)

F = Fraction


def diamond_costs():
    return {"sa": F(1), "sb": F(2), "at": F(3), "bt": F(4)}


def backward_merge_instance():
    """A network where contracting connected components of the non-cut
    edges would merge a middle block into the sink block through a
    backward edge; the block construction must not fall for that."""
    g = Graph.build(
        ["s", "m0", "m1", "m2", "m3", "t"],
        [("e0_1", "s", "m0"), ("e0_2", "s", "m1"), ("e1_3", "m0", "m2"),
         ("e1_5", "m0", "t"), ("e2_4", "m1", "m3"), ("e3_4", "m2", "m3"),
         ("e3_5", "m2", "t"), ("e4_5", "m3", "t")],
        directed=True, source="s", sink="t")
    costs = {"e0_1": F(2), "e0_2": F(4), "e1_3": F(0), "e1_5": F(3),
             "e2_4": F(2), "e3_4": F(5), "e3_5": F(4), "e4_5": F(3)}
    return g, costs


def test_is_double_cut(path_graph):
    assert not is_double_cut(path_graph, frozenset({"sa"}))
    assert is_double_cut(path_graph, frozenset({"sa", "bt"}))
    assert is_double_cut(path_graph, frozenset({"sa", "ab", "bt"}))


def test_min_double_cut_worked_path(path_graph, path_costs):
    res = min_double_cut(path_graph, path_costs)
    assert res.double_cut == frozenset({"sa", "bt"})
    assert res.cost == 3
    assert res.dual_objective == 3
    assert res.method == "primal-dual"
    assert res.flow_value == 2
    assert res.relief_total == 1
    s1, s2 = res.cuts
    assert path_graph.source in s1 and path_graph.sink not in s2


def test_min_double_cut_diamond(diamond):
    res = min_double_cut(diamond, diamond_costs())
    assert res.double_cut == frozenset({"sa", "sb", "at", "bt"})
    assert res.cost == 10


def test_double_cut_lp_path(path_graph, path_costs):
    chosen, value = double_cut_lp(path_graph, path_costs)
    assert (chosen, value) == (frozenset({"sa", "bt"}), 3)


def test_min_double_cut_rejects_st_edge():
    g = Graph.build(["s", "t"], [("st", "s", "t")], source="s", sink="t")
    with pytest.raises(MonopolyError):
        min_double_cut(g, {"st": F(1)})


def test_min_double_cut_rejects_negative_cost(path_graph, path_costs):
    bad = dict(path_costs, sa=F(-1))
    with pytest.raises(InputError):
        min_double_cut(path_graph, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_cut_rejects_non_finite_bids(diamond, bad):
    costs = dict(diamond_costs(), sa=bad)
    with pytest.raises(InputError):
        cm_run(diamond, costs)
    with pytest.raises(InputError):
        min_double_cut(diamond, costs)


def test_min_double_cut_reports_original_units():
    # Denominators 2, 3 and 4: every solve runs on the integers 12 * c,
    # and the result must come back divided by that scale.
    g = Graph.build(
        ["s", "a", "b", "t"],
        [("sa", "s", "a"), ("at", "a", "t"), ("sb", "s", "b"),
         ("bt", "b", "t"), ("ab", "a", "b")],
        directed=True, source="s", sink="t")
    costs = {"sa": F(1, 2), "at": F(2, 3), "sb": F(3, 4), "bt": F(5, 4),
             "ab": F(1, 3)}
    res = min_double_cut(g, costs)
    assert res.method == "primal-dual"
    assert res.double_cut == frozenset({"sa", "at", "sb", "bt"})
    assert res.cost == res.dual_objective == F(19, 6)
    assert 2 * res.flow_value - res.relief_total == res.cost
    assert (res.flow_value, res.relief_total) == (F(23, 12), F(2, 3))
    for value in (res.cost, res.dual_objective, res.flow_value,
                  res.relief_total):
        assert isinstance(value, Fraction)


def test_min_double_cut_needs_st_path():
    g = Graph.build(["s", "a", "t"], [("sa", "s", "a")],
                    source="s", sink="t")
    with pytest.raises(DomainError):
        min_double_cut(g, {"sa": F(1)})


def test_min_double_cut_matches_brute_force():
    rng = random.Random(101)
    checked = 0
    while checked < 40:
        g = random_cut_network(rng, rng.randint(4, 6), rng.randint(4, 9))
        costs = random_costs(rng, [e.id for e in g.edges])
        try:
            res = min_double_cut(g, costs)
        except MonopolyError:
            continue
        _, best = brute_double_cut(g, costs)
        assert res.cost == best
        assert is_double_cut(g, res.double_cut)
        if res.cuts is not None:
            s1, s2 = res.cuts
            cross1 = {e.id for e in g.edges
                      if e.tail in s1 and e.head not in s1}
            cross2 = {e.id for e in g.edges
                      if e.tail in s2 and e.head not in s2}
            assert not (cross1 & cross2)
        checked += 1


def test_prune_redundant_drops_free_edge(path_graph):
    costs = {"sa": F(1), "ab": F(0), "bt": F(2)}
    d = frozenset({"sa", "ab", "bt"})
    assert prune_redundant(path_graph, costs, d) == frozenset({"sa", "bt"})
    # Positive-cost edges stay even when geometrically redundant.
    costs2 = {"sa": F(1), "ab": F(3), "bt": F(2)}
    assert prune_redundant(path_graph, costs2, d) == d


def test_contract_path_to_single_bundle(path_graph):
    bundles = contract_to_h(path_graph, frozenset({"sa", "bt"}))
    assert bundles.bundles == (("a", ("sa",), ("bt",)),)


def test_contract_diamond(diamond):
    bundles = contract_to_h(diamond, frozenset({"sa", "sb", "at", "bt"}))
    assert bundles.bundles == (("a", ("sa",), ("at",)),
                               ("b", ("sb",), ("bt",)))


def test_contract_rejects_middle_edge(path_graph):
    with pytest.raises(DomainError):
        contract_to_h(path_graph, frozenset({"sa", "ab", "bt"}))


def test_contract_rejects_direct_st(path_graph):
    with pytest.raises(DomainError):
        contract_to_h(path_graph, frozenset({"sa"}))


def test_cut_conflict_graph_is_bipartite_union(diamond):
    bundles = contract_to_h(diamond, frozenset({"sa", "sb", "at", "bt"}))
    cg = cut_conflict_graph(bundles)
    pairs = {frozenset((e.tail, e.head)) for e in cg.edges}
    assert pairs == {frozenset({"sa", "at"}), frozenset({"sb", "bt"})}


def test_cut_cover_solver_queries(diamond):
    bundles = contract_to_h(diamond, frozenset({"sa", "sb", "at", "bt"}))
    solver = CutCoverSolver(bundles)
    costs = {k: float(v) for k, v in diamond_costs().items()}
    assert solver.min_cover(costs) == frozenset({"sa", "sb"})
    assert solver.min_cover_containing("at", costs) == frozenset({"at", "sb"})
    assert solver.min_cover_excluding("sa", costs) == frozenset({"at", "sb"})


def test_cm_run_worked_path(path_graph, path_costs):
    out = cm_run(path_graph, path_costs)
    assert out.winners == frozenset({"sa"})
    assert out.payments["sa"] == pytest.approx(2.0, abs=1e-9)
    assert out.payments["ab"] == 0.0
    assert out.diagnostics["double_cut"] == ["bt", "sa"]


def test_cm_run_diamond(diamond):
    out = cm_run(diamond, diamond_costs())
    assert out.winners == frozenset({"sa", "sb"})
    assert out.payments["sa"] == pytest.approx(3.0, abs=1e-9)
    assert out.payments["sb"] == pytest.approx(4.0, abs=1e-9)


def test_cm_run_zero_costs(diamond):
    out = cm_run(diamond, {e.id: F(0) for e in diamond.edges})
    assert out.total_payment == 0.0
    # Ties drop the highest ids: each bundle keeps its lower-id side.
    assert out.winners == frozenset({"at", "bt"})


def test_cm_run_ignores_off_path_edges(path_graph, path_costs):
    g = Graph.build(
        [*path_graph.vertices, "x"],
        [(e.id, e.tail, e.head) for e in path_graph.edges]
        + [("ax", "a", "x")],
        directed=True, source="s", sink="t")
    out = cm_run(g, dict(path_costs, ax=F(1)))
    assert out.winners == frozenset({"sa"})
    assert out.payments["ax"] == 0.0


def test_cm_run_survives_backward_merge():
    g, costs = backward_merge_instance()
    res = min_double_cut(g, costs)
    assert res.cost == 10
    out = cm_run(g, costs)
    survivors = [(e.id, e.tail, e.head) for e in g.edges
                 if e.id not in out.winners]
    leftover = Graph.build(g.vertices, survivors, True, "s", "t")
    assert not reachable(leftover, "s", "t")


def test_canonical_tie_break_is_bid_independent():
    # Two double cuts tie at 31/6 plus the first edge's bid for every
    # bid value; the canonical rule must pick the same one regardless
    # of the bid, otherwise payments drift away from true thresholds.
    g = Graph.build(
        ["s", "m0", "m1", "m2", "t"],
        [("e0_1", "s", "m0"), ("e1_2", "m0", "m1"), ("e1_4", "m0", "t"),
         ("e2_3", "m1", "m2"), ("e2_4", "m1", "t"), ("e3_4", "m2", "t")],
        directed=True, source="s", sink="t")
    costs = {"e0_1": F(7, 4), "e1_2": F(8, 3), "e1_4": F(5, 2),
             "e2_3": F(2, 3), "e2_4": F(2), "e3_4": F(8, 3)}
    picks = set()
    for bid in (F(7, 4), F(3), F(7), F(17, 2)):
        probe = dict(costs, e0_1=bid)
        picks.add(min_double_cut(g, probe, canonical=True).double_cut)
    assert len(picks) == 1
    # {e1_2} and {e2_3, e2_4} cost 8/3 each; ties drop the highest id.
    assert picks.pop() == frozenset({"e0_1", "e1_2", "e1_4"})


def tie_heavy_cut_instances(seed, count):
    """Random cut networks with 4-10 vertices and bids p/q, p in 0..8,
    q in 1..4: many exact ties and zero bids."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_cut_network(rng, rng.randint(4, 10), rng.randint(5, 14))
        yield g, {e.id: F(rng.randint(0, 8), rng.randint(1, 4))
                  for e in g.edges}


def test_canonical_matches_greedy_reference():
    zero_bids = 0
    for g, costs in tie_heavy_cut_instances(61, 300):
        zero_bids += sum(1 for c in costs.values() if c == 0)
        got = min_double_cut(g, costs, canonical=True)
        ref = canonical_double_cut_reference(g, costs)
        assert got.double_cut == ref.double_cut
        assert got.cost == got.dual_objective == ref.cost
        assert got.flow_value is None and got.relief_total is None
    assert zero_bids > 0


def test_canonical_cut_is_inclusion_minimal():
    # Every perturbed cost is positive, so the canonical solve never
    # keeps an edge the cut could drop; pruning must change nothing.
    zero_bid_cuts = 0
    for g, costs in tie_heavy_cut_instances(63, 300):
        core = g.subgraph_edges(path_edge_ids(g))
        d = min_double_cut(core, costs, canonical=True).double_cut
        zero_bid_cuts += any(costs[eid] == 0 for eid in d)
        assert prune_redundant(core, costs, d) == d
    assert zero_bid_cuts > 0


def test_cm_run_matches_reference_selection(monkeypatch):
    instances = list(tie_heavy_cut_instances(62, 100))
    fast = [cm_run(g, costs) for g, costs in instances]
    plain = frugal.cut.min_double_cut

    def reference(g, costs, canonical=False):
        if canonical:
            return canonical_double_cut_reference(g, costs)
        return plain(g, costs)

    monkeypatch.setattr(frugal.cut, "min_double_cut", reference)
    for (g, costs), got in zip(instances, fast):
        ref = cm_run(g, costs)
        assert got.winners == ref.winners
        assert got.payments == ref.payments
        assert got.diagnostics["double_cut"] == ref.diagnostics["double_cut"]


def test_cm_payment_capped_by_selection_threshold():
    # The winning side of a bundle can be paid out of the cover auction
    # more than the bid at which it would fall out of the chosen double
    # cut; the payment must stop at the earlier of the two exits.
    g = Graph.build(
        ["s", "m0", "m1", "m2", "t"],
        [("e0_2", "s", "m1"), ("e2_3", "m1", "m2"), ("e2_4", "m1", "t"),
         ("e3_4", "m2", "t")],
        directed=True, source="s", sink="t")
    costs = {"e0_2": F(5), "e2_3": F(0), "e2_4": F(3, 2), "e3_4": F(1, 4)}
    out = cm_run(g, costs)
    assert "e2_3" in out.winners
    # sigma threshold: cut {e0_2, e2_4, e3_4} costs 27/4, the chosen one
    # 13/2 plus the bid, so e2_3 is priced out at 1/4.
    assert out.payments["e2_3"] == pytest.approx(0.25, abs=1e-9)
    probe = dict(costs, e2_3=F(3, 10))
    assert "e2_3" not in cm_run(g, probe).winners


def pricing_out_exit(core, costs, agent):
    """Reference exit bid: the minimum double cut's cost with the agent
    priced above all core bids, less its cost with the agent free;
    None when every double cut keeps the agent."""
    contained = min_double_cut(core, {**costs, agent: F(0)}).cost
    high = sum(costs[e.id] for e in core.edges) + 1
    avoiding = min_double_cut(core, {**costs, agent: high})
    if agent in avoiding.double_cut:
        return None
    return avoiding.cost - contained


def test_cm_exit_cap_matches_the_pricing_out_rule():
    rng = random.Random(72)
    checked = binding = no_exit = 0
    while checked < 100:
        g = random_cut_network(rng, rng.randint(4, 8), rng.randint(3, 12))
        costs = random_costs(rng, [e.id for e in g.edges])
        try:
            out = cm_run(g, costs)
        except (MonopolyError, DomainError):
            continue
        checked += 1
        core, result = select_double_cut(g, costs)
        ev = ev_run(_cut_vc_instance(contract_to_h(core, result.double_cut)),
                    costs)
        expected = dict.fromkeys((e.id for e in g.edges), 0.0)
        expected.update(ev.payments)
        for w in ev.winners:
            tau = pricing_out_exit(core, costs, w)
            if tau is None:
                no_exit += 1
            elif float(tau) < expected[w]:
                binding += 1
                expected[w] = float(tau)
        assert out.winners == ev.winners
        assert out.payments == expected
    assert binding > 0 and no_exit > 0


def test_path_edge_ids(path_graph):
    g = Graph.build(
        [*path_graph.vertices, "x"],
        [(e.id, e.tail, e.head) for e in path_graph.edges]
        + [("ax", "a", "x")],
        directed=True, source="s", sink="t")
    assert path_edge_ids(g) == frozenset({"sa", "ab", "bt"})


def test_path_edge_ids_matches_per_edge_rule():
    # Cut networks are DAGs; flow networks' shortcuts add cycles.
    rng = random.Random(61)
    graphs = [random_cut_network(rng, rng.randint(3, 10), rng.randint(2, 24))
              for _ in range(300)]
    graphs += [random_flow_network(rng, rng.randint(1, 3), rng.randint(0, 6))
               for _ in range(100)]
    for g in graphs:
        expected = {e.id for e in g.edges
                    if reachable(g, g.source, e.tail)
                    and reachable(g, e.head, g.sink)}
        assert path_edge_ids(g) == expected


def test_cm_winners_cut_the_graph():
    rng = random.Random(55)
    checked = 0
    while checked < 25:
        g = random_cut_network(rng, rng.randint(4, 6), rng.randint(4, 8))
        costs = random_costs(rng, [e.id for e in g.edges])
        try:
            out = cm_run(g, costs)
        except (MonopolyError, DomainError):
            continue
        survivors = [(e.id, e.tail, e.head) for e in g.edges
                     if e.id not in out.winners]
        leftover = Graph.build(g.vertices, survivors, True, "s", "t")
        assert not reachable(leftover, "s", "t")
        for w in out.winners:
            assert out.payments[w] >= float(costs[w]) - 1e-9
        checked += 1


def test_cut_vc_instances_have_no_isolated_agents():
    # cm_run's outcomes do not depend on how ev_run treats an isolated
    # agent as long as no bundle structure yields one.
    for g, costs in tie_heavy_cut_instances(500, 500):
        core, result = select_double_cut(g, costs)
        bundles = contract_to_h(core, result.double_cut)
        assert _cut_vc_instance(bundles).isolated == ()
