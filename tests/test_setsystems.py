import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

import frugal
from frugal import setsystems
from frugal.errors import InputError, MonopolyError, ScaleError
from frugal.graph import Graph
from frugal.lp import LEQ, LinearProgram, solve
from frugal.setsystems import (CUT, K_FLOW, VERTEX_COVER, SetSystem,
                               _maximal_independent_sets,
                               cheapest_feasible_set,
                               fractional_clique_number,
                               neighborhood_subgraph, nu, tot, unit_costs)


def vc(g):
    return SetSystem(VERTEX_COVER, g)


def two_parallel():
    g = Graph.build(["s", "t"], [("e1", "s", "t"), ("e2", "s", "t")],
                    source="s", sink="t")
    return SetSystem(K_FLOW, g, k=1)


def cycle(n):
    verts = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", verts[i], verts[(i + 1) % n]) for i in range(n)]
    return Graph.build(verts, edges, directed=False)


def test_kind_validation(triangle):
    with pytest.raises(InputError):
        SetSystem("matching", triangle)
    with pytest.raises(InputError):
        SetSystem(K_FLOW, triangle, k=0)
    with pytest.raises(InputError):
        SetSystem(CUT, triangle)  # undirected, no terminals


def test_triangle_minimal_covers(triangle):
    sets = vc(triangle).minimal_feasible_sets
    assert sets == (frozenset({"a", "b"}), frozenset({"a", "c"}),
                    frozenset({"b", "c"}))


def test_parallel_edge_flows():
    assert two_parallel().minimal_feasible_sets == (frozenset({"e1"}),
                                                    frozenset({"e2"}))


def test_path_minimal_cuts(path_graph):
    sets = SetSystem(CUT, path_graph).minimal_feasible_sets
    assert set(sets) == {frozenset({"sa"}), frozenset({"ab"}),
                         frozenset({"bt"})}


def test_three_flow_two_flows(three_flow):
    sets = SetSystem(K_FLOW, three_flow, k=2).minimal_feasible_sets
    assert set(sets) == {frozenset({"u", "v", "x"}),
                         frozenset({"u", "w", "y"}),
                         frozenset({"v", "w", "x", "y"})}


def test_monopoly_detected(path_graph):
    sys = SetSystem(K_FLOW, path_graph, k=1)
    with pytest.raises(MonopolyError):
        sys.check_monopoly_free()


def test_vertex_cover_scale_cap():
    g = Graph.build([f"v{i}" for i in range(25)], [], directed=False)
    with pytest.raises(ScaleError):
        vc(g).minimal_feasible_sets


def test_nu_second_price():
    sys = two_parallel()
    res = nu(sys, {"e1": Fraction(1), "e2": Fraction(3)})
    assert res.value == 3
    assert res.winning_set == frozenset({"e1"})
    assert res.bids == {"e1": Fraction(3), "e2": Fraction(3)}


def test_nu_triangle_unit(triangle):
    res = nu(vc(triangle),
             {"a": Fraction(1), "b": Fraction(0), "c": Fraction(0)})
    assert res.value == 2
    assert res.winning_set == frozenset({"b", "c"})


def test_nu_zero_costs(triangle):
    c = {v: Fraction(0) for v in "abc"}
    assert nu(vc(triangle), c).value == 0


def test_nu_scaling(three_flow):
    sys = SetSystem(K_FLOW, three_flow, k=2)
    c = {"u": Fraction(1), "v": Fraction(2), "w": Fraction(1, 3),
         "x": Fraction(0), "y": Fraction(5)}
    base = nu(sys, c).value
    scaled = nu(sys, {a: 7 * x for a, x in c.items()}).value
    assert scaled == 7 * base


def test_nu_not_superadditive_over_units(triangle):
    # The bound nu(c) >= sum_v c_v * tot(v) fails in general: the
    # natural combination of per-unit optimal bid vectors violates the
    # b = c constraint off the winning set. This instance pins the
    # counterexample down so the behavior is documented, not silent.
    sys = vc(triangle)
    c = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(1, 2)}
    assert nu(sys, c).value == 4
    assert sum(c[v] * tot(sys, v) for v in "abc") == 7


def test_nu_bids_have_tight_sets(triangle):
    # Every winner is blocked by some feasible set whose total bid ties
    # the winning set's total bid.
    sys = vc(triangle)
    c = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(1, 2)}
    res = nu(sys, c)
    total = sum(res.bids[a] for a in res.winning_set)
    for agent in res.winning_set:
        assert any(agent not in t and
                   sum(res.bids[x] for x in t) == total
                   for t in sys.minimal_feasible_sets)


def test_nu_rejects_bad_costs(triangle):
    with pytest.raises(InputError):
        nu(vc(triangle), {"a": Fraction(1)})
    with pytest.raises(InputError):
        nu(vc(triangle), {"a": Fraction(-1), "b": Fraction(0),
                          "c": Fraction(0)})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 None, -0.5])
def test_nu_cost_rule_is_integer_costs(triangle, bad):
    # The same rule as the auctions: missing, non-finite or negative
    # costs are InputErrors, not ValueError/OverflowError/TypeError.
    with pytest.raises(InputError):
        nu(vc(triangle), {"a": bad, "b": Fraction(0), "c": Fraction(1)})


def test_cheapest_set_lexicographic_tie(triangle):
    c = {v: Fraction(0) for v in "abc"}
    assert cheapest_feasible_set(vc(triangle), c) == frozenset({"a", "b"})


def test_tot_examples(triangle, star):
    assert all(tot(vc(triangle), v) == 2 for v in "abc")
    ssys = vc(star)
    assert tot(ssys, "c") == 1
    assert tot(ssys, "l1") == 1


def test_unit_costs(triangle):
    c = unit_costs(vc(triangle), "b")
    assert c == {"a": Fraction(0), "b": Fraction(1), "c": Fraction(0)}


def test_fractional_clique_k3(triangle):
    assert fractional_clique_number(triangle) == 3


def test_fractional_clique_five_cycle():
    assert fractional_clique_number(cycle(5)) == Fraction(5, 2)


def test_fractional_clique_edgeless():
    g = Graph.build(["a", "b", "c"], [], directed=False)
    assert fractional_clique_number(g) == 1


def test_fractional_clique_needs_undirected(path_graph):
    with pytest.raises(InputError):
        fractional_clique_number(path_graph)


def test_neighborhood_subgraph(star, triangle):
    sub = neighborhood_subgraph(star, "c")
    assert set(sub.vertices) == {"l1", "l2", "l3"}
    assert sub.edges == ()
    tri_sub = neighborhood_subgraph(triangle, "a")
    assert set(tri_sub.vertices) == {"b", "c"}
    assert len(tri_sub.edges) == 1


def test_tot_equals_neighborhood_clique(star):
    # tot is nu at the unit cost vector, but it solves only the
    # neighbourhood LP; the whole-graph nu is the reference.
    sys = SetSystem(VERTEX_COVER, star)
    for v in star.vertices:
        expected = fractional_clique_number(neighborhood_subgraph(star, v))
        assert nu(sys, unit_costs(sys, v)).value == expected
        assert tot(sys, v) == expected


def test_tot_of_isolated_vertex_is_zero():
    g = Graph.build(["a", "b", "z"], [("e", "a", "b")], directed=False)
    sys = vc(g)
    assert tot(sys, "z") == 0 == nu(sys, unit_costs(sys, "z")).value
    assert tot(sys, "a") == 1


def as_graph(nxg, loops=()):
    verts = [f"n{u}" for u in sorted(nxg.nodes)]
    edges = [(f"e{u}_{v}", f"n{u}", f"n{v}")
             for u, v in sorted(map(sorted, nxg.edges))]
    edges += [(f"l{u}", f"n{u}", f"n{u}") for u in loops]
    return Graph.build(verts, edges, directed=False)


def networkx_independent_sets(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from((e.tail, e.head) for e in g.edges if e.tail != e.head)
    return sorted((frozenset(c) for c in nx.find_cliques(nx.complement(nxg))),
                  key=lambda s: tuple(sorted(s)))


def test_independent_sets_match_networkx_on_the_atlas():
    atlas = nx.graph_atlas_g()
    assert max(len(nxg) for nxg in atlas) == 7
    for nxg in atlas:
        g = as_graph(nxg)
        assert _maximal_independent_sets(g) == networkx_independent_sets(g)


def test_independent_sets_match_networkx_on_random_graphs():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 14)
        nxg = nx.gnp_random_graph(n, rng.random(), seed=rng.randrange(2**32))
        loops = [u for u in range(n) if rng.random() < 0.2]
        g = as_graph(nxg, loops)
        assert _maximal_independent_sets(g) == networkx_independent_sets(g)


def test_independent_sets_capped(monkeypatch):
    # Two disjoint edges have four maximal independent sets.
    g = Graph.build(["a", "b", "c", "d"], [("ab", "a", "b"), ("cd", "c", "d")],
                    directed=False)
    monkeypatch.setenv("FRUGAL_SCALE_CAP", "4")
    assert len(_maximal_independent_sets(g)) == 4
    monkeypatch.setenv("FRUGAL_SCALE_CAP", "3")
    with pytest.raises(ScaleError):
        _maximal_independent_sets(g)


def clique_lp(g):
    """The fractional clique LP, one row per maximal independent set."""
    verts = sorted(g.vertices)
    rows = [([Fraction(v in mis) for v in verts], LEQ, Fraction(1))
            for mis in _maximal_independent_sets(g)]
    return solve(LinearProgram.build([1] * len(verts), rows)).value


def test_fractional_clique_number_is_the_lp_on_the_atlas():
    for nxg in nx.graph_atlas_g()[1:]:
        g = as_graph(nxg)
        assert fractional_clique_number(g) == clique_lp(g)


def test_fractional_clique_number_is_the_lp_on_random_graphs():
    rng = random.Random(41)
    for _ in range(240):
        n = rng.randint(5, 12)
        nxg = nx.gnp_random_graph(n, rng.random(), seed=rng.randrange(2**32))
        g = as_graph(nxg)
        assert fractional_clique_number(g) == clique_lp(g)


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []

    def counting(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(setsystems, "solve", counting)
    return calls


@pytest.mark.parametrize("nxg, value", [
    (nx.complete_graph(6), 6),
    (nx.empty_graph(5), 1),
    (nx.complete_bipartite_graph(3, 4), 2),
    (nx.hypercube_graph(3), 2),
    # Chordal: a fan of triangles with a pendant triangle.
    (nx.Graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4),
               (4, 5), (3, 5)]), 3),
    (nx.path_graph(7), 2),
], ids=["complete", "edgeless", "bipartite", "cube", "chordal", "path"])
def test_perfect_graphs_need_no_lp(lp_calls, nxg, value):
    g = as_graph(nx.convert_node_labels_to_integers(nxg))
    assert fractional_clique_number(g) == value
    assert lp_calls == []


@pytest.mark.parametrize("nxg, value", [
    (nx.cycle_graph(5), Fraction(5, 2)),
    (nx.cycle_graph(7), Fraction(7, 3)),
    (nx.complement(nx.cycle_graph(7)), Fraction(7, 2)),
], ids=["C5", "C7", "C7-complement"])
def test_odd_holes_and_antiholes_solve_one_lp(lp_calls, nxg, value):
    assert fractional_clique_number(as_graph(nxg)) == value
    assert len(lp_calls) == 1


def test_colouring_search_past_its_cap_leaves_the_value_to_the_lp(
        lp_calls, monkeypatch):
    # K4's clique search takes all four steps the cap allows, so the
    # colouring search gives up at once; its four maximal independent
    # sets are within the LP's cap.
    g = as_graph(nx.complete_graph(4))
    monkeypatch.setenv("FRUGAL_SCALE_CAP", "4")
    assert fractional_clique_number(g) == 4
    assert len(lp_calls) == 1


def test_import_leaves_networkx_unloaded():
    src = str(Path(frugal.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, frugal.cli; print('networkx' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.stdout.strip() == "False"
