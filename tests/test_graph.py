import json
import random
from fractions import Fraction

import networkx as nx
import pytest

from frugal.errors import InputError, ScaleError
from frugal.graph import (Edge, Graph, adjacency, components,
                          enumerate_st_paths, graph_from_json, graph_to_json,
                          reach, reachable, st_cut_crossings)


def test_duplicate_vertex_rejected():
    with pytest.raises(InputError):
        Graph.build(["a", "a"], [])


def test_duplicate_edge_id_rejected():
    with pytest.raises(InputError):
        Graph.build(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])


def test_unknown_endpoint_rejected():
    with pytest.raises(InputError):
        Graph.build(["a"], [("e", "a", "z")])


def test_source_must_differ_from_sink():
    with pytest.raises(InputError):
        Graph.build(["a", "b"], [], source="a", sink="a")


def test_parallel_edges_are_fine():
    g = Graph.build(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
    assert len(g.edges) == 2
    assert [e.id for e in g.out_edges("a")] == ["e1", "e2"]


def test_undirected_adjacency_goes_both_ways():
    g = Graph.build(["a", "b"], [("e", "a", "b")], directed=False)
    assert g.out_edges("b") == (Edge("e", "b", "a"),)
    assert g.neighbors("a") == ["b"]


def test_st_paths_lexicographic(three_flow):
    paths = enumerate_st_paths(three_flow)
    assert paths == [["u"], ["v", "x"], ["w", "y"]]


def test_st_path_cap():
    g = Graph.build(["s", "t"],
                    [("e1", "s", "t"), ("e2", "s", "t"), ("e3", "s", "t")],
                    source="s", sink="t")
    with pytest.raises(ScaleError):
        enumerate_st_paths(g, path_cap=2)


def test_st_paths_need_endpoints(triangle):
    with pytest.raises(InputError):
        enumerate_st_paths(triangle)


def test_reachable(path_graph):
    assert reachable(path_graph, "s", "t")
    assert reachable(path_graph, "b", "b")
    assert not reachable(path_graph, "t", "s")


def test_reachable_undirected_goes_both_ways():
    g = Graph.build(["a", "b", "c"], [("ab", "a", "b"), ("cb", "c", "b")],
                    directed=False)
    assert reachable(g, "a", "c") and reachable(g, "c", "a")


def test_reachable_unknown_vertex(path_graph):
    with pytest.raises(InputError):
        reachable(path_graph, "s", "nope")


def random_multigraphs(count, seed):
    """Seeded random multigraphs with parallel edges, self-loops and
    (usually) isolated vertices, as (vertices, edges)."""
    rng = random.Random(seed)
    for _ in range(count):
        vertices = [f"v{i}" for i in range(rng.randint(1, 10))]
        rng.shuffle(vertices)
        edges = [Edge(f"e{j}", rng.choice(vertices), rng.choice(vertices))
                 for j in range(rng.randint(0, 14))]
        if rng.random() < 0.3 and edges:
            edges.append(Edge("dup", edges[0].tail, edges[0].head))
        yield vertices, edges


def test_reach_matches_networkx():
    for vertices, edges in random_multigraphs(300, 11):
        g = nx.MultiDiGraph()
        g.add_nodes_from(vertices)
        g.add_edges_from((e.tail, e.head) for e in edges)
        succ, pred = adjacency(edges), adjacency(edges, reverse=True)
        for v in vertices:
            assert reach(succ, v) == nx.descendants(g, v) | {v}
            assert reach(pred, v) == nx.ancestors(g, v) | {v}


def test_adjacency_keeps_parallel_arcs_and_omits_sinks():
    edges = [Edge("x", "a", "b"), Edge("y", "a", "b"), Edge("z", "b", "b")]
    assert adjacency(edges) == {"a": ["b", "b"], "b": ["b"]}
    assert adjacency(edges, reverse=True) == {"b": ["a", "a", "b"]}


def test_components_match_networkx_in_smallest_vertex_order():
    for vertices, edges in random_multigraphs(300, 12):
        g = nx.MultiGraph()
        g.add_nodes_from(vertices)
        g.add_edges_from((e.tail, e.head) for e in edges)
        # Sorted components, ordered by their smallest vertex.
        expected = sorted(sorted(c) for c in nx.connected_components(g))
        pairs = [(e.tail, e.head) for e in edges]
        assert components(vertices, pairs) == expected


def test_st_cut_crossings(path_graph):
    assert list(st_cut_crossings(path_graph)) == [
        frozenset({"sa"}), frozenset({"ab"}), frozenset({"sa", "bt"}),
        frozenset({"bt"})]


def test_st_cut_crossings_cap(monkeypatch, path_graph):
    monkeypatch.setenv("FRUGAL_SCALE_CAP", "1")
    with pytest.raises(ScaleError):
        list(st_cut_crossings(path_graph))


def test_subgraph_edges_keeps_terminals(three_flow):
    sub = three_flow.subgraph_edges({"v", "x"})
    assert set(sub.vertices) == {"s", "a", "t"}
    assert sub.source == "s"


def test_json_round_trip(three_flow):
    costs = {e.id: Fraction(1, 3) for e in three_flow.edges}
    data = graph_to_json(three_flow, costs)
    g2, c2 = graph_from_json(json.loads(json.dumps(data)))
    assert g2 == three_flow
    assert c2 == costs


def test_json_missing_key():
    with pytest.raises(InputError):
        graph_from_json({"vertices": ["a"]})


def test_json_bad_edge_entry():
    with pytest.raises(InputError):
        graph_from_json({"vertices": ["a"], "edges": [{"id": "e"}]})
