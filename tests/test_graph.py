import json
import random
from fractions import Fraction

import networkx as nx
import pytest

from frugal import caps
from frugal.errors import DomainError, InputError, ScaleError
from frugal.graph import (Edge, Graph, adjacency, check_network, components,
                          enumerate_st_paths, graph_from_json, graph_to_json,
                          path_labels, reach, reachable, shortest_paths,
                          st_cut_crossings)


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


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_scale_cap_override_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("FRUGAL_SCALE_CAP", raw)
    with pytest.raises(InputError, match=f"FRUGAL_SCALE_CAP.*'{raw}'"):
        caps.cap(caps.PATH_CAP)


def test_st_path_cap(monkeypatch):
    monkeypatch.setenv("FRUGAL_SCALE_CAP", "2")
    g = Graph.build(["s", "t"],
                    [("e1", "s", "t"), ("e2", "s", "t"), ("e3", "s", "t")],
                    source="s", sink="t")
    with pytest.raises(ScaleError):
        enumerate_st_paths(g)


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


def random_pair_digraphs(count, seed):
    """Seeded small digraphs whose pair-weighted arcs include negative
    ones but no cycle of negative weight, as (vertices, arcs). Each
    weight component is a non-negative base plus a potential
    difference p(tail) - p(head), so every cycle weighs its bases,
    which are >= 0 componentwise."""
    rng = random.Random(seed)
    for _ in range(count):
        vertices = list(range(rng.randint(2, 6)))
        p0 = {v: rng.randint(-4, 4) for v in vertices}
        p1 = {v: rng.randint(-4, 4) for v in vertices}
        arcs = []
        for label in range(rng.randint(1, 10)):
            a, b = rng.choice(vertices), rng.choice(vertices)
            w = (rng.randint(0, 2) + p0[a] - p0[b],
                 rng.randint(0, 2) + p1[a] - p1[b])
            arcs.append((a, b, w, label))
        yield vertices, arcs


def brute_shortest(vertices, arcs, source):
    """Least pair weight over the simple paths from source to each
    vertex (None when there is none), by enumerating the paths."""
    best = dict.fromkeys(vertices)
    best[source] = (0, 0)

    def walk(v, seen, w):
        for tail, head, (w0, w1), _ in arcs:
            if tail == v and head not in seen:
                cand = (w[0] + w0, w[1] + w1)
                if best[head] is None or cand < best[head]:
                    best[head] = cand
                walk(head, seen | {head}, cand)

    walk(source, {source}, (0, 0))
    return best


def test_shortest_paths_match_simple_path_enumeration():
    negative = 0
    for vertices, arcs in random_pair_digraphs(400, 21):
        negative += any(w < (0, 0) for _, _, w, _ in arcs)
        dist, pred = shortest_paths(vertices, arcs, 0)
        assert dist == brute_shortest(vertices, arcs, 0)
        by_label = {arc[3]: arc for arc in arcs}
        for v in vertices:
            if v == 0 or dist[v] is None:
                continue
            # The pred path is a real 0-v path of the reported weight.
            path = [by_label[label] for label in path_labels(pred, 0, v)]
            assert path[0][0] == 0 and path[-1][1] == v
            assert all(x[1] == y[0] for x, y in zip(path, path[1:]))
            assert (sum(a[2][0] for a in path),
                    sum(a[2][1] for a in path)) == dist[v]
    assert negative >= 150


@pytest.mark.parametrize("cycle", [((0, 1), (-1, 5)), ((2, -1), (-2, 0))])
def test_shortest_paths_raise_on_negative_cycle(cycle):
    (wa, wb) = cycle
    arcs = [("s", "a", (0, 0), "sa"), ("a", "b", wa, "ab"),
            ("b", "a", wb, "ba")]
    with pytest.raises(DomainError):
        shortest_paths(["s", "a", "b"], arcs, "s")
    # A negative cycle the source cannot reach is no obstacle.
    dist, _ = shortest_paths(["s", "a", "b"], arcs[1:], "s")
    assert dist == {"s": (0, 0), "a": None, "b": None}


def test_path_labels_follow_the_pred_tree():
    arcs = [("s", "a", (1, 0), "sa"), ("s", "b", (0, 0), "sb"),
            ("b", "a", (0, 0), "ba"), ("a", "t", (0, 0), "at"),
            ("b", "t", (2, 0), "bt")]
    dist, pred = shortest_paths(["s", "a", "b", "t"], arcs, "s")
    assert dist["t"] == (0, 0)
    assert path_labels(pred, "s", "t") == ["sb", "ba", "at"]
    assert path_labels(pred, "s", "b") == ["sb"]
    assert path_labels(pred, "s", "s") == []


def test_shortest_paths_keep_the_first_of_equal_paths():
    # Strict improvement only: the arc relaxed first keeps its tie.
    arcs = [("s", "t", (1, 1), "first"), ("s", "t", (1, 1), "second")]
    _, pred = shortest_paths(["s", "t"], arcs, "s")
    assert path_labels(pred, "s", "t") == ["first"]


def test_check_network(path_graph, triangle):
    check_network(path_graph)
    with pytest.raises(InputError):
        check_network(triangle)
    with pytest.raises(InputError):
        check_network(Graph.build(["s", "t"], [("st", "s", "t")]))
    with pytest.raises(InputError):
        check_network(Graph.build(["s", "t"], [("ss", "s", "s")],
                                  source="s", sink="t"))


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
