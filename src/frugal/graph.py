"""Exact multigraph representation and the graph-traversal layer used
by every mechanism.

Graphs are immutable after construction. Parallel edges are permitted
(and required: contraction produces parallel edge groups), and each
edge carries a stable unique id.

The traversal layer: `adjacency` builds a successor (or predecessor)
map, `reach` returns everything a vertex reaches in such a map, and
`components` returns undirected connected components; every
reachability question goes through them. `shortest_paths` is the one
shortest-path search, a Bellman-Ford on lexicographic integer pairs:
`flow.successive_shortest_paths` runs it on each residual graph it
augments in, and the cut auction on the relief flow's residual graph
to read off its candidate cuts. `path_labels` reads a path out of its
result. Traversal state lives for one call; a `Graph` caches only its
`edge_by_id` map and its sorted out-edge lists. `check_network` holds
the structural checks that flow and cut networks share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from . import caps
from .errors import DomainError, InputError, ScaleError
from .rational import format_rational, parse_rational


class Edge(NamedTuple):
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Graph:
    """Directed or undirected multigraph with optional designated s, t."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    directed: bool = True
    source: Optional[str] = None
    sink: Optional[str] = None

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise InputError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            if e.tail not in vset or e.head not in vset:
                raise InputError(f"edge {e.id!r} references unknown vertex")
        for endpoint in (self.source, self.sink):
            if endpoint is not None and endpoint not in vset:
                raise InputError(f"designated vertex {endpoint!r} not in graph")
        if self.source is not None and self.source == self.sink:
            raise InputError("source and sink must differ")

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]],
              directed: bool = True, source: str | None = None,
              sink: str | None = None) -> "Graph":
        return Graph(tuple(vertices), tuple(Edge(*e) for e in edges),
                     directed, source, sink)

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _out(self) -> dict[str, tuple[Edge, ...]]:
        adj: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append(e)
            if not self.directed:
                adj[e.head].append(Edge(e.id, e.head, e.tail))
        return {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in adj.items()}

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def neighbors(self, v: str) -> list[str]:
        """Distinct adjacent vertices (undirected sense), sorted."""
        nbrs = set()
        for e in self.edges:
            if e.tail == v and e.head != v:
                nbrs.add(e.head)
            if e.head == v and e.tail != v:
                nbrs.add(e.tail)
        return sorted(nbrs)

    def subgraph_edges(self, edge_ids: Iterable[str]) -> "Graph":
        """Subgraph on the given edges, keeping all incident vertices."""
        ids = set(edge_ids)
        unknown = ids.difference(e.id for e in self.edges)
        if unknown:
            raise InputError(f"unknown edge ids: {sorted(unknown)}")
        kept = tuple(e for e in self.edges if e.id in ids)
        verts = {v for e in kept for v in (e.tail, e.head)}
        for endpoint in (self.source, self.sink):
            if endpoint is not None:
                verts.add(endpoint)
        return Graph(tuple(sorted(verts)), kept, self.directed,
                     self.source, self.sink)


def enumerate_st_paths(g: Graph) -> list[list[str]]:
    """All simple directed s-t paths as ordered edge-id lists.

    Deterministic: paths come out in lexicographic order of their
    edge-id sequences. Raises ScaleError past `caps.PATH_CAP` paths.
    """
    if g.source is None or g.sink is None:
        raise InputError("graph has no designated source/sink")
    limit = caps.PATH_CAP
    paths: list[list[str]] = []
    trail: list[str] = []
    visited = {g.source}

    def dfs(v: str):
        if v == g.sink:
            if len(paths) >= limit:
                raise ScaleError(f"more than {limit} s-t paths")
            paths.append(list(trail))
            return
        for e in g.out_edges(v):
            if e.head in visited:
                continue
            visited.add(e.head)
            trail.append(e.id)
            dfs(e.head)
            trail.pop()
            visited.remove(e.head)

    dfs(g.source)
    return paths


def st_cut_crossings(g: Graph):
    """Yield, for every vertex set S holding s but not t, the ids of the
    edges leaving S. The sets come in order of size, then
    lexicographically on the sorted inner vertices. Raises ScaleError
    past `caps.COVER_AGENT_CAP` inner vertices."""
    inner = sorted(v for v in g.vertices if v not in (g.source, g.sink))
    limit = caps.COVER_AGENT_CAP
    if len(inner) > limit:
        raise ScaleError(f"cut enumeration capped at {limit} inner vertices")
    for r in range(len(inner) + 1):
        for combo in itertools.combinations(inner, r):
            side = {g.source, *combo}
            yield frozenset(e.id for e in g.edges
                            if e.tail in side and e.head not in side)


def adjacency(edges: Iterable, reverse: bool = False) -> dict[str, list[str]]:
    """Successor map of directed edges (anything with .tail and .head),
    or the predecessor map when `reverse` is set. Vertices without an
    outgoing arc are absent."""
    adj: dict[str, list[str]] = {}
    for e in edges:
        a, b = (e.head, e.tail) if reverse else (e.tail, e.head)
        adj.setdefault(a, []).append(b)
    return adj


def reach(adj: dict, start: str) -> set[str]:
    """Every vertex reachable from `start` in the map, `start` included."""
    seen = {start}
    todo = [start]
    while todo:
        for w in adj.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def components(vertices: Iterable[str],
               pairs: Iterable[tuple[str, str]]) -> list[list[str]]:
    """Connected components of the undirected graph on `vertices` with
    the given (u, v) pairs as edges. Each component is sorted, and the
    list is ordered by each component's smallest vertex."""
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[str] = set()
    comps = []
    for v in sorted(adj):
        if v not in seen:
            comp = reach(adj, v)
            seen |= comp
            comps.append(sorted(comp))
    return comps


def shortest_paths(vertices: Iterable[str], arcs: list, source: str):
    """Bellman-Ford from `source` on pair-weighted arcs.

    Each arc is `(tail, head, (w0, w1), label)` with integer weights;
    path weights add componentwise and compare lexicographically. Arcs
    are relaxed in the given order and only a strictly shorter path
    replaces a distance, so the predecessor tree depends only on the
    arc list. Returns (dist, pred): dist maps each vertex to its
    distance pair, or None when unreachable; pred maps each reached
    vertex but the source to the arc that reached it. DomainError on a
    negative cycle reachable from the source."""
    dist = dict.fromkeys(vertices)
    dist[source] = (0, 0)
    pred: dict = {}
    for _ in range(len(dist)):
        changed = False
        for arc in arcs:
            tail, head, (w0, w1), _ = arc
            d = dist[tail]
            if d is None:
                continue
            cand = (d[0] + w0, d[1] + w1)
            if dist[head] is None or cand < dist[head]:
                dist[head] = cand
                pred[head] = arc
                changed = True
        if not changed:
            return dist, pred
    raise DomainError("negative cycle in a residual graph")


def path_labels(pred: dict, source: str, sink: str) -> list:
    """The labels of the arcs on the pred-tree path from source to
    sink, in path order."""
    labels = []
    v = sink
    while v != source:
        tail, _, _, label = pred[v]
        labels.append(label)
        v = tail
    labels.reverse()
    return labels


def check_network(g: Graph) -> None:
    """InputError unless g is a network: directed, with designated s
    and t, and without self-loops."""
    if not g.directed:
        raise InputError("networks must be directed")
    if g.source is None or g.sink is None:
        raise InputError("networks need designated s, t")
    for e in g.edges:
        if e.tail == e.head:
            raise InputError(f"self-loop {e.id!r} not allowed in networks")


def reachable(g: Graph, a: str, b: str) -> bool:
    """True iff a directed path from a to b exists (a reaches itself;
    undirected edges run both ways)."""
    if a not in g._out or b not in g._out:
        raise InputError("unknown vertex in reachability query")
    return b in reach(adjacency(e for es in g._out.values() for e in es), a)


def graph_from_json(data: dict) -> tuple[Graph, Optional[dict]]:
    """Parse the documented graph JSON format.

    Returns (graph, costs) where costs maps edge id -> Fraction when any
    edge carries a "cost" field, else None.
    """
    if not isinstance(data, dict):
        raise InputError("graph JSON must be an object")
    try:
        directed = bool(data.get("directed", True))
        vertices = [str(v) for v in data["vertices"]]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise InputError(f"graph JSON missing key {exc}") from exc
    edges = []
    costs = {}
    for item in raw_edges:
        try:
            edges.append((str(item["id"]), str(item["tail"]), str(item["head"])))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad edge entry {item!r}") from exc
        if "cost" in item:
            costs[str(item["id"])] = parse_rational(item["cost"])
    g = Graph.build(vertices, edges, directed,
                    data.get("source"), data.get("sink"))
    return g, (costs or None)


def graph_to_json(g: Graph, costs: Optional[dict] = None) -> dict:
    data = {
        "directed": g.directed,
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head,
             **({"cost": format_rational(costs[e.id])} if costs else {})}
            for e in g.edges
        ],
    }
    if g.source is not None:
        data["source"] = g.source
    if g.sink is not None:
        data["sink"] = g.sink
    return data
