"""The k-flow auction.

The buyer wants k edge-disjoint s-t paths. The mechanism first prunes
the network to H, the support of a min-cost (k+1)-flow; inside H the
minimal k-flows are exactly the minimal vertex covers of a conflict
graph on H's edges, so the eigenvector cover auction applies directly.
Every Tot value in that instance is k, which makes the conflict graph's
spectral bound the frugality guarantee.

Costs may be the bids as given (pruning, exit caps), Fractions (nu) or
the cover auction's integer images of its scaled bids. `min_cost_flow`
solves on their exact integer images (see `rational.integer_costs`), so
a float cost never rounds inside a solve, and it returns the support it
chose, with no total. Inputs are checked where they enter:
`min_cost_flow` checks the network and each cost as it converts them,
so `fm_run`'s pruning solve rejects a missing, negative or non-finite
bid on any edge.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, InputError, MonopolyError
from .eigen import (AuctionOutcome, CoverSolver, VcInstance,
                    build_vc_instance, reduced_run)
from .graph import (Graph, adjacency, check_network, enumerate_st_paths,
                    path_labels, reach, shortest_paths)
from .rational import integer_costs, python_integers, tie_broken


def successive_shortest_paths(vertices, arcs: list, source: str, sink: str,
                              value=None, below=None) -> tuple[list, object]:
    """Min-cost s-t flow by successive shortest augmenting paths.

    Each arc is `(tail, head, capacity, (w0, w1))`: an integer capacity,
    or None for an uncapacitated arc, and integer weights that add and
    compare as pairs, as in `graph.shortest_paths`. The residual graph
    holds each arc forward at its weight while it has room and backward
    at minus its weight while it carries flow, in the order of `arcs`.
    Each round pushes the bottleneck along the shortest residual s-t
    path. The loop stops when the sink is out of reach, when the flow
    reaches `value`, or once the shortest path's w0 is `below` or more.
    Returns (the flow on each arc, in the order of `arcs`; the flow
    value). DomainError when a path has no capacitated arc and no
    `value` bounds the push."""
    flow = [0] * len(arcs)
    total = 0
    while value is None or total < value:
        # Arc i runs forward labelled i and backward labelled ~i < 0.
        residual = []
        for i, (tail, head, cap, w) in enumerate(arcs):
            if cap is None or flow[i] < cap:
                residual.append((tail, head, w, i))
            if flow[i] > 0:
                residual.append((head, tail, (-w[0], -w[1]), ~i))
        dist, pred = shortest_paths(vertices, residual, source)
        if dist[sink] is None or (below is not None
                                  and dist[sink][0] >= below):
            break
        path = path_labels(pred, source, sink)
        room = [flow[~i] if i < 0 else arcs[i][2] - flow[i]
                for i in path if i < 0 or arcs[i][2] is not None]
        if value is not None:
            room.append(value - total)
        if not room:
            raise DomainError("unbounded augmentation: no arc on the shortest "
                              "path has a capacity")
        delta = min(room)
        for i in path:
            if i < 0:
                flow[~i] -= delta
            else:
                flow[i] += delta
        total += delta
    return flow, total


def min_cost_flow(g: Graph, costs: dict, k: int) -> frozenset:
    """The support of a min-cost flow of value k under unit
    capacities: the ids of the edges that carry one unit.

    Successive shortest augmenting paths on the costs' exact integer
    images, perturbed by `rational.tie_broken`, so Fraction and float
    costs alike compare without rounding, and among equally cheap flows
    the support is the one the package's tie rule picks, whatever
    order the paths were found in. Raises DomainError when fewer than
    k disjoint paths exist.
    """
    check_network(g)
    edges = sorted(g.edges)  # by id
    _, main = integer_costs({e.id: costs.get(e.id) for e in edges})
    weight = tie_broken(main)
    arcs = [(e.tail, e.head, 1, (weight[e.id], 0)) for e in edges]
    flow, value = successive_shortest_paths(g.vertices, arcs, g.source,
                                            g.sink, value=k)
    if value < k:
        raise DomainError(f"network does not support {k} edge-disjoint paths")
    return frozenset(e.id for e, f in zip(edges, flow) if f)


def prune_to_support(g: Graph, costs: dict, k: int) -> Graph:
    """H: the subgraph on the support of a min-cost (k+1)-flow."""
    try:
        support = min_cost_flow(g, costs, k + 1)
    except DomainError as exc:
        raise MonopolyError(
            f"need {k + 1} edge-disjoint paths for a monopoly-free "
            f"{k}-flow auction") from exc
    return g.subgraph_edges(support)


def decompose_paths(g: Graph, k: int) -> list[list[str]]:
    """Partition g's edges into k edge-disjoint simple s-t paths.

    Backtracking search. DomainError when no such partition exists.
    """
    remaining = {e.id for e in g.edges}
    paths: list[list[str]] = []

    def walk(v, visited, trail):
        if v == g.sink:
            return finish(list(trail))
        for e in g.out_edges(v):
            if e.id not in remaining or e.head in visited:
                continue
            remaining.discard(e.id)
            trail.append(e.id)
            visited.add(e.head)
            if walk(e.head, visited, trail):
                return True
            visited.discard(e.head)
            trail.pop()
            remaining.add(e.id)
        return False

    def finish(trail):
        paths.append(trail)
        if len(paths) == k:
            if not remaining:
                return True
            paths.pop()
            return False
        if walk(g.source, {g.source}, []):
            return True
        paths.pop()
        return False

    if k == 0:
        if remaining:
            raise DomainError("leftover edges with zero paths requested")
        return []
    if not walk(g.source, {g.source}, []):
        raise DomainError(
            f"edge set does not split into {k} edge-disjoint simple paths")
    return paths


def conflict_graph(h: Graph) -> Graph:
    """Edges of h become vertices; two conflict when no k-flow can use
    both, i.e. neither one's head reaches the other's tail in h."""
    ids = sorted(e.id for e in h.edges)
    adj = adjacency(h.edges)
    reached = {v: reach(adj, v) for v in h.vertices}
    edges = []
    for a, b in itertools.combinations(ids, 2):
        ea, eb = h.edge_by_id[a], h.edge_by_id[b]
        if eb.tail not in reached[ea.head] and ea.tail not in reached[eb.head]:
            edges.append((f"{a}|{b}", a, b))
    return Graph.build(ids, edges, directed=False)


class FlowCoverSolver(CoverSolver):
    """Cover queries answered by min-cost k-flow computations.

    Minimal vertex covers of the conflict graph are exactly the minimal
    k-flows inside H, so a min cover is one min-cost k-flow in H; a
    priced-out edge drops out of it whenever H holds k paths without
    it.
    """

    def __init__(self, h: Graph, k: int):
        self.h = h
        self.k = k

    def min_cover(self, costs):
        return min_cost_flow(self.h, costs, self.k)


@lru_cache(maxsize=256)
def _flow_vc_instance(h: Graph, k: int) -> VcInstance:
    cg = conflict_graph(h)
    tot = {eid: Fraction(k) for eid in cg.vertices}
    return build_vc_instance(cg, tot, solver=FlowCoverSolver(h, k))


def vc_from_flow(h: Graph, k: int) -> VcInstance:
    """The cover-auction instance induced by a pruned flow network.
    DomainError unless h splits into k+1 edge-disjoint s-t paths, on
    which alone the cover correspondence holds."""
    decompose_paths(h, k + 1)
    return _flow_vc_instance(h, k)


def fm_run(g: Graph, costs: dict, k: int) -> AuctionOutcome:
    """Run the full flow auction: prune, reduce to covers, pay thresholds.

    Winners form a k-flow. Edges pruned out of H lose at price 0. A
    winner's payment is capped by the highest bid at which it stays in
    the min-cost (k+1)-flow that defines H. The pruning solve checks
    the network and every bid; numpy integer bids run as Python ints.

    H splits into k+1 simple paths unchecked: every `tie_broken` weight
    is positive, so a min-cost flow carries no cycle."""
    if k < 1:
        raise InputError("k must be at least 1")
    costs = python_integers(costs)
    h = prune_to_support(g, costs, k)

    return reduced_run(_flow_vc_instance(h, k), costs,
                       (e.id for e in g.edges),
                       lambda c: min_cost_flow(g, c, k + 1),
                       {"pruned_support": sorted(e.id for e in h.edges)})


def nu_flow_fast(h: Graph, costs: dict, k: int) -> Fraction:
    """The Nash bound for a k-flow system on a (k+1)-flow graph,
    without solving the LP.

    When every edge of h lies on one of k+1 edge-disjoint s-t paths,
    all equilibria equalize total bids across s-t paths at the cost of
    the most expensive one, so the bound is k times that path cost.
    DomainError when h is not a (k+1)-flow.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    check_network(h)
    integer_costs({e.id: costs.get(e.id) for e in h.edges})
    decompose_paths(h, k + 1)
    worst = max(sum(costs[eid] for eid in p) for p in enumerate_st_paths(h))
    return k * worst
