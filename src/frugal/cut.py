"""The s-t cut auction.

The pre-processing step buys a minimum-cost double cut: an edge set
meeting every s-t path at least twice. Contracting everything else
collapses the graph to parallel bundles E_i (s to v_i) and E_i' (v_i
to t); an s-t cut must take a full side of every bundle, which is a
vertex cover of a disjoint union of complete bipartite graphs. The
eigenvector cover auction finishes the job with Tot identically 1 and
each K_{a,b}'s Perron pair in closed form, within one ulp.

The double cut itself comes from a primal-dual algorithm. Its dual is
the relief flow, a min-cost flow in which every edge carries up to its
cost for free and any more at a price of 1 per unit (the relief), run
on the package's one augmenting loop, `flow.successive_shortest_paths`.
Candidate cuts read off the relief flow's residual graph are certified
optimal by weak duality against the exact dual objective, with an exact
LP fallback. Every solve runs on the costs' exact integer images (see
`rational.integer_costs`), and the auction's own selection minimises
their `rational.tie_broken` perturbation, the tie rule of the flow
auction and the cover queries too. Inputs are checked where they
enter: `min_double_cut` checks the network and each cost as it
converts them, and `select_double_cut` the edges off every s-t path, so
`cm_run` rejects a missing, negative or non-finite bid.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import DomainError, InputError, MonopolyError
from .eigen import (AuctionOutcome, ComponentEigenpair, CoverSolver,
                    VcInstance, reduced_run)
from .flow import successive_shortest_paths
from .graph import (Edge, Graph, adjacency, check_network, components,
                    enumerate_st_paths, reach, shortest_paths)
from .lp import GEQ, LEQ, LinearProgram, solve
from .rational import integer_costs, python_integers, tie_broken

ZERO = Fraction(0)


def _check_cut_input(g: Graph):
    check_network(g)
    for e in g.edges:
        if e.tail == g.source and e.head == g.sink:
            raise MonopolyError(f"edge {e.id!r} runs source to sink; "
                                f"no agent may be in every cut")
    if g.sink not in reach(adjacency(g.edges), g.source):
        raise DomainError("sink is unreachable; the cut system is trivial")


@dataclass(frozen=True)
class DoubleCutResult:
    double_cut: frozenset  # edge ids
    cost: Fraction
    dual_objective: Fraction
    method: str  # "primal-dual" | "lp-fallback"
    cuts: Optional[tuple[frozenset, frozenset]]  # (S1, S2) vertex sides
    flow_value: Optional[Fraction] = None
    relief_total: Optional[Fraction] = None


def is_double_cut(g: Graph, edge_ids: frozenset) -> bool:
    """True iff every s-t path uses at least two of the given edges.

    Computed as a 0-1 shortest path (chosen edges weigh 1)."""
    dist = {v: None for v in g.vertices}
    dist[g.source] = 0
    dq = deque([g.source])
    while dq:
        v = dq.popleft()
        for e in g.out_edges(v):
            w = 1 if e.id in edge_ids else 0
            nd = dist[v] + w
            if dist[e.head] is None or nd < dist[e.head]:
                dist[e.head] = nd
                if w:
                    dq.append(e.head)
                else:
                    dq.appendleft(e.head)
    return dist[g.sink] is None or dist[g.sink] >= 2


def _residual_arcs(g: Graph, costs, f, r):
    """Arcs of the relief residual graph, weighted (length, 1) so that
    length ties go to fewer hops, labelled (edge id, forward?).

    Forward arcs always exist (saturated edges have length 1);
    backward arcs exist for flow-carrying edges (length -1 when the
    edge holds positive relief). No residual graph in this algorithm
    has a cycle of negative total length."""
    arcs = []
    for e in sorted(g.edges, key=lambda e: e.id):
        saturated = f[e.id] == costs[e.id] + r[e.id]
        arcs.append((e.tail, e.head, (1 if saturated else 0, 1), (e.id, True)))
        if f[e.id] > 0:
            arcs.append((e.head, e.tail, (-1 if r[e.id] > 0 else 0, 1),
                         (e.id, False)))
    return arcs


def _relief_flow(g: Graph, costs):
    """The relief flow: the most 2 * value - relief over flows f with
    reliefs r >= 0 and f_e <= c_e + r_e, the dual of the double cut LP.

    A min-cost flow: each edge is an arc of capacity c_e and length 0
    beside an uncapacitated arc of length 1 whose flow is the edge's
    relief, and augmenting stops once the shortest residual s-t path
    is 2 or longer; a second weight of 1 per arc breaks length ties.
    Returns (f, r, flow value), keeping the costs' number type: int
    costs give int flows."""
    edges = sorted(g.edges, key=lambda e: e.id)
    arcs = []
    for e in edges:
        arcs.append((e.tail, e.head, costs[e.id], (0, 1)))
        arcs.append((e.tail, e.head, None, (1, 1)))
    flow, value = successive_shortest_paths(g.vertices, arcs, g.source,
                                            g.sink, below=2)
    r = {e.id: relief for e, relief in zip(edges, flow[1::2])}
    f = {e.id: free + r[e.id] for e, free in zip(edges, flow[::2])}
    return f, r, value


def _cut_candidates(g: Graph, costs, f, r):
    """Vertex-side pairs (S1, S2) to try as the two nested cuts.

    Distances live in the residual graph minus zero-flow forward arcs.
    S1 takes everything at distance <= 0. The preferred S2 complements
    the set of vertices that reach, at length <= 0, a vertex between a
    positive-distance relief edge and the sink; the simpler backstop is
    the distance <= 1 threshold."""
    arcs = [(a, b, w, (eid, fwd))
            for a, b, w, (eid, fwd) in _residual_arcs(g, costs, f, r)
            if not (fwd and f[eid] == 0)]
    dist, _ = shortest_paths(g.vertices, arcs, g.source)

    def d(v):
        return dist[v][0] if dist[v] is not None else None

    s1 = frozenset(v for v in g.vertices if d(v) is not None and d(v) <= 0)
    unreached = frozenset(v for v in g.vertices if dist[v] is None)
    candidates = []

    relief_far = [g.edge_by_id[eid] for eid in sorted(r)
                  if r[eid] > 0 and (d(g.edge_by_id[eid].tail) is None
                                     or d(g.edge_by_id[eid].tail) > 0)]
    if relief_far:
        arc_edges = [Edge(eid, a, b) for a, b, _, (eid, _) in arcs]
        to_sink = reach(adjacency(arc_edges, reverse=True), g.sink)
        # Vertices on a head-to-sink path; walks may not leave the sink,
        # else cycles through t pollute the set.
        no_exit = {**adjacency(arc_edges), g.sink: ()}
        u_set = set()
        for e in relief_far:
            u_set |= reach(no_exit, e.head) & to_sink
        s2_bar = set()
        for y in sorted(g.vertices):
            dy, _ = shortest_paths(g.vertices, arcs, y)
            if any(dy[w] is not None and dy[w][0] <= 0 for w in u_set):
                s2_bar.add(y)
        candidates.append((s1, frozenset(set(g.vertices) - s2_bar)))

    near = frozenset(v for v in g.vertices
                     if d(v) is not None and d(v) <= 1)
    candidates.append((s1, near | unreached))
    candidates.append((s1, near))
    return candidates


def _crossing(g: Graph, side) -> frozenset:
    return frozenset(e.id for e in g.edges
                     if e.tail in side and e.head not in side)


def _certified_cut(g: Graph, costs, s1, s2, dual_obj):
    if g.source not in s1 or g.sink in s1:
        return None
    if g.source not in s2 or g.sink in s2:
        return None
    c1, c2 = _crossing(g, s1), _crossing(g, s2)
    if c1 & c2:
        return None
    d = c1 | c2
    if not is_double_cut(g, d):
        return None
    if sum(costs[eid] for eid in d) != dual_obj:
        return None
    return d


def double_cut_lp(g: Graph, costs: dict) -> tuple[frozenset, Fraction]:
    """Exact LP for the minimum double cut.

    min c.x with every s-t path covered twice and x in [0,1]; the
    constraint matrix is totally unimodular so the simplex vertex is
    integral."""
    order = sorted(e.id for e in g.edges)
    idx = {eid: i for i, eid in enumerate(order)}
    rows = []
    for path in enumerate_st_paths(g):
        coeffs = [ZERO] * len(order)
        for eid in path:
            coeffs[idx[eid]] = Fraction(1)
        rows.append((coeffs, GEQ, Fraction(2)))
    for i in range(len(order)):
        coeffs = [ZERO] * len(order)
        coeffs[i] = Fraction(1)
        rows.append((coeffs, LEQ, Fraction(1)))
    lp = LinearProgram.build([-costs[eid] for eid in order], rows)
    sol = solve(lp)
    if sol.status != "optimal":
        raise DomainError(f"double cut LP is {sol.status}")
    chosen = set()
    for eid, x in zip(order, sol.assignment):
        if x not in (0, 1):
            raise DomainError("double cut LP returned a fractional vertex")
        if x == 1:
            chosen.add(eid)
    return frozenset(chosen), -sol.value


def min_double_cut(g: Graph, costs: dict,
                   canonical: bool = False) -> DoubleCutResult:
    """Minimum-cost edge set meeting every s-t path at least twice.

    Primal-dual first; any failure to certify the relief flow's
    complementary slackness falls back to the exact LP. Both run on the
    integer costs D * c_e, D the lcm of the cost denominators; the
    algorithm's choices do not depend on a common positive scale, and
    cost, dual objective, flow value and relief total are divided by D,
    so the result reports exact Fractions in the input's units.

    With `canonical=True` the solve runs on the perturbed costs of
    `rational.tie_broken`, so among equally cheap double cuts the one
    chosen depends only on the cost vector, never on how the optimum
    was found. The auction needs this: an agent's bid must not be able
    to steer which of two tied double cuts gets selected. The result
    reports cost and dual objective in original units; flow value and
    relief total exist only in perturbed units and are left None.
    Without it, only the cost is fixed: which of several cheapest cuts
    comes back depends on the solver's path."""
    _check_cut_input(g)
    order = sorted(e.id for e in g.edges)
    scale, exact = integer_costs({eid: costs.get(eid) for eid in order})
    solve_costs = tie_broken(exact) if canonical else exact
    d, dual_obj, method, cuts, relief = _min_double_cut_any(g, solve_costs)
    cost = Fraction(sum(exact[eid] for eid in d), scale)
    if canonical:
        return DoubleCutResult(d, cost, cost, method, cuts)
    return DoubleCutResult(d, cost, Fraction(dual_obj, scale), method,
                           cuts, *(Fraction(x, scale) for x in relief))


def _min_double_cut_any(g: Graph, costs: dict):
    """(double cut, dual objective, method, cuts, (flow value, relief
    total)) on integer costs; the last two are None and () when the LP
    fallback answers."""
    f, r, flow_value = _relief_flow(g, costs)
    relief_total = sum(r.values())
    dual_obj = 2 * flow_value - relief_total
    for s1, s2 in _cut_candidates(g, costs, f, r):
        d = _certified_cut(g, costs, s1, s2, dual_obj)
        if d is not None:
            return (d, dual_obj, "primal-dual", (s1, s2),
                    (flow_value, relief_total))
    chosen, value = double_cut_lp(g, costs)
    return chosen, value, "lp-fallback", None, ()


def prune_redundant(g: Graph, costs: dict, d: frozenset) -> frozenset:
    """Drop zero-cost edges whose removal keeps d a double cut.

    Positive-cost edges in a minimum double cut are never redundant,
    so this restores inclusion-minimality without changing the cost.
    Edges are tried in ascending id order for determinism."""
    out = set(d)
    for eid in sorted(d):
        if costs[eid] == 0 and is_double_cut(g, frozenset(out - {eid})):
            out.discard(eid)
    return frozenset(out)


@dataclass(frozen=True)
class BundleStructure:
    h: Graph
    # one entry per middle block v_i: (v_i, E_i edge ids, E_i' edge ids)
    bundles: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]


def contract_to_h(g: Graph, d: frozenset) -> BundleStructure:
    """Collapse everything outside d and classify the d edges into
    source-side and sink-side bundles.

    Blocks are derived from d itself: the source block holds every
    vertex reachable from s without crossing d, the sink block every
    vertex that reaches t without crossing d, and each remaining
    connected component (under non-d edges) becomes one middle block.
    Deriving the blocks this way keeps backward non-d edges from
    merging the source and sink blocks spuriously, and makes the
    result depend only on (g, d), not on how d was found.

    DomainError when d has no two-level form: d-edges inside a block
    or between two middle blocks, direct s-t edges, edges running
    backward between blocks, or one-sided bundles."""
    unknown = set(d) - set(g.edge_by_id)
    if unknown:
        raise InputError(f"unknown edge ids: {sorted(unknown)}")
    s, t = g.source, g.sink
    residual = [e for e in g.edges if e.id not in d]
    s_block = reach(adjacency(residual), s)
    t_block = reach(adjacency(residual, reverse=True), t)
    if s_block & t_block:
        raise DomainError("an s-t path avoids the edge set entirely; "
                          "it is not a double cut")

    # Non-d edges among the leftover vertices join them into middle
    # blocks, each named by its smallest member.
    block = {v: s for v in s_block}
    block.update((v, t) for v in t_block)
    leftover = [v for v in g.vertices if v not in block]
    for comp in components(leftover, [(e.tail, e.head) for e in residual
                                      if e.tail not in block
                                      and e.head not in block]):
        block.update((v, comp[0]) for v in comp)

    sides: dict[str, tuple[list, list]] = {}
    h_edges = []
    for eid in sorted(d):
        e = g.edge_by_id[eid]
        tail, head = block[e.tail], block[e.head]
        h_edges.append((e.id, tail, head))
        if tail == head:
            raise DomainError(f"edge {e.id!r} lies inside a contracted block; "
                              f"the double cut is not minimal")
        if tail == s and head == t:
            raise DomainError("contracted graph has a direct s-t edge")
        if head == s or tail == t:
            raise DomainError(f"edge {e.id!r} runs backward between blocks; "
                              f"the double cut is not minimal")
        if tail == s:
            sides.setdefault(head, ([], []))[0].append(e.id)
        elif head == t:
            sides.setdefault(tail, ([], []))[1].append(e.id)
        else:
            raise DomainError(f"edge {e.id!r} connects two middle blocks; "
                              f"the double cut is not minimal")
    h = Graph.build(sorted({s, t, *(v for v in sides)}), h_edges,
                    directed=True, source=s, sink=t)
    for v, (left, right) in sides.items():
        if not left or not right:
            raise DomainError(f"block {v!r} has a one-sided bundle; "
                              f"the double cut is not minimal")
    tidy = tuple((v, tuple(sorted(sides[v][0])), tuple(sorted(sides[v][1])))
                 for v in sorted(sides))
    return BundleStructure(h, tidy)


def cut_conflict_graph(bundles: BundleStructure) -> Graph:
    """Disjoint union of complete bipartite graphs: one per bundle,
    pairing each source-side edge with each sink-side edge."""
    ids = sorted(e.id for e in bundles.h.edges)
    edges = []
    for _, left, right in bundles.bundles:
        for a, b in itertools.product(left, right):
            lo, hi = sorted((a, b))
            edges.append((f"{lo}|{hi}", lo, hi))
    return Graph.build(ids, edges, directed=False)


class CutCoverSolver(CoverSolver):
    """Cover queries on a disjoint union of complete bipartite bundles.

    A minimal cover takes one full side per bundle, so a min cover is
    the cheaper side of each bundle."""

    def __init__(self, bundles: BundleStructure):
        self.bundles = bundles.bundles

    def min_cover(self, costs):
        def cost(ids):
            return sum(costs[i] for i in ids)

        return frozenset(i for _, left, right in self.bundles
                         for i in min(left, right, key=cost))


@lru_cache(maxsize=256)
def _cut_vc_instance(bundles: BundleStructure) -> VcInstance:
    """The bundles' cover instance, Tot 1 on every agent, with no power
    iteration: bundle i is the component K_{a,b}, a = |E_i|, b = |E_i'|,
    whose Perron pair is sqrt(ab) with entries sqrt(b) on E_i and
    sqrt(a) on E_i', scaled to 1.0 on the smaller side."""
    comps = []
    for _, left, right in bundles.bundles:
        a, b = len(left), len(right)
        comps.append(ComponentEigenpair(
            tuple(sorted(left + right)), math.sqrt(a * b),
            {**dict.fromkeys(left, min(1.0, math.sqrt(b / a))),
             **dict.fromkeys(right, min(1.0, math.sqrt(a / b)))}))
    comps.sort(key=lambda c: c.agents)
    cg = cut_conflict_graph(bundles)
    return VcInstance(cg, dict.fromkeys(cg.vertices, Fraction(1)),
                      tuple(comps), CutCoverSolver(bundles), (), cg.vertices,
                      {a: x for c in comps for a, x in c.vector.items()})


def path_edge_ids(g: Graph) -> frozenset:
    """Edges lying on at least one s-t path."""
    from_s = reach(adjacency(g.edges), g.source)
    to_t = reach(adjacency(g.edges, reverse=True), g.sink)
    return frozenset(e.id for e in g.edges
                     if e.tail in from_s and e.head in to_t)


def select_double_cut(g: Graph, costs: dict) -> tuple[Graph, DoubleCutResult]:
    """The double cut the cut auction buys, and how it was found.

    The canonical minimum double cut of the path core (the subgraph of
    edges on some s-t path); it is inclusion-minimal as it stands.
    Returns (core, the solve's DoubleCutResult). The solve checks the
    core, and this the rest of g."""
    check_network(g)
    integer_costs({e.id: costs.get(e.id) for e in g.edges})
    core = g.subgraph_edges(path_edge_ids(g))
    return core, min_double_cut(core, costs, canonical=True)


def cm_run(g: Graph, costs: dict) -> AuctionOutcome:
    """Run the full cut auction: buy a double cut, collapse to bundles,
    then hold the eigenvector cover auction. Winners form an s-t cut;
    edges outside the double cut lose at price 0. A winner's payment is
    capped by the highest bid at which it stays in the selected double
    cut.

    The auction happens on the subgraph of edges lying on some s-t
    path. Off-path edges can't appear in a minimal cut, and contracting
    them would spuriously merge blocks through edges no path uses.
    Numpy integer bids run as Python ints."""
    costs = python_integers(costs)
    return auction_on_double_cut(g, costs, *select_double_cut(g, costs))


def auction_on_double_cut(g: Graph, costs: dict, core: Graph,
                          result: DoubleCutResult) -> AuctionOutcome:
    """The second half of `cm_run`: the cover auction on the double cut
    that `select_double_cut(g, costs)` returned as (core, result)."""
    d = result.double_cut

    def solve(c):
        return min_double_cut(core, c).double_cut

    return reduced_run(_cut_vc_instance(contract_to_h(core, d)), costs,
                       (e.id for e in g.edges), solve,
                       {"double_cut": sorted(d),
                        "double_cut_method": result.method})
