"""Output checks computed apart from the library.

Every function here takes an auction's inputs and its `AuctionOutcome`
and returns a list of problems (empty when the outcome is right). The
references come from networkx, numpy and scipy, never from `frugal`.
Payments are floats, so payment comparisons use a relative tolerance.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import networkx as nx
import numpy as np

REL_TOL = 1e-9


def _below(paid: float, bid: Fraction) -> bool:
    return paid < float(bid) - REL_TOL * max(1.0, float(bid))


def payment_problems(winners, payments: dict, bids: dict) -> list[str]:
    """Losers are paid 0; each winner at least its bid."""
    out = []
    for agent, bid in bids.items():
        paid = payments.get(agent, 0.0)
        if agent in winners and _below(paid, bid):
            out.append(f"winner {agent} paid {paid} below its bid {bid}")
        elif agent not in winners and paid != 0:
            out.append(f"loser {agent} paid {paid}")
    return out


def _scale(costs: dict) -> tuple[int, dict]:
    """Integer costs with the same ratios: (factor, agent -> int)."""
    factor = math.lcm(*(c.denominator for c in costs.values()))
    return factor, {a: int(c * factor) for a, c in costs.items()}


# ---------------------------------------------------------------- vertex cover

class CoverReference:
    """Exact facts about one conflict graph, computed independently:
    tot(v) as the fractional clique number of v's neighbourhood (HiGHS
    LP over its maximal independent sets), each component's dominant
    eigenpair of D^1/2 A D^1/2 from `numpy.linalg.eigh`, and the
    membership matrix of every vertex cover."""

    def __init__(self, vertices, edges):
        from scipy.optimize import linprog

        self.agents = sorted(vertices)
        self.edges = sorted({tuple(sorted(e)) for e in edges})
        g = nx.Graph()
        g.add_nodes_from(self.agents)
        g.add_edges_from(self.edges)
        self.tot = {}
        for v in self.agents:
            nbhd = g.subgraph(g[v])
            sets = list(nx.find_cliques(nx.complement(nbhd)))
            nodes = sorted(nbhd)
            a_ub = [[1.0 if u in s else 0.0 for u in nodes] for s in sets]
            res = linprog([-1.0] * len(nodes), A_ub=a_ub,
                          b_ub=[1.0] * len(sets), bounds=(0, None))
            self.tot[v] = -res.fun
        self.q = {}
        self.eigenvalues = []
        for comp in nx.connected_components(g):
            comp = sorted(comp)
            adj = nx.to_numpy_array(g, nodelist=comp)
            d_half = np.array([self.tot[v] ** -0.5 for v in comp])
            vals, vecs = np.linalg.eigh(d_half[:, None] * adj * d_half[None, :])
            self.eigenvalues.append(float(vals[-1]))
            q = d_half * np.abs(vecs[:, -1])
            q /= q.max()
            self.q.update(zip(comp, q))
        n = len(self.agents)
        index = {a: i for i, a in enumerate(self.agents)}
        masks = np.arange(1 << n)[:, None] >> np.arange(n)[None, :] & 1
        covers = np.ones(len(masks), dtype=bool)
        for u, v in self.edges:
            covers &= (masks[:, index[u]] | masks[:, index[v]]).astype(bool)
        self.covers = masks[covers].astype(float)


def vc_problems(ref: CoverReference, bids: dict, outcome) -> list[str]:
    out = []
    winners = outcome.winners
    if any(u not in winners and v not in winners for u, v in ref.edges):
        out.append("winners miss a conflict edge")
    out += payment_problems(winners, outcome.payments, bids)
    lam = max(ref.eigenvalues)
    bound = lam * sum(float(bids[v]) * ref.tot[v] for v in ref.agents)
    if outcome.total_payment > bound * (1 + REL_TOL) + REL_TOL:
        out.append(f"total payment {outcome.total_payment} above "
                   f"lambda * sum c_v tot(v) = {bound}")
    got = sorted(outcome.diagnostics["lambda"])
    want = sorted(ref.eigenvalues)
    if len(got) != len(want) or any(abs(a - b) > REL_TOL * max(1.0, b)
                                    for a, b in zip(got, want)):
        out.append(f"component eigenvalues {got} differ from eigh {want}")
    scaled = np.array([float(bids[a]) / ref.q[a] for a in ref.agents])
    best = float((ref.covers @ scaled).min())
    mine = sum(float(bids[a]) / ref.q[a] for a in winners)
    if abs(mine - best) > REL_TOL * max(1.0, best):
        out.append(f"winners' scaled cost {mine} is not the minimum {best}")
    return out


# ---------------------------------------------------------------- flows

def _capacity_graph(g, edge_ids) -> nx.DiGraph:
    """Unit-capacity edges, parallel ones merged into one capacity."""
    net = nx.DiGraph()
    net.add_nodes_from(g.vertices)
    for e in g.edges:
        if e.id in edge_ids:
            if net.has_edge(e.tail, e.head):
                net[e.tail][e.head]["capacity"] += 1
            else:
                net.add_edge(e.tail, e.head, capacity=1)
    return net


def min_cost_flow_value(g, costs: dict, units: int) -> Fraction:
    """Min cost of `units` edge-disjoint s-t paths; each edge is split
    through a midpoint node so parallel edges stay distinct."""
    factor, weight = _scale(costs)
    net = nx.DiGraph()
    net.add_node(g.source, demand=-units)
    net.add_node(g.sink, demand=units)
    for e in g.edges:
        mid = ("mid", e.id)
        net.add_edge(e.tail, mid, capacity=1, weight=weight[e.id])
        net.add_edge(mid, e.head, capacity=1, weight=0)
    return Fraction(nx.min_cost_flow_cost(net), factor)


def flow_problems(g, bids: dict, k: int, outcome) -> list[str]:
    out = []
    winners = outcome.winners
    paths = nx.maximum_flow_value(_capacity_graph(g, winners),
                                  g.source, g.sink)
    if paths < k:
        out.append(f"winners hold {paths} edge-disjoint paths, need {k}")
    support = outcome.diagnostics["pruned_support"]
    cost = sum((bids[e] for e in support), Fraction(0))
    best = min_cost_flow_value(g, bids, k + 1)
    if cost != best:
        out.append(f"pruned support costs {cost}, min-cost {k + 1}-flow "
                   f"costs {best}")
    out += payment_problems(winners, outcome.payments, bids)
    return out


# ---------------------------------------------------------------- cuts

def _multigraph(g, skip=()) -> nx.MultiDiGraph:
    net = nx.MultiDiGraph()
    net.add_nodes_from(g.vertices)
    for e in g.edges:
        if e.id not in skip:
            net.add_edge(e.tail, e.head, key=e.id)
    return net


def min_double_cut_value(g, costs: dict) -> Fraction:
    """Min cost of an edge set meeting every s-t path twice, by
    `scipy.optimize.milp` over one constraint per s-t path."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    order = sorted(costs)
    index = {eid: i for i, eid in enumerate(order)}
    rows = []
    for path in nx.all_simple_edge_paths(_multigraph(g), g.source, g.sink):
        row = [0] * len(order)
        for _u, _v, eid in path:
            row[index[eid]] = 1
        rows.append(row)
    factor, weight = _scale(costs)
    res = milp([weight[eid] for eid in order],
               constraints=LinearConstraint(rows, lb=2),
               integrality=np.ones(len(order)), bounds=Bounds(0, 1))
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return Fraction(round(res.fun), factor)


def hits_every_path_twice(g, edge_ids) -> bool:
    """Shortest s-t path with the given edges weighing 1, others 0."""
    net = nx.DiGraph()
    net.add_nodes_from(g.vertices)
    for e in g.edges:
        w = 1 if e.id in edge_ids else 0
        if not net.has_edge(e.tail, e.head) or net[e.tail][e.head]["w"] > w:
            net.add_edge(e.tail, e.head, w=w)
    try:
        return nx.shortest_path_length(net, g.source, g.sink, weight="w") >= 2
    except nx.NetworkXNoPath:
        return True


def cut_problems(g, bids: dict, outcome) -> list[str]:
    out = []
    winners = outcome.winners
    if nx.has_path(_multigraph(g, skip=winners), g.source, g.sink):
        out.append("deleting the winners leaves an s-t path")
    d = set(outcome.diagnostics["double_cut"])
    if not hits_every_path_twice(g, d):
        out.append("double cut misses an s-t path or meets it once")
    cost = sum((bids[e] for e in d), Fraction(0))
    best = min_double_cut_value(g, bids)
    if cost != best:
        out.append(f"double cut costs {cost}, the milp optimum is {best}")
    out += payment_problems(winners, outcome.payments, bids)
    return out


# ---------------------------------------------------------------- controls

def drop_winner(outcome, bids):
    """The outcome with its costliest positive-bid winner moved to the
    losers (its payment kept), or None when no winner bids above 0."""
    pick = max((w for w in outcome.winners if bids[w] > 0),
               key=lambda w: (bids[w], w), default=None)
    if pick is None:
        return None
    return _replace(outcome, winners=outcome.winners - {pick})


def underpay_winner(outcome, bids):
    """The outcome with one positive-bid winner paid half its bid."""
    pick = min((w for w in outcome.winners if bids[w] > 0), default=None)
    if pick is None:
        return None
    payments = dict(outcome.payments)
    payments[pick] = float(bids[pick]) / 2
    return _replace(outcome, payments=payments,
                    total_payment=sum(payments.values()))


def shrink_double_cut(outcome, bids):
    """The outcome with the first edge of its double cut removed."""
    d = sorted(outcome.diagnostics["double_cut"])
    diagnostics = dict(outcome.diagnostics, double_cut=d[1:])
    return _replace(outcome, diagnostics=diagnostics)


def _replace(outcome, **changes):
    return dataclasses.replace(outcome, **changes)
