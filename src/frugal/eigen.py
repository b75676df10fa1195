"""The eigenvector-scaled Vertex Cover auction.

Each agent's bid is divided by its entry in the dominant eigenvector of
K = D A, where A is the conflict-graph adjacency matrix and
D = diag(1/Tot(v)). Selection is a min-cost vertex cover under the
scaled bids; winners are paid threshold bids.

Every cover solver answers one query, `min_cover(costs)`. The brute
force answers the query for a cover without an agent by its definition,
the cheapest cover among the other agents; the other solvers price that
agent out (`price_out`). `build_vc_instance`, which the vertex-cover
and flow auctions use, computes eigenpairs per connected component in
floating point, by a pure-Python power iteration on the symmetrized
D^{1/2} A D^{1/2} over the component's adjacency lists. Each row of its
product is one correctly rounded sum (`math.fsum`), so agents that an
automorphism of the conflict graph and its Tot swaps get the same entry,
bit for bit, and no entry depends on the order a set lists neighbours
in. The iteration stops on a residual of `EIGEN_RESIDUAL_TOL`, but q's
error is that residual over the spectral gap: up to 2.7e-10 relative
against numpy's `eigh` on seeded G(n, p) components. The cut auction's
conflict graph is a disjoint union of complete bipartite graphs K_{a,b}
with Tot 1, whose Perron pairs `cut._cut_vc_instance` writes down in
closed form, within one ulp. The exact Nash quantities stay rational
elsewhere, so scaled bids and payments here are floats. Each threshold
is one correctly rounded sum of scaled bids over two covers, so it
keeps its low bits even when the covers cost 2^53 or more.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Iterable

from . import caps
from .errors import DomainError, InputError, ScaleError
from .graph import Graph, components
from .rational import integer_costs, tie_broken

EIGEN_RESIDUAL_TOL = 1e-12
RAYLEIGH_TOL = 1e-14
MAX_POWER_ITERATIONS = 200_000


def price_out(values: Iterable):
    """A price at which an agent loses whenever anything can replace it:
    2 * sum(values) + 1, above every set the other values can buy. The
    doubling keeps it above the sum in float too, where from 2^53
    upwards `sum + 1` rounds back to the sum."""
    return 2 * sum(values) + 1


class CoverSolver(ABC):
    """A min-cost vertex cover oracle on one conflict graph.

    Every query returns the cover it chose, as a frozenset. Subclasses
    must answer `min_cover`; the two constrained queries are that query
    at changed prices unless a subclass answers one itself, as the
    brute force does for `min_cover_excluding`. Solvers compare cover
    costs alone: `ev_run` asks on the `rational.tie_broken` integers of
    the scaled bids, where no two covers cost the same, so its queries
    are free of ties. On tied costs from any other caller, which
    cheapest cover comes back is the solver's own affair."""

    @abstractmethod
    def min_cover(self, costs: dict) -> frozenset:
        """A min-cost cover under `costs`."""

    def min_cover_excluding(self, agent: str, costs: dict) -> frozenset:
        """Min cover without `agent`: `agent` priced out. DomainError
        when `agent` wins even so."""
        cover = self.min_cover({**costs, agent: price_out(costs.values())})
        if agent in cover:
            raise DomainError(f"agent {agent!r} is in every cover")
        return cover

    def min_cover_containing(self, agent: str, costs: dict) -> frozenset:
        """Min cover containing `agent`, with `agent` priced at 0."""
        return self.min_cover({**costs, agent: 0 * costs[agent]}) | {agent}


@dataclass(frozen=True)
class ComponentEigenpair:
    agents: tuple[str, ...]
    eigenvalue: float
    vector: dict  # agent -> positive float, max entry 1


@dataclass(frozen=True)
class VcInstance:
    conflict_graph: Graph  # isolated agents already stripped
    tot: dict  # agent -> Fraction, >= 1 on every non-isolated agent
    components: tuple[ComponentEigenpair, ...]
    solver: CoverSolver
    isolated: tuple[str, ...]
    agents: tuple[str, ...]  # the conflict graph's vertices, sorted
    q: dict  # agent -> its component's eigenvector entry

    @property
    def max_eigenvalue(self) -> float:
        """The largest component eigenvalue; 0.0 with no edges, as
        `ev_frugality_on_units` gives there."""
        return max((c.eigenvalue for c in self.components), default=0.0)


@dataclass(frozen=True, slots=True)
class AuctionOutcome:
    winners: frozenset
    payments: dict  # agent -> float; losers carry 0.0
    total_payment: float
    diagnostics: dict = field(default_factory=dict)


def _component_eigenpair(agents: list[str], adj: set[tuple[str, str]],
                         tot: dict) -> ComponentEigenpair:
    """Power iteration on K' + I, K' = D^{1/2} A D^{1/2}: the shift makes
    the Perron root strictly dominant even on bipartite components.

    Row i of K' + I is the shift's 1 on the diagonal and
    sqrt(d_i) sqrt(d_j) for each neighbour j, and each row of a product
    is one `math.fsum`. A row's value is then one rounding of its exact
    sum, whatever order `adj` lists the neighbours in, and agents that
    an automorphism of the graph and its Tot swaps get the same bits.
    Each step makes one product y = (K' + I) v of the unit vector v: it
    gives v's Rayleigh quotient v.y, the residual of q = D^{1/2} v
    under K = D A, which is D^{1/2} (y - (lambda + 1) v), and, once
    normalised, the next v."""
    n = len(agents)
    index = {a: i for i, a in enumerate(agents)}
    d_half = [math.sqrt(1.0 / float(tot[a])) for a in agents]
    cols = [[i] for i in range(n)]
    for u, v in adj:
        cols[index[u]].append(index[v])
        cols[index[v]].append(index[u])
    rows = [(itemgetter(*c), [1.0] + [d_half[i] * d_half[j] for j in c[1:]])
            for i, c in enumerate(cols)]

    def product(vec):
        return [math.fsum(map(mul, weights, take(vec)))
                for take, weights in rows]

    vec = [1.0 / math.sqrt(n)] * n
    image = product(vec)
    rayleigh = math.fsum(map(mul, vec, image))
    for _ in range(MAX_POWER_ITERATIONS):
        norm = math.hypot(*image)
        vec = [x / norm for x in image]
        image = product(vec)
        new_rayleigh = math.fsum(map(mul, vec, image))
        converged = abs(new_rayleigh - rayleigh) < RAYLEIGH_TOL
        rayleigh = new_rayleigh
        if converged:
            q = [d * x for d, x in zip(d_half, vec)]
            resid = max(d * abs(y - rayleigh * x)
                        for d, x, y in zip(d_half, vec, image))
            if resid <= EIGEN_RESIDUAL_TOL * max(q):
                break
    else:
        raise DomainError("power iteration failed to reach eigen tolerance")
    top = max(q)
    return ComponentEigenpair(tuple(agents), rayleigh - 1.0,
                              {a: x / top for a, x in zip(agents, q)})


class BruteForceCoverSolver(CoverSolver):
    """Exhaustive min-cost vertex cover over agent subsets, visited by
    size, then lexicographically; the first cheapest one wins.

    A cover without an agent is the cheapest among the subsets of the
    other agents, not a query with that agent priced out, so this solver
    checks `price_out` rather than using it. ScaleError past
    `caps.COVER_AGENT_CAP` agents (2^20 subsets at 20).
    """

    def __init__(self, conflict_graph: Graph):
        self.agents = tuple(sorted(conflict_graph.vertices))
        self.edges = tuple(sorted({tuple(sorted((e.tail, e.head)))
                                   for e in conflict_graph.edges
                                   if e.tail != e.head}))
        if len(self.agents) > caps.COVER_AGENT_CAP:
            raise ScaleError(f"brute-force cover solver capped at "
                             f"{caps.COVER_AGENT_CAP} agents")

    def min_cover(self, costs):
        return self._cheapest_cover(self.agents, costs)

    def min_cover_excluding(self, agent, costs):
        """Min cover among the subsets of the other agents: half the
        subsets, and on non-negative costs the cover that pricing
        `agent` out picks, ties included. The other agents always cover
        the loopless edges this solver checks, so unlike the base
        class's query this one raises no DomainError."""
        return self._cheapest_cover(
            tuple(a for a in self.agents if a != agent), costs)

    def _cheapest_cover(self, agents, costs):
        """The first cheapest cover among the subsets of `agents`, by
        size, then lexicographically."""
        best = None
        for r in range(len(agents) + 1):
            for combo in itertools.combinations(agents, r):
                sel = set(combo)
                if any(u not in sel and v not in sel for u, v in self.edges):
                    continue
                cost = sum(costs[a] for a in combo)
                if best is None or cost < best[0]:
                    best = cost, combo
        return frozenset(best[1])


class MinimalCoverSolver(CoverSolver):
    """Cover queries answered from the precomputed minimal covers.

    Every cover contains a minimal one and extra vertices only add
    cost, so a min cover is a minimum over the minimal-cover list. Far
    faster than subset enumeration when the same instance sees many bid
    vectors."""

    def __init__(self, conflict_graph: Graph):
        from .setsystems import _minimal_vertex_covers
        self.covers = [tuple(sorted(c))
                       for c in _minimal_vertex_covers(conflict_graph)]

    def min_cover(self, costs):
        return frozenset(min(self.covers,
                             key=lambda c: sum(costs[a] for a in c)))


def build_vc_instance(conflict_graph: Graph, tot: dict,
                      solver: CoverSolver | None = None) -> VcInstance:
    """Strip isolated agents, then compute per-component eigenpairs.

    Only the remaining agents need a Tot value. It passes the cost rule
    of `rational.integer_costs` and must be >= 1; an isolated agent's
    Tot is 0 (its neighbourhood is empty)."""
    if conflict_graph.directed:
        raise InputError("conflict graph must be undirected")
    if any(e.tail == e.head for e in conflict_graph.edges):
        raise InputError("conflict graph must have no self-loops")

    touched = {v for e in conflict_graph.edges for v in (e.tail, e.head)}
    isolated = tuple(sorted(set(conflict_graph.vertices) - touched))
    live = tuple(sorted(touched))
    try:
        integer_costs({v: tot.get(v) for v in live})
    except InputError as exc:
        raise InputError(f"Tot values follow the cost rule: {exc}") from None
    for v in live:
        if tot[v] < 1:
            raise InputError(f"Tot({v!r}) must be >= 1")
    stripped = Graph(live, conflict_graph.edges, directed=False)

    adj = {tuple(sorted((e.tail, e.head))) for e in stripped.edges}
    comps = []
    for agents in components(live, adj):
        agent_set = set(agents)
        local_adj = {pair for pair in adj if pair[0] in agent_set}
        comps.append(_component_eigenpair(agents, local_adj, tot))
    if solver is None:
        solver = BruteForceCoverSolver(stripped)
    q = {a: x for comp in comps for a, x in comp.vector.items()}
    return VcInstance(stripped, dict(tot), tuple(comps), solver, isolated,
                      live, q)


def scaled_costs(inst: VcInstance, bids: dict) -> dict:
    """Each agent's bid divided by its eigenvector entry. Every bid,
    an isolated agent's too, passes the package's one cost rule first:
    a missing, non-finite or negative bid is an InputError, and so is
    a bid whose float, or that float divided by q, overflows."""
    integer_costs({a: bids.get(a) for a in (*inst.agents, *inst.isolated)})
    scaled = {}
    for a in inst.agents:
        try:
            scaled[a] = float(bids[a]) / inst.q[a]
        except OverflowError:
            scaled[a] = math.inf
        if scaled[a] == math.inf:
            raise InputError(f"bid for {a!r} overflows a float once scaled")
    return scaled


def _rounded_sum(terms: list, what: str) -> float:
    """The exact sum of the float `terms`, rounded once. `math.fsum`
    also overflows on partial sums past the float range, so the exact
    sum decides; an InputError naming `what` if it overflows too."""
    try:
        return math.fsum(terms)
    except OverflowError:
        pass
    try:
        return float(sum(map(Fraction, terms)))
    except OverflowError:
        raise InputError(f"{what} overflows a float") from None


def ev_run(inst: VcInstance, bids: dict) -> AuctionOutcome:
    """Run the eigenvector mechanism on one bid vector.

    Winner u is paid q_u * (B_u - A_u) under the scaled bids m: B_u is
    the min cover cost without u, A_u the min cover cost with u included
    and priced 0. With X* the chosen cover and R_u a min cover without
    u, A_u = m(X* - {u}) (lowering u's own price keeps X* optimal), so
    the threshold is m(R_u - X*) - m(X* - R_u - {u}), summed exactly and
    rounded once, so the order of its terms does not matter. The covers
    are chosen on m's exact `rational.tie_broken` integers (floats are
    dyadic), never on float sums. A threshold or a total payment past
    the float range is an InputError.
    """
    m = scaled_costs(inst, bids)
    exact = tie_broken(integer_costs(m)[1])
    q = inst.q
    winners = inst.solver.min_cover(exact)
    payments = {a: 0.0 for a in inst.agents}
    for u in sorted(winners):
        rest = inst.solver.min_cover_excluding(u, exact)
        payments[u] = q[u] * _rounded_sum(
            [m[a] for a in rest - winners]
            + [-m[a] for a in winners - rest - {u}],
            f"threshold for {u!r}")
    # No minimal cover holds an isolated agent, so it loses at price 0.
    for a in inst.isolated:
        payments[a] = 0.0
    total = float(sum(payments.values()))
    if total == math.inf:
        raise InputError("total payment overflows a float")
    diagnostics = {"lambda": [c.eigenvalue for c in inst.components]}
    return AuctionOutcome(winners, payments, total, diagnostics)


def reduced_run(inst: VcInstance, bids: dict, agents: Iterable[str],
                solve: Callable[[dict], frozenset],
                diagnostics: dict) -> AuctionOutcome:
    """`ev_run` on the instance a flow or cut auction reduced its
    network to. Agents the reduction dropped lose at price 0.

    `solve(costs)` is the reduction's own solve: the set it chooses. A
    winner can also exit by bidding itself out of the reduction, which
    caps its payment. Priced out (`price_out` of all bids), the winner
    drops out whenever anything can replace it, and its exit bid is the
    cost of that choice less the cost of the choice with the winner
    priced at 0: the bids on which the two sets differ, summed exactly,
    compared exactly with the cover payment and rounded once if lower,
    so an exit bid past the float range leaves the payment as it is. A
    winner chosen even when priced out has no exit. The cover auction's
    overflow errors stand even where an exit bid would have lowered the
    payment; the total here sums payments no higher than the cover
    auction's, in the same order, so it cannot overflow where that
    total did not. The reduction's `diagnostics` follow the cover
    auction's."""
    agents = list(agents)
    outcome = ev_run(inst, bids)
    winners = sorted(outcome.winners)
    payments = dict.fromkeys(agents, 0.0)
    payments.update(outcome.payments)
    high = price_out(bids[a] for a in agents)
    for winner in winners:
        kept = solve({**bids, winner: 0})
        chosen = solve({**bids, winner: high})
        if winner not in chosen:
            exit_bid = (sum(Fraction(bids[a]) for a in chosen - kept)
                        - sum(Fraction(bids[a])
                              for a in kept - chosen - {winner}))
            if exit_bid < payments[winner]:
                payments[winner] = float(exit_bid)
    total = sum(payments[w] for w in winners)
    return AuctionOutcome(outcome.winners, payments, total,
                          {**outcome.diagnostics, **diagnostics})


def unit_bid_vector(inst: VcInstance, agent: str,
                    value: Fraction = Fraction(1)) -> dict:
    bids = {a: Fraction(0) for a in inst.agents}
    bids.update({a: Fraction(0) for a in inst.isolated})
    bids[agent] = value
    return bids


def ev_frugality_on_units(inst: VcInstance) -> float:
    """Worst total-payment / Tot ratio over unit cost vectors.

    These are the extremal cost vectors for the eigenvalue upper bound,
    so this equals the largest component eigenvalue.
    """
    worst = 0.0
    for v in inst.agents:
        outcome = ev_run(inst, unit_bid_vector(inst, v))
        worst = max(worst, outcome.total_payment / float(inst.tot[v]))
    return worst


Mechanism = Callable[[dict], AuctionOutcome]


def probe_lower_bound(inst: VcInstance,
                      mechanism: Mechanism) -> tuple[str, float]:
    """Pairwise-competition probe for the eigenvalue/2 payment bound.

    Orients each conflict edge toward whichever endpoint wins when the
    two endpoints bid their eigenvector weights, picks a node whose
    out-weight is at least its in-weight, and measures the mechanism's
    payment ratio on that node's weighted unit cost vector.
    """
    q = inst.q
    out_nbrs: dict[str, set[str]] = {v: set() for v in inst.agents}
    in_nbrs: dict[str, set[str]] = {v: set() for v in inst.agents}
    edges = sorted({tuple(sorted((e.tail, e.head)))
                    for e in inst.conflict_graph.edges})
    for u, v in edges:
        bids = unit_bid_vector(inst, u, Fraction(q[u]))
        bids[v] = Fraction(q[v])
        outcome = mechanism(bids)
        if u in outcome.winners:
            out_nbrs[v].add(u)
            in_nbrs[u].add(v)
        if v in outcome.winners:
            out_nbrs[u].add(v)
            in_nbrs[v].add(u)
        if u not in outcome.winners and v not in outcome.winners:
            raise DomainError("mechanism returned a non-cover winning set")

    pivot = None
    for v in inst.agents:
        if sum(q[u] for u in out_nbrs[v]) >= sum(q[u] for u in in_nbrs[v]):
            pivot = v
            break
    if pivot is None:
        raise DomainError("no balanced node found; orientation is inconsistent")

    outcome = mechanism(unit_bid_vector(inst, pivot, Fraction(q[pivot])))
    lower_bound_nu = float(inst.tot[pivot]) * q[pivot]
    return pivot, outcome.total_payment / lower_bound_nu
