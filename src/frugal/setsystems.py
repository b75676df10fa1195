"""The three set-system classes and the buyer-pessimal Nash bound.

A set system is a ground set of agents plus its minimal feasible sets,
materialized explicitly at desk scale:

  * vertex-cover: agents are vertices, feasible sets are vertex covers;
  * k-flow: agents are edges, feasible sets contain k edge-disjoint
    s-t paths;
  * cut: agents are edges, feasible sets contain an s-t cut.

nu(sys, c) is the optimal value of the max-total-bid LP over first-price
equilibrium bids, computed exactly. tot(sys, v) is nu at v's unit cost
vector; on vertex-cover systems it is computed from v's neighbourhood
alone, as its fractional clique number: the clique number whenever a
colouring with that many colours exists, the exact LP otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import caps
from .errors import DomainError, InputError, MonopolyError, ScaleError
from .graph import Graph, enumerate_st_paths, st_cut_crossings
from .lp import LEQ, LinearProgram, solve
from .rational import integer_costs

VERTEX_COVER = "vertex-cover"
K_FLOW = "k-flow"
CUT = "cut"

ZERO = Fraction(0)

CostVector = dict  # agent id -> Fraction


@dataclass(frozen=True)
class SetSystem:
    kind: str
    graph: Graph
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (VERTEX_COVER, K_FLOW, CUT):
            raise InputError(f"unknown set-system kind {self.kind!r}")
        if self.kind == K_FLOW:
            if self.k is None or self.k < 1:
                raise InputError("k-flow systems need k >= 1")
        if self.kind in (K_FLOW, CUT):
            if self.graph.source is None or self.graph.sink is None:
                raise InputError(f"{self.kind} systems need designated s, t")
            if not self.graph.directed:
                raise InputError(f"{self.kind} systems need a directed graph")

    @cached_property
    def agents(self) -> tuple[str, ...]:
        if self.kind == VERTEX_COVER:
            return tuple(sorted(self.graph.vertices))
        return tuple(sorted(e.id for e in self.graph.edges))

    @cached_property
    def minimal_feasible_sets(self) -> tuple[frozenset, ...]:
        if self.kind == VERTEX_COVER:
            sets = _minimal_vertex_covers(self.graph)
        elif self.kind == K_FLOW:
            sets = _minimal_k_flows(self.graph, self.k)
        else:
            sets = _minimal_cuts(self.graph)
        return tuple(sorted(sets, key=lambda s: tuple(sorted(s))))

    def check_monopoly_free(self):
        sets = self.minimal_feasible_sets
        if not sets:
            raise DomainError("no feasible set exists")
        common = frozenset.intersection(*sets)
        if common:
            raise MonopolyError(f"agents {sorted(common)} are in every feasible set")


def _minimal_vertex_covers(g: Graph) -> list[frozenset]:
    if len(g.vertices) > caps.COVER_AGENT_CAP:
        raise ScaleError(f"vertex-cover enumeration capped at "
                         f"{caps.COVER_AGENT_CAP} agents")
    vertices = set(g.vertices)
    # Minimal covers are complements of maximal independent sets, which
    # are the maximal cliques of the complement graph.
    return [frozenset(vertices - mis) for mis in _maximal_independent_sets(g)]


def _maximal_independent_sets(g: Graph) -> list[frozenset]:
    """Every maximal independent set, sorted by its sorted id tuple.
    Self-loops and edge direction are ignored. The empty graph has
    none."""
    verts, adj = _adjacency_masks(g)
    return [frozenset(verts[i] for i in _bits(mask))
            for mask in _independent_set_masks(adj)]


def _adjacency_masks(g: Graph) -> tuple[list[str], list[int]]:
    """g's vertices, sorted, and each one's neighbours as a bitmask
    over that order (bit i is vertex i). Self-loops and edge direction
    are ignored."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for e in g.edges:
        if e.tail != e.head:
            i, j = index[e.tail], index[e.head]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return verts, adj


def _independent_set_masks(adj: list[int]) -> list[int]:
    """The maximal independent sets of the graph with these adjacency
    masks, as bitmasks in ascending order of their bit positions.

    Bron-Kerbosch with Tomita pivoting (Tomita, Tanaka and Takahashi,
    2006) on the non-adjacency relation, so the cliques it lists are
    the independent sets."""
    everyone = (1 << len(adj)) - 1
    non_adj = [everyone & ~nbrs & ~(1 << i) for i, nbrs in enumerate(adj)]
    limit = caps.INDEPENDENT_SET_CAP
    found: list[int] = []

    def expand(chosen: int, cand: int, done: int):
        if not cand and not done:
            found.append(chosen)
            if len(found) > limit:
                raise ScaleError(f"more than {limit} maximal independent sets")
            return
        # Branch only on candidates the pivot's relation misses; Tomita's
        # pivot misses the fewest.
        pivot = max(_bits(cand | done),
                    key=lambda u: (cand & non_adj[u]).bit_count())
        for v in _bits(cand & ~non_adj[pivot]):
            bit = 1 << v
            expand(chosen | bit, cand & non_adj[v], done & non_adj[v])
            cand &= ~bit
            done |= bit

    if adj:
        expand(0, everyone, 0)
    return sorted(found, key=_bits)


def _coloured_clique_number(adj: list[int]) -> Optional[int]:
    """The clique number omega of the graph with these adjacency masks,
    when its vertices can be coloured with omega colours; else None.

    A branch-and-bound search finds omega: a branch ends once its
    clique plus all its candidates cannot beat the best clique found.
    Then a backtracking search colours the vertices in falling-degree
    order, each with a colour its coloured neighbours lack, opening a
    new colour only after the ones in use. Both searches are
    exponential in the worst case; together they take at most the
    independent-set cap's steps and answer None past it."""
    n = len(adj)
    steps = caps.INDEPENDENT_SET_CAP
    omega = 0
    branches = [(0, (1 << n) - 1)]  # (clique size, common neighbours)
    while branches:
        size, cand = branches.pop()
        if size + cand.bit_count() <= omega:
            continue
        if not cand:
            omega = size
            continue
        steps -= 1
        if steps < 0:
            return None
        bit = cand & -cand
        branches.append((size, cand ^ bit))
        branches.append((size + 1, cand & adj[bit.bit_length() - 1]))

    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    classes = [0] * omega  # the vertices of each colour, as a bitmask

    def colour(i: int, used: int) -> Optional[bool]:
        nonlocal steps
        if i == n:
            return True
        v = order[i]
        for c in range(min(used + 1, omega)):
            if classes[c] & adj[v]:
                continue
            steps -= 1
            if steps < 0:
                return None
            classes[c] |= 1 << v
            done = colour(i + 1, max(used, c + 1))
            classes[c] ^= 1 << v
            if done is not False:
                return done
        return False

    return omega if colour(0, 0) else None


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _minimal_k_flows(g: Graph, k: int) -> list[frozenset]:
    if len(g.edges) > caps.FLOW_EDGE_CAP:
        raise ScaleError(f"k-flow enumeration capped at "
                         f"{caps.FLOW_EDGE_CAP} edges")
    paths = [frozenset(p) for p in enumerate_st_paths(g)]
    unions: set[frozenset] = set()

    def extend(start: int, chosen: list[frozenset], used: frozenset):
        if len(chosen) == k:
            unions.add(used)
            return
        for i in range(start, len(paths)):
            if used & paths[i]:
                continue
            extend(i + 1, chosen + [paths[i]], used | paths[i])

    extend(0, [], frozenset())
    return _minimal_only(unions)


def _minimal_cuts(g: Graph) -> list[frozenset]:
    return _minimal_only(set(st_cut_crossings(g)))


def _minimal_only(sets) -> list[frozenset]:
    out = []
    for s in sorted(sets, key=len):
        if not any(t < s for t in out):
            out.append(s)
    return out


def check_costs(sys: SetSystem, c: CostVector):
    """One cost per agent, each passing `rational.integer_costs`'s rule
    (not missing, finite and non-negative), else InputError."""
    if set(c) != set(sys.agents):
        raise InputError("cost vector must cover exactly the agent set")
    integer_costs(c)


@dataclass(frozen=True)
class NuResult:
    value: Fraction
    bids: dict
    winning_set: frozenset


def cheapest_feasible_set(sys: SetSystem, c: CostVector) -> frozenset:
    """The c-cheapest minimal feasible set, ties broken lexicographically
    on the sorted agent-id list."""
    sets = sys.minimal_feasible_sets
    return min(sets, key=lambda s: (sum(c[a] for a in s), tuple(sorted(s))))


def nu(sys: SetSystem, c: CostVector) -> NuResult:
    """Buyer-pessimal Nash bound: the most expensive first-price
    equilibrium supported on the cheapest feasible set.

    Maximizes the winning set's total bid subject to b >= c, b = c off
    the winning set, and no feasible set undercutting the winner. Only
    minimal feasible sets generate constraints (bids are nonnegative,
    so superset constraints are dominated).
    """
    check_costs(sys, c)
    sys.check_monopoly_free()
    winners = sorted(cheapest_feasible_set(sys, c))
    index = {a: i for i, a in enumerate(winners)}
    rows = []
    for t in sys.minimal_feasible_sets:
        only_s = [a for a in winners if a not in t]
        if not only_s:
            continue  # T >= S holds trivially when S \ T is empty
        coeffs = [ZERO] * len(winners)
        for a in only_s:
            coeffs[index[a]] = Fraction(1)
        rhs = sum((c[a] for a in t if a not in index), ZERO)
        rows.append((coeffs, LEQ, rhs))
    lp = LinearProgram.build(
        objective=[1] * len(winners),
        rows=rows,
        lower_bounds=[c[a] for a in winners],
    )
    sol = solve(lp)
    if sol.status != "optimal":
        raise DomainError(f"nu LP is {sol.status}; instance is degenerate")
    bids = dict(c)
    for a, v in zip(winners, sol.assignment):
        bids[a] = v
    return NuResult(sol.value, bids, frozenset(winners))


def unit_costs(sys: SetSystem, agent: str) -> CostVector:
    return {a: (Fraction(1) if a == agent else ZERO) for a in sys.agents}


def tot(sys: SetSystem, agent: str) -> Fraction:
    """nu at the unit cost vector of `agent`.

    On a vertex-cover system, with v the agent, this is the fractional
    clique number of v's neighbourhood N(v). With unit cost on v the
    cheapest cover omits v, so it holds N(v). A winner u outside N(v)
    bids 0, since the cover of every vertex but u and v undercuts it. A
    cover T that holds v caps the total bid on N(v) minus T at T's cost,
    1, and those differences range over the independent sets of G[N(v)].
    So nu's LP reduces to the fractional clique LP of G[N(v)], with
    deg(v) variables, not one row per minimal cover of the whole graph,
    and `fractional_clique_number` mostly answers it without the LP. An
    isolated vertex gets 0. The k-flow and cut systems solve nu itself."""
    if agent not in sys.agents:
        raise InputError(f"unknown agent {agent!r}")
    if sys.kind == VERTEX_COVER:
        return fractional_clique_number(neighborhood_subgraph(sys.graph, agent))
    return nu(sys, unit_costs(sys, agent)).value


def fractional_clique_number(g: Graph) -> Fraction:
    """max sum(y) over y >= 0 with sum_{u in I} y_u <= 1 on every
    independent set I of g.

    It lies between the clique number omega and the chromatic number:
    a clique is a fractional clique of weight omega, and the colour
    classes of a colouring are a fractional colouring, whose weight
    bounds it from above by LP duality. So when g can be coloured with
    omega colours it is omega, and no LP is solved. Only when no such
    colouring is found (the 5-cycle, say, with value 5/2) does the
    exact LP over the maximal independent sets decide; maximal sets
    suffice because weights are nonnegative. A search that runs past
    the independent-set cap's steps leaves the value to the LP too, so
    only the LP's own enumeration raises ScaleError. The edgeless graph has
    value 1 (n >= 1); the empty graph value 0.
    """
    if g.directed:
        raise InputError("fractional clique number needs an undirected graph")
    verts, adj = _adjacency_masks(g)
    if not verts:
        return ZERO
    omega = _coloured_clique_number(adj)
    if omega is not None:
        return Fraction(omega)
    rows = []
    for mask in _independent_set_masks(adj):
        coeffs = [Fraction(mask >> i & 1) for i in range(len(verts))]
        rows.append((coeffs, LEQ, Fraction(1)))
    sol = solve(LinearProgram.build([1] * len(verts), rows))
    if sol.status != "optimal":
        raise DomainError(f"fractional clique LP is {sol.status}")
    return sol.value


def neighborhood_subgraph(g: Graph, v: str) -> Graph:
    """Subgraph induced by the neighbors of v, without v itself."""
    nbrs = set(g.neighbors(v))
    edges = tuple(e for e in g.edges
                  if e.tail in nbrs and e.head in nbrs and e.tail != e.head)
    return Graph(tuple(sorted(nbrs)), edges, directed=False)
