"""Independent checkers and instance generators.

Everything here exists to test the mechanisms from the outside:
exhaustive double-cut search, the canonical tie-break by greedy
re-solving, black-box truthfulness probes with
payment bisection, frugality measurement against the exact Nash bound,
and random instance generators. A deliberately broken first-price
mechanism serves as the negative control for the truthfulness probe.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import caps
from .cut import DoubleCutResult, min_double_cut
from .eigen import AuctionOutcome
from .errors import DomainError, ScaleError
from .graph import Graph, enumerate_st_paths, reachable, st_cut_crossings
from .rational import rounded_ratio

Mechanism = Callable[[dict], AuctionOutcome]


def brute_double_cut(g: Graph, costs: dict) -> tuple[frozenset, Fraction]:
    """Minimum double cut by subset enumeration (bitmask per path).

    Brute force only: ScaleError beyond the enumeration cap on edges."""
    order = sorted(e.id for e in g.edges)
    limit = caps.DOUBLE_CUT_ENUM_EDGES
    if len(order) > limit:
        raise ScaleError(f"double cut enumeration capped at {limit} edges")
    idx = {eid: i for i, eid in enumerate(order)}
    path_masks = []
    for path in enumerate_st_paths(g):
        mask = 0
        for eid in path:
            mask |= 1 << idx[eid]
        path_masks.append(mask)
    best = None
    for mask in range(1 << len(order)):
        if any((mask & pm).bit_count() < 2 for pm in path_masks):
            continue
        chosen = tuple(eid for eid in order if mask & (1 << idx[eid]))
        cost = sum((costs[eid] for eid in chosen), Fraction(0))
        key = (cost, chosen)
        if best is None or key < best:
            best = key
    if best is None:
        raise DomainError("no double cut exists")
    return frozenset(best[1]), best[0]


def canonical_double_cut_reference(g: Graph, costs: dict) -> DoubleCutResult:
    """The canonical minimum double cut by greedy exclusion.

    Edges are tried in descending id order; each is priced out of reach
    whenever an equally cheap double cut avoids it and every edge
    excluded before it. m+2 solves: the reference for
    `min_double_cut(canonical=True)`."""
    base = min_double_cut(g, costs)
    big = sum((costs[e.id] for e in g.edges), Fraction(0)) + 1
    working = dict(costs)
    for eid in sorted((e.id for e in g.edges), reverse=True):
        trial = dict(working)
        trial[eid] = big
        r = min_double_cut(g, trial)
        # r.cost uses the trial prices, so equality with the true
        # optimum also certifies r avoids every excluded edge.
        if eid not in r.double_cut and r.cost == base.cost:
            working = trial
    return min_double_cut(g, working)


def brute_conflict_pairs(h: Graph) -> frozenset:
    """Conflict relation by minimum-cut membership.

    Two edges of a (k+1)-flow graph conflict exactly when some minimum
    cardinality s-t cut contains both. Enumerates all vertex
    bipartitions, so strictly for small graphs."""
    crossings = list(st_cut_crossings(h))
    min_size = min(len(c) for c in crossings)
    pairs = set()
    for cross in crossings:
        if len(cross) == min_size:
            for a, b in itertools.combinations(sorted(cross), 2):
                pairs.add((a, b))
    return frozenset(pairs)


@dataclass
class PerturbationReport:
    trials: int = 0
    skipped: int = 0  # draws whose base run raised DomainError
    checks: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def check_truthfulness(mechanism: Mechanism, agents: Iterable[str],
                       rng: random.Random, trials: int = 20,
                       max_cost: int = 8) -> PerturbationReport:
    """Black-box probe of the three threshold-auction properties.

    Per trial on random rational costs: a loser raising its bid must
    keep the same winning set; a winner lowering its bid must keep the
    same winning set; and one winner's payment must match, to a relative
    1e-6, its threshold bid (found by bisection). Agents whose payment
    equals their cost with zero slack are skipped for the lowering check
    when their cost is already zero. A draw whose base run raises
    DomainError is not a trial; it is counted in `skipped`."""
    agents = sorted(agents)
    report = PerturbationReport()
    for trial in range(trials):
        costs = {a: Fraction(rng.randint(0, max_cost), rng.randint(1, 4))
                 for a in agents}
        try:
            base = mechanism(costs)
        except DomainError:
            report.skipped += 1
            continue
        report.trials += 1
        winners = sorted(base.winners)
        losers = [a for a in agents if a not in base.winners]

        if losers:
            lose_probe = losers[trial % len(losers)]
            bumped = dict(costs)
            bumped[lose_probe] = costs[lose_probe] + 1 + rng.randint(0, 3)
            after = mechanism(bumped)
            report.checks += 1
            if after.winners != base.winners:
                report.violations.append(
                    ("loser-raise", trial, lose_probe,
                     sorted(base.winners), sorted(after.winners)))

        if winners:
            win_probe = winners[trial % len(winners)]
            if costs[win_probe] > 0:
                lowered = dict(costs)
                lowered[win_probe] = costs[win_probe] * Fraction(1, 2)
                after = mechanism(lowered)
                report.checks += 1
                if after.winners != base.winners:
                    report.violations.append(
                        ("winner-lower", trial, win_probe,
                         sorted(base.winners), sorted(after.winners)))

            threshold = _bisect_threshold(mechanism, costs, win_probe)
            report.checks += 1
            paid = base.payments[win_probe]
            if threshold is None:
                report.violations.append(
                    ("unbounded-threshold", trial, win_probe, paid))
            elif abs(threshold - paid) > 1e-6 * max(1.0, abs(paid)):
                report.violations.append(
                    ("payment-mismatch", trial, win_probe, paid, threshold))
    return report


def _bisect_threshold(mechanism: Mechanism, costs: dict,
                      agent: str) -> Optional[float]:
    """Largest bid at which `agent` still wins, others fixed."""

    def wins(bid: Fraction) -> bool:
        probe = dict(costs)
        probe[agent] = bid
        return agent in mechanism(probe).winners

    lo = _as_fraction(costs[agent])
    hi = lo + 1
    for _ in range(40):
        if not wins(hi):
            break
        lo, hi = hi, hi * 2 + 1
    else:
        return None
    for _ in range(60):
        mid = (lo + hi) / 2
        if wins(mid):
            lo = mid
        else:
            hi = mid
        if float(hi) - float(lo) < 1e-9 * max(1.0, float(hi)):
            break
    return float(lo + hi) / 2


NuFunction = Callable[[dict], Fraction]


def measure_frugality(mechanism: Mechanism, nu_fn: NuFunction,
                      cost_vectors: Iterable[dict]) -> float:
    """Worst total-payment / Nash-bound ratio over the given costs,
    each ratio exact and rounded once (`rational.rounded_ratio`).

    Vectors whose exact Nash bound is zero are skipped unless the
    mechanism also pays more than rounding noise, which counts as
    infinite."""
    worst = 0.0
    for costs in cost_vectors:
        outcome = mechanism(costs)
        bound = nu_fn(costs)
        if bound == 0:
            if outcome.total_payment > 1e-9:
                return float("inf")
            continue
        worst = max(worst, rounded_ratio(outcome.total_payment, bound))
    return worst


def first_price_cover_mechanism(inst) -> Mechanism:
    """Negative control: pays winners their own bids.

    Selection matches the eigenvector auction but payments do not, so
    the truthfulness probe must flag it (any winner with a positive bid
    below its threshold is underpaid)."""
    from .eigen import ev_run

    def run(bids: dict) -> AuctionOutcome:
        outcome = ev_run(inst, bids)
        payments = {a: (float(bids[a]) if a in outcome.winners else 0.0)
                    for a in outcome.payments}
        return AuctionOutcome(outcome.winners, payments,
                              float(sum(payments.values())),
                              outcome.diagnostics)

    return run


def random_undirected_graph(rng: random.Random, n: int,
                            p: float = 0.5) -> Graph:
    verts = [f"v{i}" for i in range(n)]
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.append((f"e{i}_{j}", verts[i], verts[j]))
    return Graph.build(verts, edges, directed=False)


def random_dag(rng: random.Random, n: int, extra_edges: int) -> Graph:
    """Random DAG on a topological order with s first and t last."""
    verts = ["s"] + [f"m{i}" for i in range(n - 2)] + ["t"]
    chosen = set()
    for _ in range(extra_edges):
        i = rng.randrange(0, n - 1)
        j = rng.randrange(i + 1, n)
        chosen.add((i, j))
    edges = [(f"e{i}_{j}", verts[i], verts[j]) for i, j in sorted(chosen)]
    return Graph.build(verts, edges, True, "s", "t")


def random_kplus1_flow(rng: random.Random, k: int) -> Graph:
    """A graph that is exactly k+1 edge-disjoint s-t paths of 1 to 3
    edges over fresh interior vertices (so it equals its own pruned
    support)."""
    verts = ["s", "t"]
    edges = []
    for p in range(k + 1):
        hops = rng.randint(1, 3)
        prev = "s"
        for h in range(hops - 1):
            v = f"p{p}n{h}"
            verts.append(v)
            edges.append((f"p{p}e{h}", prev, v))
            prev = v
        edges.append((f"p{p}e{hops - 1}", prev, "t"))
    return Graph.build(verts, edges, True, "s", "t")


def random_flow_network(rng: random.Random, k: int,
                        extra_edges: int = 3) -> Graph:
    """A k-flow-feasible network: k+1 disjoint paths plus random
    shortcut edges between existing vertices."""
    base = random_kplus1_flow(rng, k)
    verts = list(base.vertices)
    edges = [(e.id, e.tail, e.head) for e in base.edges]
    for x in range(extra_edges):
        a, b = rng.sample(verts, 2)
        if a == "t" or b == "s" or a == b:
            continue
        edges.append((f"x{x}", a, b))
    return Graph.build(verts, edges, True, "s", "t")


def random_cut_network(rng: random.Random, n: int,
                       extra_edges: int) -> Graph:
    """Random DAG guaranteed to have an s-t path and no s-t edge."""
    while True:
        g = random_dag(rng, n, extra_edges)
        edges = [(e.id, e.tail, e.head) for e in g.edges
                 if not (e.tail == "s" and e.head == "t")]
        g = Graph.build(g.vertices, edges, True, "s", "t")
        if reachable(g, "s", "t"):
            return g


def random_costs(rng: random.Random, agents: Iterable[str]) -> dict:
    """Integer costs 0 to 6, drawn in sorted agent order."""
    return {a: Fraction(rng.randint(0, 6)) for a in sorted(agents)}
