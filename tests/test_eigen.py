import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from frugal import caps, eigen
from frugal.cut import (_cut_vc_instance, cm_run, contract_to_h,
                        select_double_cut)
from frugal.eigen import (BruteForceCoverSolver, CoverSolver,
                          MinimalCoverSolver, build_vc_instance,
                          ev_frugality_on_units, ev_run, probe_lower_bound,
                          scaled_costs, unit_bid_vector)
from frugal.errors import DomainError, InputError, ScaleError
from frugal.flow import (fm_run, min_cost_flow, prune_to_support,
                         vc_from_flow)
from frugal.graph import Graph
from frugal.oracle import (random_costs, random_cut_network,
                           random_flow_network, random_undirected_graph)
from frugal.setsystems import VERTEX_COVER, SetSystem, tot

TWO = Fraction(2)
ONE = Fraction(1)


def instance(g, totval):
    return build_vc_instance(g, {v: totval for v in g.vertices})


def test_triangle_eigenpair(triangle):
    inst = instance(triangle, TWO)
    assert inst.max_eigenvalue == pytest.approx(1.0, abs=1e-12)
    q = inst.q
    assert all(q[v] == pytest.approx(1.0, abs=1e-12) for v in "abc")


def test_star_eigenpair(star):
    inst = instance(star, ONE)
    assert inst.max_eigenvalue == pytest.approx(math.sqrt(3), abs=1e-10)
    q = inst.q
    assert q["c"] == pytest.approx(1.0)
    for leaf in ("l1", "l2", "l3"):
        assert q["c"] / q[leaf] == pytest.approx(math.sqrt(3), rel=1e-10)


def test_single_edge_eigenpair():
    g = Graph.build(["a", "b"], [("e", "a", "b")], directed=False)
    inst = instance(g, ONE)
    assert inst.max_eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert inst.q == {"a": pytest.approx(1.0), "b": pytest.approx(1.0)}


def test_build_rejects_directed(path_graph):
    with pytest.raises(InputError):
        build_vc_instance(path_graph, {v: ONE for v in path_graph.vertices})


def test_build_rejects_self_loop():
    g = Graph.build(["a", "b"], [("e", "a", "b"), ("l", "a", "a")],
                    directed=False)
    with pytest.raises(InputError):
        build_vc_instance(g, {"a": ONE, "b": ONE})


def test_build_rejects_small_tot(triangle):
    with pytest.raises(InputError):
        build_vc_instance(triangle, {"a": Fraction(1, 2), "b": ONE, "c": ONE})


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), True, "2"])
def test_tot_values_pass_the_cost_rule(triangle, bad):
    # inf once gave q = 0 and a ZeroDivisionError, NaN a slow failed
    # power iteration, True a Tot of 1 and "2" a TypeError.
    with pytest.raises(InputError, match="'b'"):
        build_vc_instance(triangle, {"a": ONE, "b": bad, "c": ONE})


def test_isolated_agents_lose_free():
    # No minimal cover holds an isolated agent, so it loses and is paid
    # 0. Its Tot is 0 (an empty neighbourhood), and that must not stop
    # the instance from being built.
    g = Graph.build(["a", "b", "z"], [("e", "a", "b")], directed=False)
    for tot_z in (Fraction(0), ONE):
        inst = build_vc_instance(g, {"a": ONE, "b": ONE, "z": tot_z})
        assert inst.isolated == ("z",)
        out = ev_run(inst, {"a": ONE, "b": TWO, "z": Fraction(9)})
        assert out.winners == frozenset({"a"})
        assert out.payments["z"] == 0.0
        assert out.total_payment == pytest.approx(2.0)
    assert build_vc_instance(g, {"a": ONE, "b": ONE}).isolated == ("z",)


def test_triangle_auction(triangle):
    inst = instance(triangle, TWO)
    out = ev_run(inst, {"a": ONE, "b": Fraction(0), "c": Fraction(0)})
    assert out.winners == frozenset({"b", "c"})
    assert out.payments["b"] == pytest.approx(1.0, abs=1e-9)
    assert out.payments["c"] == pytest.approx(1.0, abs=1e-9)
    assert out.total_payment == pytest.approx(2.0, abs=1e-9)


def test_star_auction(star):
    inst = instance(star, ONE)
    bids = unit_bid_vector(inst, "c")
    out = ev_run(inst, bids)
    assert out.winners == frozenset({"l1", "l2", "l3"})
    for leaf in out.winners:
        assert out.payments[leaf] == pytest.approx(1 / math.sqrt(3), rel=1e-9)
    assert out.total_payment == pytest.approx(math.sqrt(3), rel=1e-9)


def test_zero_bids_pay_nothing(triangle):
    inst = instance(triangle, TWO)
    out = ev_run(inst, {v: Fraction(0) for v in "abc"})
    assert out.winners == frozenset({"a", "b"})  # lexicographic tie-break
    assert out.total_payment == 0.0


def test_negative_bid_rejected(triangle):
    inst = instance(triangle, TWO)
    with pytest.raises(InputError):
        ev_run(inst, {"a": Fraction(-1), "b": ONE, "c": ONE})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_bid_rejected(triangle, bad):
    inst = instance(triangle, TWO)
    with pytest.raises(InputError):
        ev_run(inst, {"a": bad, "b": ONE, "c": ONE})


def test_missing_bid_rejected(triangle):
    inst = instance(triangle, TWO)
    with pytest.raises(InputError):
        ev_run(inst, {"a": ONE, "b": ONE})


def test_winner_payment_covers_bid(triangle):
    inst = instance(triangle, TWO)
    rng = random.Random(7)
    for _ in range(50):
        bids = random_costs(rng, "abc")
        out = ev_run(inst, bids)
        for w in out.winners:
            assert out.payments[w] >= float(bids[w]) - 1e-9


def test_frugality_on_units(triangle, star):
    assert ev_frugality_on_units(instance(triangle, TWO)) == \
        pytest.approx(1.0, rel=1e-9)
    assert ev_frugality_on_units(instance(star, ONE)) == \
        pytest.approx(math.sqrt(3), rel=1e-9)


def test_probe_triangle(triangle):
    inst = instance(triangle, TWO)
    _, ratio = probe_lower_bound(inst, lambda b: ev_run(inst, b))
    assert ratio == pytest.approx(1.0, rel=1e-9)
    assert ratio >= inst.max_eigenvalue / 2 - 1e-9


def test_probe_star(star):
    inst = instance(star, ONE)
    _, ratio = probe_lower_bound(inst, lambda b: ev_run(inst, b))
    assert ratio >= inst.max_eigenvalue / 2 - 1e-9


def test_disconnected_components_decompose():
    g = Graph.build(["a", "b", "x", "y", "z"],
                    [("e1", "a", "b"), ("e2", "x", "y"), ("e3", "y", "z"),
                     ("e4", "z", "x")],
                    directed=False)
    inst = instance(g, TWO)
    assert len(inst.components) == 2
    out = ev_run(inst, {"a": ONE, "b": Fraction(0), "x": Fraction(0),
                        "y": Fraction(0), "z": ONE})
    # Each component settles independently.
    assert "b" in out.winners
    assert frozenset({"x", "y"}) <= out.winners


def tie_heavy_vc_instances():
    """150 G(n, 0.4) graphs with 8-10 vertices and their vertex-cover
    Tot, each with 16 integer bid vectors 0..3: zero bids and exact
    ties between covers on almost every draw."""
    rng = random.Random(11)
    for _ in range(150):
        g = random_undirected_graph(rng, rng.randint(8, 10), 0.4)
        system = SetSystem(VERTEX_COVER, g)
        inst = build_vc_instance(g, {v: tot(system, v) for v in g.vertices})
        yield inst, [{v: rng.randint(0, 3) for v in sorted(g.vertices)}
                     for _ in range(16)]


def test_minimal_solver_matches_brute_force():
    # Both solvers minimise one exact perturbed cost, so they choose the
    # same covers on every draw, ties included, and pay the same.
    draws = 0
    for inst, bid_vectors in tie_heavy_vc_instances():
        fast = dataclasses.replace(
            inst, solver=MinimalCoverSolver(inst.conflict_graph))
        for bids in bid_vectors:
            brute, minimal = ev_run(inst, bids), ev_run(fast, bids)
            assert minimal.winners == brute.winners
            assert minimal.payments == brute.payments
            draws += 1
    assert draws == 2400


@pytest.mark.parametrize("x_bids, b_bids", [
    ((2**53, 1, 1), (2**53 - 2, 2, 2)),
    ((2**53 - 2, 2, 2), (2**53, 1, 1)),
], ids=["x-rounds-low", "b-rounds-low"])
def test_exact_tie_between_covers_drops_the_highest_id(x_bids, b_bids):
    # K_{3,3} with Tot 1: every q is 1.0, and both sides cost exactly
    # 2^53 + 2, though one side's float sum rounds to 2^53. The tie rule
    # drops x3, the highest id, so the b side wins either way.
    xs, bs = ["x1", "x2", "x3"], ["b1", "b2", "b3"]
    g = Graph.build(xs + bs, [(x + b, x, b) for x in xs for b in bs],
                    directed=False)
    inst = instance(g, ONE)
    assert set(inst.q.values()) == {1.0}
    bids = dict(zip(xs, x_bids)) | dict(zip(bs, b_bids))
    assert ev_run(inst, bids).winners == frozenset(bs)
    fast = dataclasses.replace(inst, solver=MinimalCoverSolver(g))
    assert ev_run(fast, bids).winners == frozenset(bs)


def test_eigen_residual_on_random_instances():
    rng = random.Random(3)
    for _ in range(20):
        g = random_undirected_graph(rng, rng.randint(2, 8), p=0.5)
        live = [v for v in g.vertices if g.neighbors(v)]
        if not live:
            continue
        tot = {v: Fraction(rng.randint(1, 4)) for v in g.vertices}
        inst = build_vc_instance(g, tot)
        q = inst.q
        for comp in inst.components:
            for a in comp.agents:
                kq = sum((1 / float(tot[a])) * q[b]
                         for b in inst.conflict_graph.neighbors(a))
                assert abs(kq - comp.eigenvalue * q[a]) <= 1e-10


def test_eigenpairs_match_eigh():
    # The power iteration stops once the residual is within
    # EIGEN_RESIDUAL_TOL, so lambda agrees with eigh's to rounding, and
    # the unit vector v = D^{-1/2} q to within its residual over the
    # spectral gap (Davis-Kahan) and eigh's own rounding. q itself is
    # up to 7.4e-11 relative from eigh's here (gaps down to 0.14), so
    # a flat 1e-12 on q would fail 94 of these 380 components.
    count = 0
    for _, inst, _ in _seeded_instances(random.Random(23), 120):
        for comp in inst.components:
            nbrs = [inst.conflict_graph.neighbors(a) for a in comp.agents]
            adj = np.array([[float(b in row) for b in comp.agents]
                            for row in nbrs])
            d_half = np.array([float(inst.tot[a]) ** -0.5
                               for a in comp.agents])
            k_sym = d_half[:, None] * adj * d_half[None, :]
            values, vectors = np.linalg.eigh(k_sym)
            assert comp.eigenvalue == pytest.approx(values[-1], rel=1e-12)
            v = np.array([comp.vector[a] for a in comp.agents]) / d_half
            v /= np.linalg.norm(v)
            resid = np.linalg.norm(k_sym @ v - (v @ k_sym @ v) * v)
            assert resid <= 1e-11
            gap = values[-1] - values[-2]
            assert np.linalg.norm(v - np.abs(vectors[:, -1])) \
                <= 2 * resid / gap + 1e-14
            count += 1
    assert count >= 300


def test_cut_bundles_get_the_closed_form_eigenpair():
    # Each cut bundle is a K_{a,b} with Tot 1, whose Perron pair is
    # sqrt(ab) with entry 1.0 on the smaller side and sqrt(small /
    # large) on the other. The power iteration on the same conflict
    # graph lists the components in the same order, and agrees to
    # within its own error.
    rng = random.Random(5)
    bundles_seen = 0
    for _ in range(600):
        g = random_cut_network(rng, rng.randint(8, 12), rng.randint(12, 26))
        bids = {e.id: Fraction(rng.randint(0, 8), rng.randint(1, 4))
                for e in sorted(g.edges, key=lambda e: e.id)}
        core, result = select_double_cut(g, bids)
        bundles = contract_to_h(core, result.double_cut)
        inst = _cut_vc_instance(bundles)
        comps = {c.agents: c for c in inst.components}
        for _, left, right in bundles.bundles:
            comp = comps.pop(tuple(sorted(left + right)))
            small, large = sorted((len(left), len(right)))
            assert comp.eigenvalue == math.sqrt(small * large)
            for side in (left, right):
                entry = 1.0 if len(side) == small else math.sqrt(small / large)
                assert all(comp.vector[a] == inst.q[a] == entry
                           for a in side)
            bundles_seen += 1
        assert not comps
        iterated = build_vc_instance(inst.conflict_graph, inst.tot)
        assert ([c.agents for c in iterated.components]
                == [c.agents for c in inst.components])
        for c, it in zip(inst.components, iterated.components):
            assert it.eigenvalue == pytest.approx(c.eigenvalue, rel=1e-12)
        assert iterated.q == pytest.approx(inst.q, rel=1e-12)
    assert bundles_seen >= 600


def _symmetric_graphs():
    """(edges, orbits): cycles, stars and complete bipartite graphs,
    with the classes of agents that automorphisms swap."""
    for n in range(3, 12):
        ring = [f"c{i}" for i in range(n)]
        yield [(ring[i], ring[i - 1]) for i in range(n)], [ring]
    for n in range(2, 12):
        leaves = [f"l{i}" for i in range(n)]
        yield [("hub", leaf) for leaf in leaves], [["hub"], leaves]
    for a in range(2, 6):
        for b in range(a, 8):
            left = [f"x{i}" for i in range(a)]
            right = [f"y{j}" for j in range(b)]
            yield [(x, y) for x in left for y in right], [left, right]


@pytest.mark.parametrize("tot", [ONE, Fraction(5, 2), Fraction(7)])
def test_automorphic_agents_get_identical_entries(tot):
    for edges, orbits in _symmetric_graphs():
        g = Graph.build(sorted({v for e in edges for v in e}),
                        [(f"{u}-{v}", u, v) for u, v in edges],
                        directed=False)
        q = instance(g, tot).q
        for orbit in orbits:
            assert len({q[a] for a in orbit}) == 1, orbit


def test_power_iteration_past_its_cap_is_a_domain_error(monkeypatch, star):
    monkeypatch.setattr(eigen, "MAX_POWER_ITERATIONS", 1)
    with pytest.raises(DomainError, match="power iteration"):
        instance(star, ONE)


def test_cover_solvers_answer_one_query():
    assert CoverSolver.__abstractmethods__ == {"min_cover"}


def test_excluding_an_agent_that_still_wins_is_a_domain_error():
    class KeepsEveryone(CoverSolver):
        def min_cover(self, costs):
            return frozenset(costs)

    with pytest.raises(DomainError, match="'a'"):
        KeepsEveryone().min_cover_excluding("a", {"a": 1, "b": 2})


@pytest.mark.parametrize("draw", [
    lambda rng: rng.randint(0, 2),
    lambda rng: float(2**53 + rng.randint(0, 4)),
    lambda rng: Fraction(rng.randint(0, 6), rng.randint(1, 3)),
], ids=["tie-heavy-ints", "floats-from-2^53", "fractions"])
def test_brute_force_exclusion_is_the_priced_out_cover(draw):
    # The brute force searches the other agents; the base class prices
    # the agent out at `price_out`. Both keep the first cheapest cover
    # in one visiting order, so they agree on ties too.
    rng = random.Random(20)
    compared = 0
    for _ in range(250):
        g = random_undirected_graph(rng, rng.randint(1, 9),
                                    p=rng.uniform(0.2, 0.8))
        solver = BruteForceCoverSolver(g)
        costs = {v: draw(rng) for v in solver.agents}
        for agent in solver.agents:
            assert (solver.min_cover_excluding(agent, costs)
                    == CoverSolver.min_cover_excluding(solver, agent, costs))
            compared += 1
    assert compared > 1000


def _seeded_instances(rng, count):
    """(kind, cover instance, bids) on `count` seeded draws each of
    G(n, p) with random Tot, pruned flow networks and cut bundles."""
    for _ in range(count):
        g = random_undirected_graph(rng, rng.randint(2, 12),
                                    p=rng.uniform(0.2, 0.8))
        tot = {v: Fraction(rng.randint(2, 12), rng.randint(1, 2))
               for v in g.vertices}
        yield "vc", build_vc_instance(g, tot), random_costs(rng, g.vertices)
    for _ in range(count):
        k = rng.randint(1, 4)
        g = random_flow_network(rng, k, rng.randint(1, 8))
        bids = random_costs(rng, (e.id for e in g.edges))
        yield "flow", vc_from_flow(prune_to_support(g, bids, k), k), bids
    for _ in range(count):
        g = random_cut_network(rng, rng.randint(8, 12), rng.randint(12, 26))
        bids = random_costs(rng, (e.id for e in g.edges))
        core, result = select_double_cut(g, bids)
        bundles = contract_to_h(core, result.double_cut)
        yield "cut", _cut_vc_instance(bundles), bids


def test_threshold_is_the_exact_sum_rounded_once():
    # F = m(R_u - X*) - m(X* - R_u - {u}), summed as Fractions: the
    # payment is q_u times F rounded to the nearest float.
    kinds = set()
    for kind, inst, bids in _seeded_instances(random.Random(17), 12):
        m = scaled_costs(inst, bids)
        winners = inst.solver.min_cover(m)
        outcome = ev_run(inst, bids)
        assert outcome.winners == winners
        for u in winners:
            rest = inst.solver.min_cover_excluding(u, m)
            exact = (sum(Fraction(m[a]) for a in rest - winners)
                     - sum(Fraction(m[a]) for a in winners - rest - {u}))
            assert outcome.payments[u] == inst.q[u] * float(exact)
        kinds.add(kind)
    assert kinds == {"vc", "flow", "cut"}


BIG = 2**62
THREE_PATHS = Graph.build("sabct", [("sa", "s", "a"), ("at", "a", "t"),
                                    ("sb", "s", "b"), ("bt", "b", "t"),
                                    ("sc", "s", "c"), ("ct", "c", "t")],
                          directed=True, source="s", sink="t")
DIAMOND = Graph.build("sabt", [("sa", "s", "a"), ("at", "a", "t"),
                               ("sb", "s", "b"), ("bt", "b", "t")],
                      directed=True, source="s", sink="t")
PATH = Graph.build("abcd", [("ab", "a", "b"), ("bc", "b", "c"),
                            ("cd", "c", "d")], directed=False)


# Each winner's two covers, or two exit choices, cost 2^62 and more and
# differ by a few units; their float difference reads 0, below the
# winner's bid.
@pytest.mark.parametrize("run, bids, winner, paid", [
    (lambda b: fm_run(THREE_PATHS, b, 1),
     {"sa": BIG, "at": 1, "sb": BIG, "bt": 3, "sc": BIG, "ct": 5}, "at", 3.0),
    (lambda b: fm_run(THREE_PATHS, b, 1),
     {"sa": float(BIG), "at": 1.0, "sb": float(BIG), "bt": 3.0,
      "sc": float(BIG), "ct": 5.0}, "at", 3.0),
    (lambda b: fm_run(DIAMOND, b, 1),
     {"sa": BIG, "at": 1, "sb": BIG, "bt": 3}, "at", 3.0),
    (lambda b: cm_run(DIAMOND, b),
     {"sa": BIG, "at": BIG + 2**12, "sb": 1, "bt": 3}, "sb", 3.0),
    (lambda b: ev_run(instance(PATH, ONE), b),
     {"a": BIG, "b": BIG + 2**12, "c": 1, "d": 3}, "c", None),
], ids=["fm_run-exit", "fm_run-exit-float", "fm_run", "cm_run",
        "ev_run"])
def test_large_bids_keep_the_threshold(run, bids, winner, paid):
    out = run(bids)
    assert winner in out.winners
    assert out.payments[winner] >= bids[winner]
    if paid is not None:
        assert out.payments[winner] == paid


def test_an_exit_bid_past_the_float_range_leaves_the_payment():
    # sc's bid keeps its path out of H and prices sa's exit near
    # 10**400, which has no float; the cover threshold 3 stands.
    out = fm_run(THREE_PATHS, {"sa": 1, "at": 1, "sb": 2, "bt": 2,
                               "sc": 10**400, "ct": 1}, 1)
    assert out.winners == frozenset({"sa", "at"})
    assert out.payments["sa"] == out.payments["at"] == 3.0


ABC_Z = Graph.build("abcz", [("ab", "a", "b"), ("bc", "b", "c")],
                    directed=False)


@pytest.mark.parametrize("z_bid, problem", [
    ({}, "missing cost"), ({"z": float("nan")}, "non-finite cost"),
    ({"z": -1}, "negative cost"), ({"z": "2"}, "unsupported type")])
def test_an_isolated_agents_bid_passes_the_cost_rule(z_bid, problem):
    inst = build_vc_instance(ABC_Z, {v: ONE for v in "abc"})
    assert inst.isolated == ("z",)
    with pytest.raises(InputError, match=problem) as err:
        ev_run(inst, {"a": ONE, "b": ONE, "c": ONE, **z_bid})
    assert "'z'" in str(err.value)


@pytest.mark.parametrize("run, bids, agent", [
    (lambda b: ev_run(instance(ABC_Z, ONE), b),
     {"a": 10**400, "b": 1, "c": 1, "z": 0}, "a"),
    (lambda b: ev_run(instance(ABC_Z, ONE), b),
     {"a": 1, "b": 1.7e308, "c": 1.7e308, "z": 0}, "c"),
    (lambda b: fm_run(DIAMOND, b, 1),
     {"sa": 10**400, "at": 1, "sb": 1, "bt": 1}, "sa"),
    (lambda b: cm_run(DIAMOND, b),
     {"sa": 1, "at": 1, "sb": 1, "bt": 10**400}, "bt"),
], ids=["ev_run-int", "ev_run-float", "fm_run", "cm_run"])
def test_a_bid_that_overflows_once_scaled_is_an_input_error(run, bids,
                                                            agent):
    # 10**400 has no float; 1.7e308 has one, but not over c's q of 0.707.
    with pytest.raises(InputError, match=f"bid for '{agent}' overflows"):
        run(bids)


TWO_PATHS = Graph.build("abcdef", [("ab", "a", "b"), ("bc", "b", "c"),
                                   ("de", "d", "e"), ("ef", "e", "f")],
                        directed=False)


@pytest.mark.parametrize("graph, bids, problem", [
    (ABC_Z, {"a": 1e308, "b": 1, "c": 1e308, "z": 0}, "threshold for 'b'"),
    (ABC_Z, {"a": 10**308, "b": 1, "c": 10**308, "z": 0},
     "threshold for 'b'"),
    (TWO_PATHS, {"a": 5e307, "b": 1, "c": 5e307, "d": 5e307, "e": 1,
                 "f": 5e307}, "total payment"),
], ids=["threshold-float", "threshold-int", "total"])
def test_a_payment_past_the_float_range_is_an_input_error(graph, bids,
                                                          problem):
    # The scaled bids are finite (1.41e308 on the path's ends), but b's
    # threshold is twice that; on two paths each payment is a finite
    # 1.41e308 and their total is not.
    with pytest.raises(InputError, match=f"{problem} overflows a float"):
        ev_run(instance(graph, ONE), bids)


def test_a_threshold_whose_partial_sums_overflow_is_paid():
    # The 4-cycle u-a-c-b with q 1/4 on u and c: u's threshold is
    # m(a) + m(b) - m(c) = 1e308 + 1e308 - 0.9e308, finite though its
    # first two terms overflow a float.
    g = Graph.build("abcu", [("ua", "u", "a"), ("ac", "a", "c"),
                             ("cb", "c", "b"), ("bu", "b", "u")],
                    directed=False)
    inst = build_vc_instance(g, {"a": ONE, "b": ONE, "c": Fraction(16),
                                 "u": Fraction(16)})
    assert inst.q == {"a": 1.0, "b": 1.0, "c": 0.25, "u": 0.25}
    out = ev_run(inst, {"a": 1e308, "b": 1e308, "c": 2.25e307,
                        "u": 2.25e307})
    assert out.winners == frozenset("cu")
    assert out.payments["u"] == out.payments["c"] == 2.75e307
    assert out.total_payment == 5.5e307


def test_max_eigenvalue_with_no_edges_is_the_unit_frugality():
    inst = build_vc_instance(Graph.build("ab", [], directed=False), {})
    assert inst.isolated == ("a", "b")
    assert inst.max_eigenvalue == ev_frugality_on_units(inst) == 0.0


def test_brute_force_cover_solver_cap(monkeypatch):
    monkeypatch.setattr(caps, "COVER_AGENT_CAP", 3)
    assert instance(ABC_Z, ONE).agents == ("a", "b", "c")
    monkeypatch.setattr(caps, "COVER_AGENT_CAP", 2)
    with pytest.raises(ScaleError, match="capped at 2 agents"):
        instance(ABC_Z, ONE)


@pytest.mark.parametrize("solver", ["brute", "minimal", "flow", "cut"])
def test_every_cover_query_returns_the_cover_alone(solver):
    if solver == "flow":
        h, costs = DIAMOND, {"sa": 1, "at": 2, "sb": 3, "bt": 4}
        inst = vc_from_flow(h, 1)
    elif solver == "cut":
        costs = {"sa": 1, "at": 2, "sb": 3, "bt": 4}
        inst = _cut_vc_instance(contract_to_h(DIAMOND, frozenset(costs)))
    else:
        costs = {"a": 1, "b": 5, "c": 1}
        inst = instance(ABC_Z, ONE)
        if solver == "minimal":
            inst = dataclasses.replace(
                inst, solver=MinimalCoverSolver(inst.conflict_graph))
    agent = min(costs)
    for cover in (inst.solver.min_cover(costs),
                  inst.solver.min_cover_containing(agent, costs),
                  inst.solver.min_cover_excluding(agent, costs)):
        assert type(cover) is frozenset and cover <= set(costs)
    flow_costs = {"sa": 1, "at": 2, "sb": 3, "bt": 4}
    assert type(min_cost_flow(DIAMOND, flow_costs, 2)) is frozenset
