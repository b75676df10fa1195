import random
from fractions import Fraction

import pytest

from frugal import caps
from frugal.cut import (CutCoverSolver, cm_run, contract_to_h, double_cut_lp,
                        min_double_cut)
from frugal.eigen import AuctionOutcome, build_vc_instance, ev_run
from frugal.errors import MonopolyError, ScaleError
from frugal.flow import conflict_graph, fm_run, nu_flow_fast
from frugal.graph import Graph
from frugal.oracle import (brute_conflict_pairs, brute_double_cut,
                           check_truthfulness, first_price_cover_mechanism,
                           measure_frugality, random_costs,
                           random_cut_network, random_kplus1_flow)
from frugal.setsystems import VERTEX_COVER, SetSystem, nu, tot

F = Fraction


def vc_mechanism(g):
    sys_ = SetSystem(VERTEX_COVER, g)
    tot_map = {v: tot(sys_, v) for v in g.vertices}
    inst = build_vc_instance(g, tot_map)
    return inst, lambda bids: ev_run(inst, bids)


def test_brute_double_cut_path(path_graph, path_costs):
    chosen, cost = brute_double_cut(path_graph, path_costs)
    assert (chosen, cost) == (frozenset({"sa", "bt"}), 3)


def test_brute_double_cut_diamond(diamond):
    chosen, _ = brute_double_cut(diamond, {e.id: F(1) for e in diamond.edges})
    assert chosen == frozenset({"sa", "sb", "at", "bt"})


def test_brute_double_cut_matches_lp():
    rng = random.Random(31)
    for _ in range(20):
        g = random_cut_network(rng, rng.randint(4, 6), rng.randint(4, 8))
        costs = random_costs(rng, [e.id for e in g.edges])
        _, brute = brute_double_cut(g, costs)
        _, exact = double_cut_lp(g, costs)
        assert brute == exact


def test_brute_double_cut_is_capped(monkeypatch, diamond):
    costs = {e.id: F(1) for e in diamond.edges}
    monkeypatch.setattr(caps, "DOUBLE_CUT_ENUM_EDGES", 4)
    assert brute_double_cut(diamond, costs)[1] == 4
    monkeypatch.setattr(caps, "DOUBLE_CUT_ENUM_EDGES", 3)
    with pytest.raises(ScaleError, match="capped at 3 edges"):
        brute_double_cut(diamond, costs)


def test_conflict_pairs_match_reachability_rule():
    rng = random.Random(47)
    for _ in range(20):
        k = rng.randint(1, 3)
        h = random_kplus1_flow(rng, k)
        fast = {frozenset((e.tail, e.head)) for e in conflict_graph(h).edges}
        brute = {frozenset(p) for p in brute_conflict_pairs(h)}
        assert fast == brute


def test_truthfulness_passes_on_ev(triangle):
    _, mech = vc_mechanism(triangle)
    report = check_truthfulness(mech, triangle.vertices, random.Random(1),
                                trials=30)
    assert report.ok
    assert report.checks > 50


def test_truthfulness_passes_on_fm():
    rng = random.Random(2)
    g = random_kplus1_flow(rng, 1)
    report = check_truthfulness(lambda b: fm_run(g, b, 1),
                                [e.id for e in g.edges], rng, trials=30)
    assert report.ok


def test_truthfulness_passes_on_cm(diamond):
    report = check_truthfulness(lambda b: cm_run(diamond, b),
                                [e.id for e in diamond.edges],
                                random.Random(3), trials=30)
    assert report.ok


def test_truthfulness_flags_first_price(triangle):
    inst, _ = vc_mechanism(triangle)
    broken = first_price_cover_mechanism(inst)
    report = check_truthfulness(broken, triangle.vertices, random.Random(4),
                                trials=30)
    assert not report.ok
    assert any(v[0] == "payment-mismatch" for v in report.violations)


def triangle_rule(loses_first):
    """A broken triangle auction: its covers are the vertex pairs, the
    agent with the largest loses_first(agent, bid) loses, and winners
    are paid their bids."""

    def run(bids):
        loser = max(bids, key=lambda a: loses_first(a, bids[a]))
        payments = {a: 0.0 if a == loser else float(bids[a]) for a in bids}
        return AuctionOutcome(frozenset(bids) - {loser}, payments,
                              sum(payments.values()))

    return run


@pytest.mark.parametrize("tag, loses_first", [
    # The cheapest agent loses, so a loser can raise its way in.
    ("loser-raise", lambda a, bid: (-bid, a)),
    # A fractional bid loses, so halving a winning odd bid loses.
    ("winner-lower", lambda a, bid: (bid.denominator > 1, bid, a)),
    # "a" never loses, at any bid.
    ("unbounded-threshold", lambda a, bid: (a != "a", bid, a)),
])
def test_truthfulness_flags_each_broken_property(triangle, tag, loses_first):
    report = check_truthfulness(triangle_rule(loses_first),
                                triangle.vertices, random.Random(4),
                                trials=30)
    assert tag in {v[0] for v in report.violations}


def test_cut_cover_appends_a_pinned_edge_on_the_dearer_side():
    # Bundle "a" has sides (sa1, sa2) and (at); with sa1 pinned at price
    # 0 its side still costs 5 against 1, so sa1 joins the cover alone.
    g = Graph.build("sabt", [("sa1", "s", "a"), ("sa2", "s", "a"),
                             ("at", "a", "t"), ("sb", "s", "b"),
                             ("bt", "b", "t")],
                    directed=True, source="s", sink="t")
    solver = CutCoverSolver(contract_to_h(g, frozenset(e.id for e in g.edges)))
    costs = {"sa1": 7, "sa2": 5, "at": 1, "sb": 2, "bt": 3}
    assert solver.min_cover_containing("sa1", costs) == frozenset(
        {"at", "sa1", "sb"})


def test_measure_frugality_triangle(triangle):
    inst, mech = vc_mechanism(triangle)
    sys_ = SetSystem(VERTEX_COVER, triangle)
    rng = random.Random(6)
    vectors = [random_costs(rng, triangle.vertices) for _ in range(40)]
    ratio = measure_frugality(mech, lambda c: nu(sys_, c).value, vectors)
    assert ratio <= inst.max_eigenvalue + 1e-6
    # Unit cost vectors attain the eigenvalue bound.
    units = [{v: F(1 if v == u else 0) for v in triangle.vertices}
             for u in triangle.vertices]
    attained = measure_frugality(mech, lambda c: nu(sys_, c).value, units)
    assert attained == pytest.approx(inst.max_eigenvalue, abs=1e-6)


def test_measure_frugality_flow_pair():
    g = Graph.build(["s", "t"], [("e1", "s", "t"), ("e2", "s", "t")],
                    source="s", sink="t")
    ratio = measure_frugality(
        lambda b: fm_run(g, b, 1),
        lambda c: nu_flow_fast(g, c, 1),
        [{"e1": F(1), "e2": F(3)}, {"e1": F(5), "e2": F(2)}])
    assert ratio == pytest.approx(1.0, abs=1e-9)


def test_measure_frugality_flags_payment_over_zero_bound(triangle):
    inst, _ = vc_mechanism(triangle)

    def overpayer(bids):
        out = ev_run(inst, bids)
        payments = {a: p + 1.0 for a, p in out.payments.items()}
        return type(out)(out.winners, payments, out.total_payment + 3.0,
                         out.diagnostics)

    sys_ = SetSystem(VERTEX_COVER, triangle)
    zero = [{v: F(0) for v in triangle.vertices}]
    assert measure_frugality(overpayer, lambda c: nu(sys_, c).value,
                             zero) == float("inf")


def test_measure_frugality_divides_by_the_exact_bound():
    # The bound's float is 0.0, but the bound is not zero.
    def paying(payment):
        return lambda costs: AuctionOutcome(frozenset(), {}, payment)

    tiny = F(1, 10**400)
    assert measure_frugality(paying(2.0**-1070), lambda c: tiny,
                             [{}]) == float(F(2)**-1070 * 10**400)
    assert measure_frugality(paying(0.0), lambda c: tiny, [{}]) == 0.0
    assert measure_frugality(paying(1.0), lambda c: tiny,
                             [{}]) == float("inf")


def test_generators_are_seeded():
    a = random_cut_network(random.Random(9), 5, 6)
    b = random_cut_network(random.Random(9), 5, 6)
    assert a == b
    fa = random_kplus1_flow(random.Random(9), 2)
    fb = random_kplus1_flow(random.Random(9), 2)
    assert fa == fb


def test_generator_properties():
    rng = random.Random(12)
    for _ in range(10):
        g = random_cut_network(rng, rng.randint(4, 7), rng.randint(4, 10))
        assert not any(e.tail == "s" and e.head == "t" for e in g.edges)
        h = random_kplus1_flow(rng, 2)
        # Must be exactly a 3-flow: pruning is the identity.
        from frugal.flow import decompose_paths
        assert len(decompose_paths(h, 3)) == 3


def test_cut_mechanism_never_hits_monopoly_on_generator():
    rng = random.Random(23)
    for _ in range(10):
        g = random_cut_network(rng, 5, 6)
        costs = random_costs(rng, [e.id for e in g.edges])
        try:
            min_double_cut(g, costs)
        except MonopolyError:
            pytest.fail("generator produced an s-t edge")
