import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from frugal.cut import cm_run
from frugal.eigen import build_vc_instance, ev_run
from frugal.errors import InputError
from frugal.flow import fm_run, vc_from_flow
from frugal.graph import Graph
from frugal.rational import (integer_costs, python_integers, rounded_ratio,
                             tie_broken)
from frugal.setsystems import VERTEX_COVER, SetSystem, nu


def test_integer_costs_share_one_scale():
    scale, exact = integer_costs({"a": Fraction(1, 2), "b": 3, "c": 0.25})
    assert scale == 4
    assert exact == {"a": 2, "b": 12, "c": 1}


def test_integer_costs_of_nothing():
    assert integer_costs({}) == (1, {})


@pytest.mark.parametrize("bad", [None, float("nan"), float("inf"),
                                 float("-inf"), -1, Fraction(-1, 3), -0.5])
def test_integer_costs_enforce_the_cost_rule(bad):
    with pytest.raises(InputError, match="'e'"):
        integer_costs({"a": 1, "e": bad})


def test_tie_broken_adds_one_bit_per_key_in_id_order():
    # {a} and {b, c} both cost 2: the set without c, the highest id of
    # their symmetric difference, is the cheaper one perturbed.
    weight = tie_broken({"c": 1, "a": 2, "b": 1})
    assert weight == {"a": (2 << 3) + 1, "b": (1 << 3) + 2, "c": (1 << 3) + 4}
    assert weight["a"] < weight["b"] + weight["c"]


def test_tie_broken_sums_order_sets_as_the_costs_then_the_rule_do():
    rng = random.Random(3)
    for _ in range(20):
        exact = {f"k{i}": rng.randint(0, 3) for i in range(6)}
        weight = tie_broken(exact)
        subsets = [frozenset(c) for r in range(7)
                   for c in itertools.combinations(sorted(exact), r)]
        for x, y in itertools.combinations(subsets, 2):
            wx = sum(weight[k] for k in x)
            wy = sum(weight[k] for k in y)
            cx = sum(exact[k] for k in x)
            cy = sum(exact[k] for k in y)
            assert wx != wy
            if cx != cy:
                assert (wx < wy) == (cx < cy)
            else:
                assert (wx < wy) == (max(x ^ y) in y)


def test_negative_zero_is_a_zero_cost():
    assert integer_costs({"e": -0.0}) == (1, {"e": 0})


TRIANGLE = Graph.build("abc", [("ab", "a", "b"), ("bc", "b", "c"),
                               ("ca", "c", "a")], directed=False)
DIAMOND = Graph.build("sabt", [("sa", "s", "a"), ("at", "a", "t"),
                               ("sb", "s", "b"), ("bt", "b", "t")],
                      directed=True, source="s", sink="t")
ENTRY_POINTS = {
    "nu": lambda bad: nu(SetSystem(VERTEX_COVER, TRIANGLE),
                         {"a": bad, "b": 0, "c": 1}),
    "ev_run": lambda bad: ev_run(
        build_vc_instance(TRIANGLE, dict.fromkeys("abc", Fraction(2))),
        {"a": bad, "b": 0, "c": 1}),
    "fm_run": lambda bad: fm_run(DIAMOND, {"sa": bad, "at": 1, "sb": 0,
                                           "bt": 1}, 1),
    "cm_run": lambda bad: cm_run(DIAMOND, {"sa": bad, "at": 1, "sb": 0,
                                           "bt": 1}),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1"])
def test_non_numeric_costs_are_input_errors(entry, bad):
    # A bool (numpy's too) is not taken as 0 or 1 and a str does not
    # reach as_integer_ratio: the message names the agent.
    with pytest.raises(InputError, match="'(a|sa)'"):
        ENTRY_POINTS[entry](bad)


def test_numpy_integers_are_the_integers_they_hold():
    assert integer_costs({"a": np.int64(3), "b": np.uint8(2),
                          "c": Fraction(1, 2)}) == (2, {"a": 6, "b": 4,
                                                        "c": 1})


@pytest.mark.parametrize("entry, bids", [
    ("ev_run", {"a": 3, "b": 1, "c": 2}),
    ("fm_run", {"sa": 3, "at": 1, "sb": 2, "bt": 5}),
    ("cm_run", {"sa": 3, "at": 1, "sb": 2, "bt": 5}),
])
def test_numpy_integer_bids_run_as_int_bids(entry, bids):
    run = {"ev_run": lambda b: ev_run(build_vc_instance(
               TRIANGLE, dict.fromkeys("abc", Fraction(2))), b),
           "fm_run": lambda b: fm_run(DIAMOND, b, 1),
           "cm_run": lambda b: cm_run(DIAMOND, b)}[entry]
    assert run({a: np.int64(b) for a, b in bids.items()}) == run(bids)


def test_python_integers_change_only_foreign_integers():
    costs = {"i": 3, "f": Fraction(1, 2), "x": 0.25, "t": True,
             "n": np.int64(2**62), "u": np.uint8(7)}
    out = python_integers(costs)
    assert all(out[k] is costs[k] for k in "ifxt")
    assert (type(out["n"]), out["n"]) == (int, 2**62)
    assert (type(out["u"]), out["u"]) == (int, 7)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", ["ev_run", "fm_run", "cm_run"])
def test_large_numpy_integer_bids_do_not_wrap(entry):
    # As int64, 2**62 + 2**62 wraps to a negative sum.
    bids = {"sa": 2**62, "at": 1, "sb": 2**62, "bt": 3}
    run = {"ev_run": lambda b: ev_run(vc_from_flow(DIAMOND, 1), b),
           "fm_run": lambda b: fm_run(DIAMOND, b, 1),
           "cm_run": lambda b: cm_run(DIAMOND, b)}[entry]
    assert run({a: np.int64(b) for a, b in bids.items()}) == run(bids)


def test_rounded_ratio_is_exact_and_rounded_once():
    # 0.1 / float(1/9) rounds twice and gives 0.9000000000000001.
    assert rounded_ratio(0.1, Fraction(1, 9)) == 0.9
    assert rounded_ratio(0.0, Fraction(1, 10**400)) == 0.0
    assert rounded_ratio(2.0**-1000, Fraction(1, 10**400)) > 1e98
    assert rounded_ratio(1.0, Fraction(1, 10**400)) == math.inf
