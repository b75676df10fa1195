from fractions import Fraction

import numpy as np
import pytest

from frugal.cut import cm_run
from frugal.eigen import build_vc_instance, ev_run
from frugal.errors import InputError
from frugal.flow import fm_run, vc_from_flow
from frugal.graph import Graph
from frugal.rational import integer_costs, python_integers
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
