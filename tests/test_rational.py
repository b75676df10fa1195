from fractions import Fraction

import pytest

from frugal.errors import InputError
from frugal.rational import integer_costs


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
