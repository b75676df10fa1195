"""Exact rational values and their "p/q" wire format.

All costs, bids, LP data, and Nash-bound values in this package are
`fractions.Fraction` instances (always in lowest terms, positive
denominator). JSON files carry them as strings like "3/2"; bare
integers are accepted as shorthand. The flow and cut solvers run on
the costs' exact integer images (`integer_costs`), and that conversion
is also the one cost check: a missing, non-numeric (a bool or a
string, say), non-finite (NaN, +-inf) or negative cost is an
InputError, and a numpy integer counts as the integer it holds. The
flow and cut auctions meet it in their first solve, the cover auction
when it scales its bids, so such a bid is an error in all three; Tot
values meet it in `eigen.build_vc_instance`. The flow and cut auctions
also sum raw bids, so they take numpy integer bids as Python ints
(`python_integers`) where the bids enter.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

from .errors import InputError


def parse_rational(value) -> Fraction:
    """Parse a JSON-level value ("p/q" string, int, or float) exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"not a rational: {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {value!r}") from exc
    raise InputError(f"not a rational: {value!r}")


def integer_costs(costs: dict) -> tuple[int, dict]:
    """(D, {key: D * c}): the costs as exact integers with one common
    scale D, the lcm of the cost denominators in lowest terms.

    `c.as_integer_ratio()` gives Fraction(c)'s numerator and
    denominator, exactly for int, Fraction and float alike, so sums of
    the integers order and tie exactly as the sums of the costs do.
    Any other `numbers.Rational` (a numpy integer, say) gives its own
    numerator and denominator.

    This is the cost rule: a cost of None (missing), a bool (numpy's
    included), anything neither rational nor with `as_integer_ratio`
    (a str, say), NaN, +-inf or below zero raises InputError naming
    its key."""
    ratios = {}
    for key, c in costs.items():
        if c is None:
            raise InputError(f"missing cost for {key!r}")
        ratio = getattr(c, "as_integer_ratio", None)
        if ratio is None and isinstance(c, numbers.Rational):
            ratio = Fraction(int(c.numerator),
                             int(c.denominator)).as_integer_ratio
        if ratio is None or c is True or c is False:
            raise InputError(f"cost for {key!r} has unsupported type "
                             f"{type(c).__name__}")
        try:
            num, den = ratio()
        except (OverflowError, ValueError):
            raise InputError(f"non-finite cost for {key!r}") from None
        if num < 0:
            raise InputError(f"negative cost for {key!r}")
        ratios[key] = num, den
    scale = math.lcm(*(den for _, den in ratios.values()))
    return scale, {key: num * (scale // den)
                   for key, (num, den) in ratios.items()}


def python_integers(costs: dict) -> dict:
    """The costs with each integer of another type (a numpy integer,
    say) replaced by the Python int it holds, so that sums of costs
    grow where a fixed-width integer would wrap. Every other value,
    bools included, is kept as it is for `integer_costs` to judge, so
    int, Fraction and float costs pass through unchanged."""
    return {key: int(c) if not isinstance(c, int)
            and isinstance(c, numbers.Integral) else c
            for key, c in costs.items()}


def format_rational(value: Fraction) -> str:
    """Serialize as "p/q" (denominator always explicit, e.g. "2/1")."""
    return f"{value.numerator}/{value.denominator}"
