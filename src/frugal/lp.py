"""Exact-rational linear programming.

Maximization over nonnegative (optionally shifted) variables with
<=, >=, and == rows, solved by two-phase tableau simplex using Bland's
anti-cycling rule. Everything is a Fraction; when the status is
"optimal" the returned assignment satisfies every constraint exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError

ZERO = Fraction(0)
ONE = Fraction(1)

LEQ, GEQ, EQ = "<=", ">=", "=="


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to rows, x >= lower_bounds."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    lower_bounds: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        n = len(self.objective)
        for coeffs, sense, _rhs in self.rows:
            if len(coeffs) != n:
                raise InputError("constraint row length mismatch")
            if sense not in (LEQ, GEQ, EQ):
                raise InputError(f"unknown sense {sense!r}")
        if self.lower_bounds is not None and len(self.lower_bounds) != n:
            raise InputError("lower bound length mismatch")

    @staticmethod
    def build(objective: Sequence, rows: Sequence, lower_bounds=None):
        obj = tuple(Fraction(c) for c in objective)
        rws = tuple((tuple(Fraction(a) for a in coeffs), sense, Fraction(rhs))
                    for coeffs, sense, rhs in rows)
        lbs = None if lower_bounds is None else tuple(Fraction(b) for b in lower_bounds)
        return LinearProgram(obj, rws, lbs)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    assignment: Optional[tuple[Fraction, ...]] = None


def solve(lp: LinearProgram) -> LpSolution:
    n = len(lp.objective)
    lbs = lp.lower_bounds or tuple(ZERO for _ in range(n))

    # Substitute x = y + lb so y >= 0, and expand == into paired <=.
    ineq_rows: list[tuple[list[Fraction], Fraction]] = []  # A y <= b
    for coeffs, sense, rhs in lp.rows:
        shift = sum(a * lb for a, lb in zip(coeffs, lbs))
        b = rhs - shift
        if sense in (LEQ, EQ):
            ineq_rows.append((list(coeffs), b))
        if sense in (GEQ, EQ):
            ineq_rows.append(([-a for a in coeffs], -b))

    y = _simplex_leq(list(lp.objective), ineq_rows)
    if isinstance(y, str):
        return LpSolution(status=y)
    x = tuple(v + lb for v, lb in zip(y, lbs))
    value = sum(c * v for c, v in zip(lp.objective, x))
    return LpSolution("optimal", value, x)


def _simplex_leq(c: list[Fraction], rows: list[tuple[list[Fraction], Fraction]]):
    """maximize c.y s.t. A y <= b, y >= 0; returns y or a status string."""
    n = len(c)
    m = len(rows)
    # Tableau columns: y (n) | slack (m) | artificial (per negative-rhs row) | rhs
    neg = [i for i, (_a, b) in enumerate(rows) if b < 0]
    n_art = len(neg)
    width = n + m + n_art + 1
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    art_cols: dict[int, int] = {}
    for j, i in enumerate(neg):
        art_cols[i] = n + m + j

    for i, (a, b) in enumerate(rows):
        row = [ZERO] * width
        flip = -ONE if b < 0 else ONE
        for j in range(n):
            row[j] = flip * a[j]
        row[n + i] = flip  # slack
        row[-1] = flip * b
        if b < 0:
            row[art_cols[i]] = ONE
            basis.append(art_cols[i])
        else:
            basis.append(n + i)
        tab.append(row)

    if n_art:
        # Phase 1: maximize -sum(artificials), in reduced-cost form for
        # the starting basis (c has -1 at artificial columns; each
        # artificial is basic, so add its row to cancel).
        obj = [ZERO] * width
        for col in art_cols.values():
            obj[col] = -ONE
        for i in neg:
            row = tab[basis.index(art_cols[i])]
            for j in range(width):
                obj[j] += row[j]
        status = _pivot_loop(tab, basis, obj, n + m + n_art)
        if status == "unbounded":  # cannot happen in phase 1
            return "infeasible"
        if obj[-1] != 0:
            return "infeasible"
        _drive_out_artificials(tab, basis, n + m)

    # Phase 2 objective in reduced-cost form.
    obj = [ZERO] * width
    for j in range(n):
        obj[j] = c[j]
    for i, bv in enumerate(basis):
        if bv < n and obj[bv] != 0:
            coef = obj[bv]
            for j in range(width):
                obj[j] -= coef * tab[i][j]
    status = _pivot_loop(tab, basis, obj, n + m, forbid=n + m)
    if status == "unbounded":
        return "unbounded"
    y = [ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            y[bv] = tab[i][-1]
    return y


def _pivot_loop(tab, basis, obj, n_cols, forbid=None) -> str:
    """Bland's rule: entering = lowest-index improving column."""
    m = len(tab)
    while True:
        enter = -1
        for j in range(n_cols):
            if forbid is not None and j >= forbid:
                break
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tab, basis, obj, leave, enter)


def _pivot(tab, basis, obj, i, j):
    piv = tab[i][j]
    row = tab[i]
    inv = ONE / piv
    tab[i] = [v * inv for v in row]
    row = tab[i]
    for k in range(len(tab)):
        if k != i and tab[k][j] != 0:
            f = tab[k][j]
            tab[k] = [a - f * b for a, b in zip(tab[k], row)]
    if obj[j] != 0:
        f = obj[j]
        obj[:] = [a - f * b for a, b in zip(obj, row)]
    basis[i] = j


def _drive_out_artificials(tab, basis, n_real):
    """Pivot basic artificials (value 0) onto real columns where possible."""
    for i in range(len(tab)):
        if basis[i] >= n_real:
            for j in range(n_real):
                if tab[i][j] != 0:
                    dummy = [ZERO] * len(tab[i])
                    _pivot(tab, basis, dummy, i, j)
                    break
    # Rows still basic in an artificial are identically zero; harmless.
