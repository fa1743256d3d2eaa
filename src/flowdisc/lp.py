"""Exact-rational linear programming via two-phase primal simplex.

Everything is computed over exact rationals; there are no tolerances anywhere.
LPs come in standard form over columns 0, 1, ..., each a nonnegative variable
with no other bound; the objective and every row map columns to ints or
`Fraction`s.  A tableau row is a sparse ``{column: int}`` dict of its nonzero
entries: a row of ints is copied without its zeros, and a row that holds a
`Fraction` is scaled by the lcm of its denominators.  A pivot updates only the
rows that hold the entering column, with one gcd pass per updated row, so the
hot loop stays in bignum arithmetic with no per-entry `Fraction` normalization.

Pivoting uses Bland's rule for both the entering and the leaving choice (the
smallest column with a negative reduced cost enters; ratio-test ties leave by
the smallest basic column), so solves are deterministic and cannot cycle.

An infeasible solve returns a Farkas ray, one multiplier per constraint, which
`farkas_violations` checks exactly from the LP alone, with no tableau code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Optional

from .util import (InternalCheckError, ValidationError, common_scale, exact, exact_fraction, scaled,
                   scaled_list)

LE, EQ, GE = "<=", "==", ">="
_RELATIONS = frozenset((LE, EQ, GE))
_FLIP = {LE: GE, GE: LE, EQ: EQ}
_EXACT, _INT = frozenset((int, Fraction)), frozenset((int,))

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


class Constraint(NamedTuple):
    coeffs: dict  # column -> int or Fraction
    relation: str
    rhs: object  # int or Fraction


@dataclass
class LinearProgram:
    """A minimization LP: column j is a variable ``>= 0``, and its label
    ``variables[j]``, which the solver never reads, names it for the builder."""

    variables: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)  # column -> cost
    constraints: list = field(default_factory=list)

    def add_variable(self, label) -> int:
        """Append a column labelled `label`; return its index."""
        self.variables.append(label)
        return len(self.variables) - 1


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: dict  # column -> value, every column (Optimal only)
    objective_value: Optional[Fraction]
    ray: Optional[list] = None  # Infeasible only: one Farkas multiplier per constraint


@dataclass(frozen=True)
class Violation:
    """One violated constraint or bound, with its exact slack."""

    kind: str  # "constraint" or "bound"
    index: int  # constraint position or column
    relation: str
    lhs: Fraction
    rhs: Fraction
    slack: Fraction


def _int_rows(lp: LinearProgram) -> list[tuple]:
    """Each constraint, then the objective, as (row, rhs, den): its numbers as
    ints over the lcm `den` of the denominators of its `Fraction` entries, with
    no zero entry.  Refuses a row, also one appended straight to
    `constraints`, with a number that is not an int or a `Fraction` (a bool is
    not) or a column that is not an int in range; the LP is checked as a
    whole, and row by row only to name what is wrong."""
    rows = [*lp.constraints, Constraint(lp.objective, EQ, 0)]
    coeffs = list(map(itemgetter(0), rows))
    keys = list(chain.from_iterable(coeffs))
    kinds = {*map(type, chain.from_iterable(map(dict.values, coeffs))), *map(type, map(itemgetter(2), rows))}
    n = len(lp.variables)
    if not (_RELATIONS.issuperset(map(itemgetter(1), rows)) and _EXACT.issuperset(kinds)
            and _INT.issuperset(map(type, keys)) and (not keys or min(keys) >= 0 and max(keys) < n)):
        for pos, (row, relation, rhs) in enumerate(rows):
            bad = [f"unknown relation {relation!r}"] if relation not in _RELATIONS else []
            bad += [f"expected an int or a Fraction, got {type(v).__name__} {v!r}"
                    for v in (*row.values(), rhs) if type(v) not in _EXACT]
            bad += [f"no column {j!r} among {n}" for j in row if type(j) is not int or not 0 <= j < n]
            if bad:
                where = f"constraint {pos}" if pos < len(lp.constraints) else "objective"
                raise ValidationError(f"{where}: {bad[0]}")
    out, ints = [], kinds == _INT  # an LP of ints has only int rows
    for row, _, rhs in rows:
        if ints or type(rhs) is int and _INT.issuperset(map(type, row.values())):
            out.append(({j: c for j, c in row.items() if c}, rhs, 1))
        else:
            den = common_scale([rhs, *row.values()])
            scaled_row = {j: c for j, c in zip(row, scaled_list(row.values(), den)) if c}
            out.append((scaled_row, scaled(rhs, den), den))
    return out


def _gcd_reduce(row: dict) -> None:
    """Divide a sparse integer row by the gcd of its entries, in place."""
    g = math.gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _eliminate(row: dict, prow: dict, s: int) -> None:
    """Set `row` to ``row * prow[s] - row[s] * prow``, gcd-reduced, in place.

    With ``prow[s] > 0`` the result is a positive multiple of the true row
    after the pivot, and column `s` leaves `row`.
    """
    piv, a = prow[s], row[s]
    if piv != 1:
        for j, v in row.items():
            row[j] = v * piv
    for j, v in prow.items():
        x = row.get(j, 0) - a * v
        if x:
            row[j] = x
        else:
            del row[j]
    _gcd_reduce(row)


class _Tableau:
    """Sparse simplex tableau of integer rows.

    Row i is a ``{col: int}`` dict that stores only its nonzero entries, with
    the right-hand side at key ``ncols``.  Its positive denominator is its own
    entry at its basic column ``basis[i]``: the true row is
    ``row / row[basis[i]]``.  The objective row `z` is kept up to a positive
    factor, since only the signs of its entries are read.  A pivot touches
    only the rows that hold the entering column; the pivots chosen are those
    of a dense tableau under the same Bland rule (`tests/test_lp.py` keeps
    that dense solver as the reference).
    """

    def __init__(self, rows: list, basis: list, ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols
        self.z: dict = {}

    def set_costs(self, cost: dict) -> None:
        """Make `z` the reduced costs of the integer costs `cost` ({col: int}).

        z = cost - sum over rows of cost[basis] * row / den, scaled by the lcm
        of the denominators involved; its rhs entry is minus the basic cost.
        """
        scale = math.lcm(*(row[b] for row, b in zip(self.rows, self.basis) if b in cost))
        z = {j: scale * c for j, c in cost.items()}
        for row, b in zip(self.rows, self.basis):
            if b in cost:
                f = cost[b] * (scale // row[b])
                for j, v in row.items():
                    z[j] = z.get(j, 0) - f * v
        self.z = {j: v for j, v in z.items() if v}
        _gcd_reduce(self.z)

    def holders(self, s: int) -> list:
        """Indices of the rows with a nonzero entry in column s."""
        return [i for i, row in enumerate(self.rows) if s in row]

    def pivot(self, r: int, s: int, holders: list) -> None:
        """Pivot on row r, column s; `holders` is ``self.holders(s)``."""
        prow = self.rows[r]
        if prow[s] <= 0:
            raise InternalCheckError(f"pivot entry {prow[s]} is not positive")
        for q in holders:
            if q != r:
                _eliminate(self.rows[q], prow, s)
        if s in self.z:
            _eliminate(self.z, prow, s)
        _gcd_reduce(prow)
        self.basis[r] = s

    def run(self, nenter: int) -> str:
        """Bland-rule simplex until optimal or unbounded; columns below `nenter` may enter."""
        rhs = self.ncols
        while True:
            enter = nenter
            for j, v in self.z.items():
                if v < 0 and j < enter:
                    enter = j
            if enter == nenter:
                return OPTIMAL
            holders = self.holders(enter)
            leave = -1
            best_num = best_den = 0  # ratio = rhs/a as best_num/best_den
            for i in holders:
                row = self.rows[i]
                a = row[enter]
                if a < 0:
                    continue
                num = row.get(rhs, 0)
                if leave < 0:
                    leave, best_num, best_den = i, num, a
                    continue
                cmp = num * best_den - best_num * a
                if cmp < 0 or (cmp == 0 and self.basis[i] < self.basis[leave]):
                    leave, best_num, best_den = i, num, a
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter, holders)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact optimal basic solution of `lp`, or Infeasible/Unbounded status.

    Deterministic: identical inputs produce the identical basis and values.
    """
    *specs, (cost, _, _) = _int_rows(lp)
    relations = list(map(itemgetter(1), lp.constraints))
    # Slack/surplus columns for the <= and >= rows, then artificial columns
    # for the >= and == rows (a row with rhs < 0 is negated first, which swaps
    # <= and >=); a row's initial basis is its slack or artificial.
    nvars = slack = len(lp.variables)
    first_art = art = nvars + len(relations) - relations.count(EQ)
    rows, basis, rhss = [], [], []
    for (row, rhs, den), rel in zip(specs, relations):
        if rhs < 0:
            for j in row:
                row[j] = -row[j]
            rhs, rel = -rhs, _FLIP[rel]
        if rel != EQ:
            row[slack] = den if rel == LE else -den
            slack += 1
        if rel == LE:
            basis.append(slack - 1)
        else:
            row[art] = den
            basis.append(art)
            art += 1
        rows.append(row)  # already in lowest terms: one lcm of reduced denominators
        rhss.append(rhs)
    ncols = art
    for row, rhs in zip(rows, rhss):
        if rhs:
            row[ncols] = rhs
    own = basis[:]  # each row's slack (<=) or artificial column
    tab = _Tableau(rows, basis, ncols)

    # Phase 1: minimize the sum of artificials (skipped when there are none).
    if first_art < ncols:
        tab.set_costs({j: 1 for j in range(first_art, ncols)})
        status = tab.run(ncols)
        if status != OPTIMAL:
            raise InternalCheckError(f"phase 1 ended {status}, though it is bounded below by 0")
        if tab.z.get(ncols):
            # z is f > 0 times the reduced costs d, and z[rhs] is -f times the
            # phase-1 optimum, the sum of the basic artificials' values
            # rhs_i / den_i, which is num / lden over their lcm lden: so
            # f = -z[rhs] lden / num.  Row i's Farkas multiplier is d of its
            # slack or d - 1 of its artificial, negated back if the row was
            # flipped: an int ratio over fden = -z[rhs] lden, one Fraction each.
            arts = [(row.get(ncols, 0), row[b]) for row, b in zip(tab.rows, tab.basis) if b >= first_art]
            lden = math.lcm(*(den for _, den in arts))
            num = sum(v * (lden // den) for v, den in arts)
            fden = -tab.z[ncols] * lden
            ray = []
            for c, con in zip(own, lp.constraints):
                w = tab.z.get(c, 0) * num - (fden if c >= first_art else 0)
                ray.append(Fraction(-w if con.rhs < 0 else w, fden))
            return LpSolution(INFEASIBLE, {}, None, ray)
        # drive leftover artificials out of the basis (or drop redundant rows)
        keep = []
        for i in range(len(tab.rows)):
            if tab.basis[i] >= first_art:
                row = tab.rows[i]
                s = min((j for j in row if j < first_art), default=-1)
                if s < 0:
                    continue
                if row[s] < 0:
                    # negate the row first so the pivot entry is positive
                    for j in row:
                        row[j] = -row[j]
                tab.pivot(i, s, tab.holders(s))
            keep.append(i)
        tab.rows = [tab.rows[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]

    # Phase 2 with the real objective (identically zero objectives skip it:
    # any feasible basic point is optimal).
    if cost:
        tab.set_costs(cost)
        if tab.run(first_art) == UNBOUNDED:
            return LpSolution(UNBOUNDED, {}, None)

    basic = [(b, Fraction(row.get(ncols, 0), row[b])) for row, b in zip(tab.rows, tab.basis) if b < nvars]
    values = dict.fromkeys(range(nvars), Fraction(0))
    values.update(basic)
    obj_val = sum((lp.objective[b] * x for b, x in basic if b in lp.objective), Fraction(0))
    return LpSolution(OPTIMAL, values, obj_val)


def farkas_violations(lp: LinearProgram, ray) -> list[str]:
    """Exactly check that `ray`, one multiplier w per constraint, proves `lp`
    infeasible; list what fails.

    Empty iff w >= 0 on every ``<=`` row, w <= 0 on every ``>=`` row,
    w.A >= 0 on every column and w.b < 0: then any x >= 0 meeting the rows
    would give 0 <= w.A x <= w.b < 0.

    The sums run on ints: the ray is scaled by the lcm of its denominators,
    and every row, as the ints that the simplex takes, by the lcm of their
    denominators.  Both scales are positive, so the signs are those of the
    rational sums, which are rebuilt only for a report line.  Each multiplier
    passes `util.exact`, so a float, a bool or a non-number is refused.
    """
    *rows, _ = _int_rows(lp)
    ray = [exact(w) for w in ray]
    if len(ray) != len(lp.constraints):
        return [f"ray has {len(ray)} multipliers for {len(lp.constraints)} constraints"]
    ray_scale = common_scale(ray)
    lp_scale = math.lcm(*(den for _, _, den in rows))
    out, wa, wb = [], [0] * len(lp.variables), 0
    for pos, (con, (row, rhs, den), w, wi) in enumerate(zip(lp.constraints, rows, ray,
                                                            scaled_list(ray, ray_scale))):
        if (con.relation == LE and w < 0) or (con.relation == GE and w > 0):
            out.append(f"constraint {pos} ({con.relation}): multiplier {w} has the wrong sign")
        if not wi:
            continue
        wi *= lp_scale // den
        for j, c in row.items():
            wa[j] += wi * c
        wb += wi * rhs
    scale = ray_scale * lp_scale
    out += [f"column {lp.variables[j]!r}: w.A = {Fraction(v, scale)} < 0" for j, v in enumerate(wa) if v < 0]
    if wb >= 0:
        out.append(f"w.b = {Fraction(wb, scale)} >= 0")
    return out


def check_point(lp: LinearProgram, values: dict) -> list[Violation]:
    """Exactly evaluate every constraint and bound at `values` ({column:
    number}); list violations.

    Empty result iff the point is feasible.  Raises if a column is missing.
    """
    _int_rows(lp)
    missing = [j for j in range(len(lp.variables)) if j not in values]
    if missing:
        raise ValidationError(f"no value supplied for column {missing[0]} ({lp.variables[missing[0]]!r})")
    point = [exact_fraction(values[j]) for j in range(len(lp.variables))]
    out: list[Violation] = []
    for pos, con in enumerate(lp.constraints):
        lhs = sum((c * point[j] for j, c in con.coeffs.items()), Fraction(0))
        rhs = Fraction(con.rhs)
        if con.relation == LE and lhs > rhs:
            out.append(Violation("constraint", pos, LE, lhs, rhs, rhs - lhs))
        elif con.relation == GE and lhs < rhs:
            out.append(Violation("constraint", pos, GE, lhs, rhs, lhs - rhs))
        elif con.relation == EQ and lhs != rhs:
            out.append(Violation("constraint", pos, EQ, lhs, rhs, rhs - lhs))
    for j, x in enumerate(point):
        if x < 0:
            out.append(Violation("bound", j, GE, x, Fraction(0), x))
    return out
