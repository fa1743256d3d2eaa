"""Exact-rational linear programming via two-phase primal simplex.

Everything is computed over exact rationals; there are no tolerances anywhere.
LPs come in standard form: every variable is nonnegative, with no other
bound.  Coefficients and right-hand sides are ints or `Fraction`s.  Each
tableau row is a sparse ``{column: int}`` dict that stores only its nonzero
entries, built straight from its constraint with one lcm of the row's
denominators.  A pivot updates only the rows that hold the entering column,
with one gcd pass per updated row, so the hot loop stays in bignum arithmetic
with no per-entry `Fraction` normalization.

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
from typing import Optional

from .util import InternalCheckError, ValidationError

LE, EQ, GE = "<=", "==", ">="
_RELATIONS = (LE, EQ, GE)
_FLIP = {LE: GE, GE: LE, EQ: EQ}

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: dict
    relation: str
    rhs: Fraction  # or int, as given


@dataclass
class LinearProgram:
    """A minimization LP over named variables, each of them ``>= 0``."""

    variables: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)

    def add_constraint(self, coeffs: dict, relation: str, rhs) -> None:
        if relation not in _RELATIONS:
            raise ValidationError(f"unknown relation {relation!r}")
        self.constraints.append(
            Constraint({v: _exact(c) for v, c in coeffs.items()}, relation, _exact(rhs))
        )


def _exact(x):
    """`x` itself if it is an int or a `Fraction`, else `Fraction(x)`."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: dict
    objective_value: Optional[Fraction]
    ray: Optional[list] = None  # Infeasible only: one Farkas multiplier per constraint


@dataclass(frozen=True)
class Violation:
    """One violated constraint or bound, with its exact slack."""

    kind: str  # "constraint" or "bound"
    index: object  # constraint position or variable name
    relation: str
    lhs: Fraction
    rhs: Fraction
    slack: Fraction


def _validate(lp: LinearProgram) -> None:
    declared = set(lp.variables)
    if len(declared) != len(lp.variables):
        raise ValidationError("duplicate variable names")
    for name in lp.objective:
        if name not in declared:
            raise ValidationError(f"objective references undeclared variable {name!r}")
    for pos, con in enumerate(lp.constraints):
        if con.relation not in _RELATIONS:
            raise ValidationError(f"constraint {pos}: unknown relation {con.relation!r}")
        for name in con.coeffs:
            if name not in declared:
                raise ValidationError(f"constraint {pos} references undeclared variable {name!r}")


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
        for j in row:
            row[j] *= piv
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
            enter = min((j for j, v in self.z.items() if v < 0 and j < nenter), default=-1)
            if enter < 0:
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
    _validate(lp)
    col = {var: j for j, var in enumerate(lp.variables)}  # column j holds variable j
    ncols = len(col)

    def int_row(coeffs: dict, rhs):
        """`coeffs` over the columns and `rhs` as integers over one lcm `den`
        of their denominators: (row, rhs, den)."""
        terms = [(col[var], c) for var, c in coeffs.items() if c]
        den = math.lcm(rhs.denominator, *(c.denominator for _, c in terms))
        row = {j: c.numerator * (den // c.denominator) for j, c in terms}
        return row, rhs.numerator * (den // rhs.denominator), den

    specs = []  # (row, rhs >= 0, den, relation)
    for con in lp.constraints:
        row, rhs, den = int_row(con.coeffs, con.rhs)
        rel = con.relation
        if rhs < 0:
            row, rhs, rel = {j: -v for j, v in row.items()}, -rhs, _FLIP[rel]
        specs.append((row, rhs, den, rel))

    # Slack/surplus columns for the <= and >= rows, then artificial columns
    # for the >= and == rows; a row's initial basis is its slack or artificial.
    slack = ncols
    first_art = art = ncols + sum(rel != EQ for *_, rel in specs)
    ncols = first_art + sum(rel != LE for *_, rel in specs)
    rows: list = []
    basis: list = []
    for row, rhs, den, rel in specs:
        if rel != EQ:
            row[slack] = den if rel == LE else -den
            slack += 1
        if rel == LE:
            basis.append(slack - 1)
        else:
            row[art] = den
            basis.append(art)
            art += 1
        if rhs:
            row[ncols] = rhs
        rows.append(row)  # already in lowest terms: one lcm of reduced denominators
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
            # phase-1 optimum.  Row i's Farkas multiplier is d of its slack or
            # d - 1 of its artificial, negated back if the row was flipped.
            f = Fraction(-tab.z[ncols]) / sum(Fraction(row.get(ncols, 0), row[b])
                                              for row, b in zip(tab.rows, tab.basis) if b >= first_art)
            ray = [tab.z.get(c, 0) / f - (c >= first_art) for c in own]
            ray = [-w if con.rhs < 0 else w for w, con in zip(ray, lp.constraints)]
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
    cost, _, _ = int_row(lp.objective, 0)
    if cost:
        tab.set_costs(cost)
        if tab.run(first_art) == UNBOUNDED:
            return LpSolution(UNBOUNDED, {}, None)

    col_values = {b: Fraction(row.get(ncols, 0), row[b]) for row, b in zip(tab.rows, tab.basis)}
    zero = Fraction(0)
    values = {var: col_values.get(j, zero) for var, j in col.items()}
    obj_val = sum((c * values[v] for v, c in lp.objective.items()), zero)
    return LpSolution(OPTIMAL, values, obj_val)


def farkas_violations(lp: LinearProgram, ray) -> list[str]:
    """Exactly check that `ray`, one multiplier w per constraint, proves `lp`
    infeasible; list what fails.

    Empty iff w >= 0 on every ``<=`` row, w <= 0 on every ``>=`` row,
    w.A >= 0 on every column and w.b < 0: then any x >= 0 meeting the rows
    would give 0 <= w.A x <= w.b < 0.
    """
    _validate(lp)
    if len(ray) != len(lp.constraints):
        return [f"ray has {len(ray)} multipliers for {len(lp.constraints)} constraints"]
    out = []
    wa = dict.fromkeys(lp.variables, 0)
    wb = 0
    for pos, (con, w) in enumerate(zip(lp.constraints, ray)):
        if (con.relation == LE and w < 0) or (con.relation == GE and w > 0):
            out.append(f"constraint {pos} ({con.relation}): multiplier {w} has the wrong sign")
        for var, c in con.coeffs.items():
            wa[var] += w * c
        wb += w * con.rhs
    out += [f"column {var!r}: w.A = {v} < 0" for var, v in wa.items() if v < 0]
    if wb >= 0:
        out.append(f"w.b = {wb} >= 0")
    return out


def check_point(lp: LinearProgram, values: dict) -> list[Violation]:
    """Exactly evaluate every constraint and bound at `values`; list violations.

    Empty result iff the point is feasible.  Raises if a variable is missing.
    """
    _validate(lp)
    for var in lp.variables:
        if var not in values:
            raise ValidationError(f"no value supplied for variable {var!r}")
    out: list[Violation] = []
    for pos, con in enumerate(lp.constraints):
        lhs = sum((c * Fraction(values[v]) for v, c in con.coeffs.items()), Fraction(0))
        rhs = Fraction(con.rhs)
        if con.relation == LE and lhs > rhs:
            out.append(Violation("constraint", pos, LE, lhs, rhs, rhs - lhs))
        elif con.relation == GE and lhs < rhs:
            out.append(Violation("constraint", pos, GE, lhs, rhs, lhs - rhs))
        elif con.relation == EQ and lhs != rhs:
            out.append(Violation("constraint", pos, EQ, lhs, rhs, rhs - lhs))
    for var in lp.variables:
        x = Fraction(values[var])
        if x < 0:
            out.append(Violation("bound", var, GE, x, Fraction(0), x))
    return out
