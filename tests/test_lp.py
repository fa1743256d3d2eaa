import math
import random
from fractions import Fraction as F
from functools import reduce

import pytest

from flowdisc import lp
from flowdisc.util import ValidationError


def test_textbook_min():
    p = lp.LinearProgram(variables=["x"], objective={"x": F(-1)})
    p.add_constraint({"x": 1}, lp.LE, 3)
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    assert sol.values["x"] == 3 and sol.objective_value == -3


def test_infeasible_pair():
    p = lp.LinearProgram(variables=["x"])
    p.add_constraint({"x": 1}, lp.LE, 1)
    p.add_constraint({"x": 1}, lp.GE, 2)
    sol = lp.solve_lp(p)
    assert sol.status == lp.INFEASIBLE
    # (1, -1): x - x >= 0 on the column, 1 - 2 < 0 on the right-hand side
    assert sol.ray == [1, -1] and lp.farkas_violations(p, sol.ray) == []


def test_default_bound_floor():
    p = lp.LinearProgram(variables=["x"], objective={"x": F(1)})
    sol = lp.solve_lp(p)
    assert sol.values["x"] == 0 and sol.objective_value == 0


def test_unbounded():
    p = lp.LinearProgram(variables=["x"], objective={"x": F(-1)})
    assert lp.solve_lp(p).status == lp.UNBOUNDED


def test_undeclared_variable_rejected():
    p = lp.LinearProgram(variables=["x"])
    p.constraints.append(lp.Constraint({"y": F(1)}, lp.LE, F(1)))
    with pytest.raises(ValidationError):
        lp.solve_lp(p)


def test_exactness_resolve_check():
    rng = random.Random(2)
    for trial in range(15):
        nvars = rng.randint(1, 4)
        names = [f"v{i}" for i in range(nvars)]
        p = lp.LinearProgram(variables=list(names),
                             objective={v: F(rng.randint(1, 5)) for v in names})
        for _ in range(rng.randint(1, 5)):
            coeffs = {v: F(rng.randint(0, 4)) for v in names}
            if all(c == 0 for c in coeffs.values()):
                continue
            p.add_constraint(coeffs, lp.GE, F(rng.randint(0, 6)))
        sol = lp.solve_lp(p)
        assert sol.status == lp.OPTIMAL
        assert lp.check_point(p, sol.values) == []


def test_determinism():
    p = lp.LinearProgram(variables=["a", "b", "c"], objective={"a": F(1), "b": F(2), "c": F(1)})
    p.add_constraint({"a": 1, "b": 1, "c": 1}, lp.EQ, F(5, 2))
    p.add_constraint({"a": 2, "c": 1}, lp.GE, 2)
    s1 = lp.solve_lp(p)
    s2 = lp.solve_lp(p)
    assert s1 == s2


def _dual_of(c, A, b):
    """Dual of min c.x s.t. A x >= b, x >= 0 as another min LP (negated max)."""
    m, n = len(A), len(c)
    names = [f"y{i}" for i in range(m)]
    dual = lp.LinearProgram(variables=list(names),
                            objective={names[i]: -b[i] for i in range(m)})
    for j in range(n):
        dual.add_constraint({names[i]: A[i][j] for i in range(m)}, lp.LE, c[j])
    return dual


def test_strong_duality_spot_check():
    rng = random.Random(7)
    for trial in range(10):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        c = [F(rng.randint(1, 6)) for _ in range(n)]
        A = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(0, 5)) for _ in range(m)]
        if any(all(A[i][j] == 0 for j in range(n)) and b[i] > 0 for i in range(m)):
            continue  # trivially infeasible row
        primal = lp.LinearProgram(variables=[f"x{j}" for j in range(n)],
                                  objective={f"x{j}": c[j] for j in range(n)})
        for i in range(m):
            primal.add_constraint({f"x{j}": A[i][j] for j in range(n)}, lp.GE, b[i])
        psol = lp.solve_lp(primal)
        dsol = lp.solve_lp(_dual_of(c, A, b))
        assert psol.status == lp.OPTIMAL and dsol.status == lp.OPTIMAL
        assert psol.objective_value == -dsol.objective_value


@pytest.mark.parametrize("rows,ray,report", [
    # x <= 1, x == 3, -x <= 0: the last multiplier must be >= 0
    ([({"x": 1}, lp.LE, 1), ({"x": 1}, lp.EQ, 3), ({"x": -1}, lp.LE, 0)], [0, -1, -1],
     ["constraint 2 (<=): multiplier -1 has the wrong sign"]),
    # -x >= 0, x == -1: the first multiplier must be <= 0
    ([({"x": -1}, lp.GE, 0), ({"x": 1}, lp.EQ, -1)], [1, 1],
     ["constraint 0 (>=): multiplier 1 has the wrong sign"]),
    # x + y <= 1, x + 2y == 3: (1, -1) gives y the column sum -1
    ([({"x": 1, "y": 1}, lp.LE, 1), ({"x": 1, "y": 2}, lp.EQ, 3)], [1, -1],
     ["column 'y': w.A = -1 < 0"]),
    # x <= 1, x == 1 is feasible: (1, -1) gives w.b = 0
    ([({"x": 1}, lp.LE, 1), ({"x": 1}, lp.EQ, 1)], [1, -1], ["w.b = 0 >= 0"]),
    ([({"x": 1}, lp.LE, 1)], [1, -1], ["ray has 2 multipliers for 1 constraints"]),
], ids=["le-negative", "ge-positive", "column", "rhs", "length"])
def test_farkas_violations_reports_each_failure(rows, ray, report):
    p = lp.LinearProgram(variables=["x", "y"])
    for coeffs, rel, rhs in rows:
        p.add_constraint(coeffs, rel, rhs)
    assert lp.farkas_violations(p, ray) == report


def test_check_point_slack_example():
    p = lp.LinearProgram(variables=["x"])
    p.add_constraint({"x": 1}, lp.LE, 3)
    v = lp.check_point(p, {"x": F(5)})
    assert len(v) == 1 and v[0].slack == -2


def test_check_point_equality_met():
    p = lp.LinearProgram(variables=["x"])
    p.add_constraint({"x": 2}, lp.EQ, 3)
    assert lp.check_point(p, {"x": F(3, 2)}) == []


def test_check_point_missing_value():
    p = lp.LinearProgram(variables=["x", "y"])
    with pytest.raises(ValidationError):
        lp.check_point(p, {"x": F(0)})


def test_check_point_negative_value_is_one_bound_violation():
    # every variable is >= 0, and that is the only bound
    p = lp.LinearProgram(variables=["x", "y"])
    p.add_constraint({"x": 1, "y": 1}, lp.LE, 3)
    v = lp.check_point(p, {"x": F(-5, 2), "y": F(1)})
    assert v == [lp.Violation("bound", "x", lp.GE, F(-5, 2), F(0), F(-5, 2))]


# -- the dense tableau, kept as the reference for the sparse solver ----------


def _dense_gcd_reduce(ints, den):
    g = den
    for v in ints:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return ints, den
    if g > 1:
        ints = [v // g for v in ints]
        den //= g
    return ints, den


class _DenseTableau:
    """Dense simplex tableau with integer rows and per-row denominators."""

    def __init__(self, rows, dens, basis, ncols):
        self.rows, self.dens, self.basis, self.ncols = rows, dens, basis, ncols
        self.zrow, self.zden = [], 1

    def set_objective(self, reduced, z_const):
        denom = reduce(math.lcm, [f.denominator for f in reduced] + [z_const.denominator], 1)
        self.zrow = [int(f * denom) for f in reduced] + [int(-z_const * denom)]
        self.zden = denom

    def pivot(self, r, s):
        prow = self.rows[r]
        piv = prow[s]
        assert piv > 0
        for q in range(len(self.rows)):
            if q == r:
                continue
            row = self.rows[q]
            a = row[s]
            if a == 0:
                continue
            new = [row[j] * piv - a * prow[j] for j in range(self.ncols + 1)]
            self.rows[q], self.dens[q] = _dense_gcd_reduce(new, self.dens[q] * piv)
        a = self.zrow[s]
        if a != 0:
            new = [self.zrow[j] * piv - a * prow[j] for j in range(self.ncols + 1)]
            self.zrow, self.zden = _dense_gcd_reduce(new, self.zden * piv)
        self.rows[r], self.dens[r] = _dense_gcd_reduce(list(prow), piv)
        self.basis[r] = s

    def run(self, allowed):
        while True:
            enter = -1
            for j in range(self.ncols):
                if allowed[j] and self.zrow[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return lp.OPTIMAL
            leave = -1
            best_num = best_den = 0
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a <= 0:
                    continue
                rhs = row[self.ncols]
                if leave < 0:
                    leave, best_num, best_den = i, rhs, a
                    continue
                cmp = rhs * best_den - best_num * a
                if cmp < 0 or (cmp == 0 and self.basis[i] < self.basis[leave]):
                    leave, best_num, best_den = i, rhs, a
            if leave < 0:
                return lp.UNBOUNDED
            self.pivot(leave, enter)


def _dense_solve_lp(p):
    """Reference two-phase Bland simplex over a dense Fraction-built tableau."""
    lp._validate(p)
    col_of = {var: c for c, var in enumerate(p.variables)}

    def to_columns(coeffs):
        return {col_of[var]: F(c) for var, c in coeffs.items() if c}

    row_kinds = []
    for con in p.constraints:
        cols, rel, rhs = to_columns(con.coeffs), con.relation, F(con.rhs)
        if rhs < 0:
            flip = {lp.LE: lp.GE, lp.GE: lp.LE, lp.EQ: lp.EQ}[rel]
            cols, rel, rhs = {c: -v for c, v in cols.items()}, flip, -rhs
        row_kinds.append((cols, rel, rhs))
    ncols = len(col_of)
    slack_of, art_of = [], []
    for _, rel, _ in row_kinds:
        slack_of.append(None if rel == lp.EQ else ncols)
        ncols += rel != lp.EQ
    for _, rel, _ in row_kinds:
        art_of.append(None if rel == lp.LE else ncols)
        ncols += rel != lp.LE
    art_cols = {c for c in art_of if c is not None}
    rows, dens, basis = [], [], []
    for idx, (cols, rel, rhs) in enumerate(row_kinds):
        den = reduce(math.lcm, [v.denominator for v in cols.values()] + [rhs.denominator], 1)
        ints = [0] * (ncols + 1)
        for c, v in cols.items():
            ints[c] = int(v * den)
        ints[ncols] = int(rhs * den)
        if rel == lp.LE:
            ints[slack_of[idx]] = den
            basis.append(slack_of[idx])
        else:
            if rel == lp.GE:
                ints[slack_of[idx]] = -den
            ints[art_of[idx]] = den
            basis.append(art_of[idx])
        ints, den = _dense_gcd_reduce(ints, den)
        rows.append(ints)
        dens.append(den)
    tab = _DenseTableau(rows, dens, basis, ncols)

    def set_costs(cost):
        reduced, z0 = list(cost), F(0)
        for i, b in enumerate(tab.basis):
            if cost[b]:
                for j in range(ncols):
                    if tab.rows[i][j]:
                        reduced[j] -= cost[b] * F(tab.rows[i][j], tab.dens[i])
                z0 += cost[b] * F(tab.rows[i][ncols], tab.dens[i])
        tab.set_objective(reduced, z0)

    if art_cols:
        set_costs([F(j in art_cols) for j in range(ncols)])
        assert tab.run([True] * ncols) == lp.OPTIMAL
        if tab.zrow[ncols] != 0:
            return lp.LpSolution(lp.INFEASIBLE, {}, None)
        drop = []
        for i in range(len(tab.rows)):
            if tab.basis[i] in art_cols:
                piv_col = -1
                for j in range(ncols):
                    if j not in art_cols and tab.rows[i][j] != 0:
                        if tab.rows[i][j] < 0:
                            tab.rows[i] = [-v for v in tab.rows[i]]
                        piv_col = j
                        break
                if piv_col >= 0:
                    tab.pivot(i, piv_col)
                else:
                    drop.append(i)
        for i in reversed(drop):
            del tab.rows[i], tab.dens[i], tab.basis[i]
    obj_cols = to_columns(p.objective)
    if obj_cols:
        set_costs([obj_cols.get(j, F(0)) for j in range(ncols)])
        if tab.run([j not in art_cols for j in range(ncols)]) == lp.UNBOUNDED:
            return lp.LpSolution(lp.UNBOUNDED, {}, None)
    col_values = {b: F(tab.rows[i][ncols], tab.dens[i]) for i, b in enumerate(tab.basis)}
    values = {var: col_values.get(c, F(0)) for var, c in col_of.items()}
    obj_val = sum((F(c) * values[v] for v, c in p.objective.items()), F(0))
    return lp.LpSolution(lp.OPTIMAL, values, obj_val)


def _random_lp(rng):
    """A small LP mixing every relation, sign and degenerate row."""
    names = [f"v{i}" for i in range(rng.randint(1, 4))]
    objective = {}
    if rng.random() < 0.8:  # else identically zero
        objective = {v: F(rng.randint(-3, 3), rng.choice([1, 2])) for v in names}
    p = lp.LinearProgram(variables=list(names), objective=objective)
    for _ in range(rng.randint(0, 4)):
        coeffs = {v: F(rng.randint(-3, 3), rng.choice([1, 1, 2, 5])) for v in names
                  if rng.random() < 0.7}
        rhs = F(rng.choice([0, 0, rng.randint(-6, 6)]), rng.choice([1, 3]))
        p.add_constraint(coeffs, rng.choice([lp.LE, lp.GE, lp.EQ]), rhs)
    for _ in range(rng.choice([0, 0, 1, 2])):  # redundant equality rows
        eqs = [c for c in p.constraints if c.relation == lp.EQ]
        if not eqs:
            break
        a, b = rng.choice(eqs), rng.choice(eqs)
        k = F(rng.choice([-2, -1, 1, 3]))
        coeffs = {v: k * a.coeffs.get(v, 0) + b.coeffs.get(v, 0)
                  for v in set(a.coeffs) | set(b.coeffs)}
        p.add_constraint(coeffs, lp.EQ, k * a.rhs + b.rhs)
    return p


def _degenerate_lp(rng):
    """A small integer LP with ratio-test ties and alternative optima, where
    the leaving-row tie rule decides which optimal vertex is returned."""
    names = [f"v{i}" for i in range(rng.randint(3, 5))]
    p = lp.LinearProgram(variables=list(names),
                         objective={v: F(rng.choice([0, -1, 1])) for v in names})
    for _ in range(rng.randint(4, 7)):
        p.add_constraint({v: rng.choice([-1, 0, 1, 1, 2]) for v in names},
                         rng.choice([lp.LE, lp.LE, lp.GE]), rng.choice([0, 1, 2]))
    return p


def test_sparse_solver_matches_dense_reference():
    rng = random.Random(20221)
    statuses = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
    for k in range(2500):
        p = _random_lp(rng) if k % 2 else _degenerate_lp(rng)
        sol, ref = lp.solve_lp(p), _dense_solve_lp(p)
        assert (sol.status, sol.values, sol.objective_value) == \
            (ref.status, ref.values, ref.objective_value)
        statuses[sol.status] += 1
        if sol.status == lp.OPTIMAL:
            assert lp.check_point(p, sol.values) == []
        elif sol.status == lp.INFEASIBLE:
            assert lp.farkas_violations(p, sol.ray) == []
    assert min(statuses.values()) >= 200, statuses


def test_drive_out_negates_the_row():
    # Phase 1 ends at once on -x - y == 0 with its artificial basic at level
    # 0: the row holds x with coefficient -1, so it is negated and x pivots in.
    p = lp.LinearProgram(variables=["x", "y", "z"], objective={"y": F(-1), "z": F(1)})
    p.add_constraint({"x": -1, "y": -1}, lp.EQ, 0)
    p.add_constraint({"x": 1, "z": 1}, lp.GE, 1)
    sol = lp.solve_lp(p)
    assert sol == _dense_solve_lp(p)
    assert sol.values == {"x": 0, "y": 0, "z": 1} and sol.objective_value == 1


def test_redundant_equality_row_is_dropped():
    # The second row repeats the first: phase 1 leaves its artificial basic
    # with no structural entry, so the row is dropped before phase 2.
    p = lp.LinearProgram(variables=["x", "y"], objective={"x": F(1), "y": F(2)})
    p.add_constraint({"x": 1, "y": 1}, lp.EQ, 3)
    p.add_constraint({"x": 2, "y": 2}, lp.EQ, 6)
    sol = lp.solve_lp(p)
    assert sol == _dense_solve_lp(p)
    assert sol.values == {"x": 3, "y": 0} and sol.objective_value == 3
