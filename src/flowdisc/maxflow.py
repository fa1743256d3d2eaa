"""Max-flow-time pipeline: assignment LP, exact minimal bound search, dyadic
half-integralization, and discrepancy-driven rounding.

The pipeline rounds a fractional assignment level by level: at level h every
assignment value is a multiple of 1/2^h; each job splits into machine pairs,
a prefix coloring decides each pair, and the merged result lives at level
h-1.  Every level's feasibility bound degrades by exactly twice the achieved
prefix discrepancy times the level's largest processing time, which the trace
records and the tests recheck with exact arithmetic.

The search and the run each take the instance's `core.integer_times` view
once, ints over its scale S: the search's breakpoints and LPs, and the run's
p_max, dyadic snap (to integer slot counts 2^h x_ij) and bounds read it.  At
level h every time and load is an int over S * 2^h: a `PairSplit` stores each
half-job's release, machines and loads, each machine's fixed loads and the
level's p_max as such ints, and both window checks, the rounding vectors and
the colorer add them.  A `Fraction` is built only for a T the search solves
at, a split's read-only views, a bound, a level's D, or a report line.  Every
level runs both exact checks: its input check before the coloring and its
leftover check after.  The T* check and the evaluator read the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from . import lp as lpmod
from .coloring import PREFIX, SignedVectorSequence, discrepancy
from .core import (
    CARRY,
    Job,
    MachineAssignment,
    SchedulingInstance,
    add_carry_rows,
    evaluate_max_flow,
    integer_times,
    p_max,
    rounding_level,
    snap_pairs,
    validate_instance,
    worst_window,
)
from .util import (
    InternalCheckError,
    ValidationError,
    common_scale,
    exact_fraction,
    int_from_json,
    list_from_json,
    rat_from_str,
    rat_to_str,
    scaled,
    scaled_list,
)


@dataclass
class FractionalAssignment:
    """Fractional job-to-machine matrix feasible for flow bound T."""

    x: list  # n rows of m Fractions
    T: Fraction

    def __post_init__(self):
        self.x = [[exact_fraction(v) for v in row] for row in self.x]
        self.T = exact_fraction(self.T)


@dataclass(frozen=True)
class LevelRecord:
    h: int
    discrepancy: Fraction
    p_max_level: Fraction


@dataclass
class RoundingTrace:
    t_star: Fraction
    quantize_level: int
    t_quantized: Fraction
    levels: list  # of LevelRecord
    final_value: Fraction
    final_additive_error: Fraction
    bound_value: Fraction


@dataclass
class MinTSearch:
    """Result of the minimal-feasible-bound search with its certificate."""

    t_star: Fraction
    assignment: FractionalAssignment
    ray: Optional[tuple]  # (T, w): a checked Farkas ray at bound T whose root is >= t_star


def build_assignment_lp(times: tuple, T) -> lpmod.LinearProgram:
    """Assignment LP at flow bound T.

    Row sums fix every job to total assignment 1; on every machine the volume
    released inside any [t1, t2] is capped by t2 - t1 + T.  Per machine, with
    L_b the volume released at its b-th usable release time t_b, carry rows
    (add_carry_rows, widths t_{b+1} - t_b) make L_b + C_{b-1} the worst window
    ending at t_b, and one row per release caps it by T: at most 2R - 1 rows
    per machine, not one per pair of release times.  The caps are the ``<=``
    rows with no negative coefficient (a carry row has its carry-out at -1).
    Column x_ij, labelled (j, i), exists only if p_ij <= T; the carries are
    labelled (CARRY, i, b), and they follow every x column.

    The build prunes, groups and sorts on the ints of ``times``, the instance's
    `integer_times` view.  A coefficient or width is an int when its scale is 1
    and a `Fraction` otherwise; a cap's right-hand side is an int when T is.
    """
    T = exact_fraction(T)
    scale, release, proc = times

    def number(v: int):
        """The time ``v / scale`` as an LP coefficient or width."""
        return v if scale == 1 else Fraction(v, scale)

    limit, tden = T.numerator * scale, T.denominator  # p / scale <= T iff p * tden <= limit
    lp = lpmod.LinearProgram()
    rows = lp.constraints
    loads: list[dict] = [{} for _ in proc[0]]  # machine -> {release: {column: p}}
    for j, (r, row) in enumerate(zip(release, proc)):
        job = {}  # the job's row: every usable column at 1
        for i, p in enumerate(row):
            if p is not None and p * tden <= limit:
                col = lp.add_variable((j, i))
                job[col] = 1
                loads[i].setdefault(r, {})[col] = number(p)
        rows.append(lpmod.Constraint(job, lpmod.EQ, 1))
    cap = T.numerator if tden == 1 else T
    for i, by_time in enumerate(loads):
        times = sorted(by_time)
        steps = [(by_time[t], number(u - t)) for t, u in zip(times, times[1:])]
        carries = add_carry_rows(lp, (i,), steps)
        for t, carry_in in zip(times, [{}] + [{c: 1} for c in carries]):
            rows.append(lpmod.Constraint({**by_time[t], **carry_in}, lpmod.LE, cap))
    return lp


def assignment_from_solution(inst: SchedulingInstance, T, lp: lpmod.LinearProgram,
                             sol: lpmod.LpSolution) -> FractionalAssignment:
    """The x columns of `lp`'s solution, labelled ``(j, i)``, as an n x m matrix."""
    x = [[_ZERO] * inst.m for _ in range(inst.n)]
    for col, v in sol.values.items():
        if lp.variables[col][0] != CARRY:
            j, i = lp.variables[col]
            x[j][i] = v
    return FractionalAssignment(x=x, T=T)


def fractional_assignment_violations(inst: SchedulingInstance, fa: FractionalAssignment) -> list[str]:
    """Exact feasibility check of a fractional assignment at its own bound.

    Machine i is overloaded iff some release times t1 <= t2 have a load
    sum(x_ij p_ij : t1 <= r_j <= t2) above t2 - t1 + T.  One worst_window scan
    per machine decides this in O(m (n + R log R)) for R distinct releases;
    each overloaded machine gets one line naming its worst window.  The scan
    runs on integers over one scale, L^2 for L the lcm of the denominators of
    x, the times and the processing times, so a load x * p is an int; a
    positive scale keeps every comparison, and a report line converts back.
    """
    problems = []
    unit = common_scale([*(v for row in fa.x for v in row), *(job.release for job in inst.jobs),
                         *(p for _, _, p in inst.finite_procs())])
    scale = unit * unit
    t_num, t_den = fa.T.numerator, fa.T.denominator
    pairs = [[] for _ in range(inst.m)]
    releases = scaled_list([job.release for job in inst.jobs], scale)
    for j, (job, r, row) in enumerate(zip(inst.jobs, releases, fa.x)):
        xs = scaled_list(row, unit)
        if sum(xs) != unit:
            problems.append(f"job {j}: row sum {Fraction(sum(xs), unit)} != 1")
        for i, (x, p) in enumerate(zip(xs, scaled_list(job.proc, unit))):
            if x < 0:
                problems.append(f"x[{j},{i}] = {row[i]} negative")
            if x > 0 and (p is None or p * t_den > t_num * unit):
                problems.append(f"x[{j},{i}] positive but processing time exceeds bound {fa.T}")
            if p is not None:
                pairs[i].append((r, x * p))
    return problems + _window_lines(pairs, scale, fa.T)


def _window_lines(pairs: list[list], scale: int, T: Fraction) -> list[str]:
    """One report line per machine whose worst window, over its ``(time, load)``
    ints at ``scale`` (`core.worst_window`), carries more than its width plus T."""
    lines = []
    for i, machine in enumerate(pairs):
        worst = worst_window(machine)
        if worst is not None and worst[0] * T.denominator > T.numerator * scale:
            excess, t1, t2 = (Fraction(v, scale) for v in worst)
            lines.append(f"machine {i} window [{t1},{t2}]: load {excess + t2 - t1} > {t2 - t1 + T}")
    return lines


def solve_min_T(inst: SchedulingInstance) -> MinTSearch:
    """Exact minimal feasible flow bound of the assignment LP, from feasibility solves alone.

    Feasibility is monotone in the bound, and the variable-pruning pattern
    only changes at the distinct processing-time values.  A binary search over
    those breakpoints brackets the answer.  Inside the bracket only the caps'
    right-hand side T moves, so a Farkas ray w at an infeasible T rules out
    every bound below its root T - w.b(T) / (w summed over the caps).  Newton
    steps (Dinkelbach; Radzik) move T to that root, or to the bracket's
    feasible end if the root reaches it, until T is feasible: that is t_star.
    Each ray passes `lp.farkas_violations` before its root is used, and the
    last one rules out every T < t_star.  There is no ray (None) when t_star is
    the first breakpoint, below which some job has no machine.  A root is
    found from int sums over the ray's lcm and made one `Fraction`, never by
    dividing ints.  The breakpoints and every LP read one `integer_times` view.
    """
    problems = validate_instance(inst)
    if problems:
        raise ValidationError("; ".join(problems))
    scale, _, procs = times = integer_times(inst)
    t_floor = max(min(p for p in row if p is not None) for row in procs)
    breakpoints = sorted({p for row in procs for p in row if p is not None and p >= t_floor})

    solved: dict = {}  # T -> (its LP, the LP's solution)

    def feasible(T: Fraction) -> bool:
        if T not in solved:
            lp = build_assignment_lp(times, T)
            solved[T] = lp, lpmod.solve_lp(lp)
        return solved[T][1].status == lpmod.OPTIMAL

    def bound(k: int) -> Fraction:
        return Fraction(breakpoints[k], scale)

    lo_idx, hi_idx = 0, len(breakpoints) - 1
    first_feasible: Optional[int] = None
    if feasible(bound(-1)):
        while lo_idx <= hi_idx:
            mid = (lo_idx + hi_idx) // 2
            if feasible(bound(mid)):
                first_feasible = mid
                hi_idx = mid - 1
            else:
                lo_idx = mid + 1

    ray = None
    if first_feasible == 0:
        t_star = bound(0)  # the bound can never go below the per-job minima
    else:
        cap = None if first_feasible is None else breakpoints[first_feasible]  # an int over scale
        t_star = bound(-1 if first_feasible is None else first_feasible - 1)
        while not feasible(t_star):
            lp, sol = solved[t_star]
            bad = lpmod.farkas_violations(lp, sol.ray)
            if bad:
                raise InternalCheckError(f"Farkas ray at bound {t_star}: " + "; ".join(bad))
            ray = t_star, sol.ray
            # ints over the lcm L of the ray's denominators: the multipliers
            # summed over the caps, and w.b over the other rows; every cap's
            # right-hand side is t_star = tn / td
            slope = rest = 0
            for wi, con in zip(scaled_list(sol.ray, common_scale(sol.ray)), lp.constraints):
                if wi:
                    if con.relation == lpmod.LE and min(con.coeffs.values()) >= 0:
                        slope += wi
                    else:
                        rest += wi * con.rhs
            tn, td = t_star.numerator, t_star.denominator
            deficit = -(slope * tn + rest * td)  # -w.b times L * td, > 0
            if cap is not None and deficit * scale >= (cap * td - tn * scale) * slope:  # the root reaches cap
                t_star = bound(first_feasible)
            elif slope:
                t_star = Fraction(tn * slope + deficit, td * slope)
            else:
                raise InternalCheckError("assignment LP infeasible at every bound")

    fa = assignment_from_solution(inst, t_star, *solved[t_star])
    return MinTSearch(t_star=t_star, assignment=fa, ray=ray)


def quantize_dyadic(fa: FractionalAssignment, level: int) -> list[list[int]]:
    """The slot counts 2^level x' of x', ``fa.x`` snapped onto the 1/2^level grid.

    Pairwise transfers (core.snap_pairs at no cost, so ties move the earlier
    entry down) run on each row's ints over L, the lcm of 2^level and every
    denominator of x, until every one is a multiple of L / 2^level.  Every
    entry stays inside its original grid cell, so no entry moves by 1/2^level
    or more and any machine-window load grows by less than p_max * n / 2^level.
    `quantized_bound` accounts for exactly that.
    """
    if level < 0:
        raise ValidationError("level must be nonnegative")
    scale = lcm(1 << level, common_scale(v for row in fa.x for v in row))
    unit = scale >> level
    return [[v // unit for v in snap_pairs(dict(enumerate(scaled_list(row, scale))), unit).values()]
            for row in fa.x]


def quantized_bound(fa: FractionalAssignment, pmax, level: int) -> Fraction:
    """fa.T + pmax * n / 2^level for the n rows of ``fa``, added on ints."""
    T, n = fa.T, len(fa.x)
    return Fraction((T.numerator * pmax.denominator << level) + pmax.numerator * n * T.denominator,
                    T.denominator * pmax.denominator << level)


@dataclass
class PairSplit:
    """A level's half-jobs, its integral pieces folded into fixed loads, and
    the map back to original jobs, stored as ints over ``scale`` = S * 2^level
    for S the scale of `core.integer_times`; a half-job's load on a machine is
    half a piece's processing time, its load at 1/2.  `instance`, `assignment`,
    `fixed_load` and `p_max_level` are read-only `Fraction` views, built anew
    on each read."""

    m: int
    T: Fraction
    scale: int
    releases: list[int]               # half-job -> its release
    pairs: list[tuple[int, int]]      # half-job -> (machine, machine), distinct and ascending
    loads: list[tuple[int, int]]      # half-job -> its load on each machine of its pair
    fixed: list[dict]                 # machine -> {release: load of its integral pieces}
    top: int                          # largest processing time over all pieces
    origin: list[int]                 # half-job -> original job
    integral_counts: list[list[int]]  # [job][machine] -> integral pieces

    @property
    def instance(self) -> SchedulingInstance:
        """The half-jobs only, each finite on its two machines."""
        jobs = []
        for r, pair, load in zip(self.releases, self.pairs, self.loads):
            proc = [None] * self.m
            for i, v in zip(pair, load):
                proc[i] = Fraction(2 * v, self.scale)
            jobs.append(Job(release=Fraction(r, self.scale), proc=tuple(proc)))
        return SchedulingInstance(m=self.m, jobs=tuple(jobs))

    @property
    def assignment(self) -> FractionalAssignment:
        """1/2 on each machine of every half-job, at bound T."""
        return FractionalAssignment(x=[[_HALF if i in pair else _ZERO for i in range(self.m)]
                                       for pair in self.pairs], T=self.T)

    @property
    def fixed_load(self) -> list[dict]:
        return [{Fraction(r, self.scale): Fraction(v, self.scale) for r, v in f.items()}
                for f in self.fixed]

    @property
    def p_max_level(self) -> Fraction:
        return Fraction(self.top, self.scale)

    def rounding_sequence(self, pmax) -> tuple[list[int], SignedVectorSequence]:
        """The half-jobs in release order (ties by index), and their vectors:
        p/(2 pmax) on the lower machine and -p/(2 pmax) on the other, as ints
        over one scale (a load is p/2, so p/(2 pmax) is load * den / (scale * num))."""
        order = sorted(range(len(self.pairs)), key=lambda k: (self.releases[k], k))
        den = pmax.denominator
        vectors = []
        for k in order:
            (i1, i2), (l1, l2) = self.pairs[k], self.loads[k]
            v = [0] * self.m
            v[i1], v[i2] = l1 * den, -l2 * den
            vectors.append(v)
        # p_max = 0 leaves only zero entries, whatever the scale
        return order, SignedVectorSequence(m=self.m, vectors=vectors, scale=self.scale * pmax.numerator or 1)

    def merge_assignment(self, asg: MachineAssignment) -> list[list[int]]:
        """Fold an integral half-job assignment back to level h-1 slot counts:
        each job's row of ints sums to 2^(h-1)."""
        counts = [row[:] for row in self.integral_counts]
        for jp, machine in enumerate(asg.assign):
            counts[self.origin[jp]][machine] += 1
        return counts


_ZERO, _HALF = Fraction(0), Fraction(1, 2)


def split_to_pair_instance(times: tuple, counts: list, level: int, T) -> PairSplit:
    """Split every job into 2^(level-1) two-machine pieces at level `level`.

    Machine slots (machine i repeated ``counts[j][i]`` = 2^level x_ij times, a
    row of nonnegative ints summing to 2^level, zero on a forbidden machine)
    are sorted and paired first-with-last; each piece carries the original
    processing times scaled down by 2^(level-1).  A piece whose two slots name
    different machines becomes a half-job, infinite elsewhere; the rest all sit
    on the one machine whose slots span the middle, so they are integral and
    only their count and their load at the job's release are kept.  Half on
    each member plus the fixed loads gives every window the load of x, so the
    split is feasible at the same bound T.  ``times`` is the instance's
    `integer_times` view, taken once per run: over the split's scale
    S * 2^level (S the view's scale), a half-job's load p / 2^level is the
    int p * S, and a release r is r * S * 2^level.
    """
    if level < 1:
        raise ValidationError("level must be >= 1")
    scale, releases, procs = times
    n, m = len(procs), len(procs[0]) if procs else 0
    if len(counts) != n or any(len(row) != m for row in counts):
        raise ValidationError(f"counts must be {n} rows of {m}")
    slot_count = 2 ** level
    half = slot_count // 2
    split = PairSplit(m=m, T=exact_fraction(T), scale=scale * slot_count, releases=[], pairs=[],
                      loads=[], fixed=[{} for _ in range(m)], top=0, origin=[],
                      integral_counts=[[0] * m for _ in range(n)])
    for j, (r, ps, row) in enumerate(zip(releases, procs, counts)):
        for i, (cnt, p) in enumerate(zip(row, ps)):
            if type(cnt) is not int or cnt < 0:
                raise ValidationError(f"count[{j}][{i}] = {cnt!r} is not a nonnegative int")
            if cnt and p is None:
                raise ValidationError(f"count[{j}][{i}] = {cnt} on a forbidden machine")
            if cnt and 2 * p > split.top:
                split.top = 2 * p
        if sum(row) != slot_count:
            raise ValidationError(f"job {j}: counts sum to {sum(row)}, not 2^{level}")
        r *= slot_count
        slots = [i for i, cnt in enumerate(row) for _ in range(cnt)]
        q = 0
        while q < half and slots[q] != slots[slot_count - 1 - q]:
            i1, i2 = slots[q], slots[slot_count - 1 - q]
            split.releases.append(r)
            split.pairs.append((i1, i2))
            split.loads.append((ps[i1], ps[i2]))
            split.origin.append(j)
            q += 1
        if q < half:
            i = slots[q]
            split.integral_counts[j][i] = half - q
            split.fixed[i][r] = split.fixed[i].get(r, 0) + 2 * (half - q) * ps[i]
    return split


def rounding_vectors(inst: SchedulingInstance, fa: FractionalAssignment, pmax=None):
    """The release-ordered half-split jobs and their balancing vectors.

    Vector entries are +p/(2 p_max) on the lower machine index and the
    negated counterpart on the higher; l1 norms never exceed 1 as long as
    ``pmax`` (default p_max(inst)) is at least every processing time in inst.
    The vectors are those of the level-1 split of ``fa``'s slot counts 2x.
    Returns (ordered (job, i1, i2) triples, vectors).
    """
    if any(2 % common_scale(row) for row in fa.x):
        raise ValidationError("assignment is not half-integral")
    split = split_to_pair_instance(integer_times(inst), [scaled_list(row, 2) for row in fa.x], 1, fa.T)
    order, seq = split.rounding_sequence(p_max(inst) if pmax is None else pmax)
    return [(split.origin[k], *split.pairs[k]) for k in order], seq.vectors


def round_half_integral_maxflow(
    split: PairSplit,
    colorer: Callable[[SignedVectorSequence], list[int]],
) -> tuple[MachineAssignment, Fraction]:
    """Round a level's half-jobs by prefix coloring; returns (their assignment, D).

    Each half-job contributes a two-entry vector with +p/(2 p_max) on its
    lower machine index and -p/(2 p_max) on the other, ordered by release
    (ties by index), for p_max the split's `p_max_level`.  A +1 sign sends it
    to the positive machine.  With the fixed loads, the result satisfies every
    machine window at T + 2 * D * p_max where D is the achieved prefix
    discrepancy of the coloring.  Both checks run on the split's ints: the
    input's (the lines of `fractional_assignment_violations`, the fixed loads
    joining each window) before the coloring, the leftover's after.  A plain
    half-integral assignment x is rounded as its level-1 split of 2x.
    """
    scale, T = split.scale, split.T
    bad = [f"x[{k},{i}] positive but processing time exceeds bound {T}"
           for k, (pair, load) in enumerate(zip(split.pairs, split.loads))
           for i, v in zip(pair, load) if 2 * v * T.denominator > T.numerator * scale]
    windows = [list(f.items()) for f in split.fixed]
    for r, pair, load in zip(split.releases, split.pairs, split.loads):
        for i, v in zip(pair, load):
            windows[i].append((r, v))
    bad += _window_lines(windows, scale, T)
    if bad:
        raise ValidationError("input assignment infeasible: " + "; ".join(bad))
    pmax = split.p_max_level
    order, seq = split.rounding_sequence(pmax)
    if order:
        signs = colorer(seq)
        achieved = discrepancy(seq.with_signs(signs), PREFIX).value
    else:
        signs, achieved = [], _ZERO
    assign = [0] * len(order)
    windows = [list(f.items()) for f in split.fixed]
    for k, sign in zip(order, signs):
        side = 0 if sign == 1 else 1
        assign[k] = i = split.pairs[k][side]
        windows[i].append((split.releases[k], 2 * split.loads[k][side]))
    leftover = _window_lines(windows, scale, T + 2 * achieved * pmax)
    if leftover:
        raise InternalCheckError("rounded assignment violates its discrepancy bound: " + "; ".join(leftover))
    return MachineAssignment(assign=tuple(assign)), achieved


def full_round_maxflow(
    inst: SchedulingInstance,
    colorer: Callable[[SignedVectorSequence], list[int]],
) -> tuple[MachineAssignment, RoundingTrace]:
    """Complete pipeline: solve, quantize, round level by level, evaluate.

    The emitted trace satisfies, exactly:
    final value <= T* + p_max + sum over levels of 2 * D_h * p_max / 2^(h-1).
    """
    search = solve_min_T(inst)
    t_star = search.t_star
    bad = fractional_assignment_violations(inst, search.assignment)
    if bad:
        raise InternalCheckError(f"LP assignment at T* = {t_star} infeasible: " + "; ".join(bad))
    level = rounding_level(inst.n)
    times = integer_times(inst)
    pmax = Fraction(max(p for row in times[2] for p in row if p is not None), times[0])
    counts = quantize_dyadic(search.assignment, level)
    running_T = t_quant = quantized_bound(search.assignment, pmax, level)
    records: list[LevelRecord] = []
    for h in range(level, 0, -1):
        split = split_to_pair_instance(times, counts, h, running_T)
        asg_split, achieved = round_half_integral_maxflow(split, colorer)
        pml = split.p_max_level
        records.append(LevelRecord(h=h, discrepancy=achieved, p_max_level=pml))
        running_T = running_T + 2 * achieved * pml
        counts = split.merge_assignment(asg_split)
    assign = []
    for j, row in enumerate(counts):
        winners = [i for i, cnt in enumerate(row) if cnt == 1]
        if len(winners) != 1:
            raise InternalCheckError(f"job {j} not integral after the final level")
        assign.append(winners[0])
    result = MachineAssignment(assign=tuple(assign))
    metrics = evaluate_max_flow(inst, result)
    bound = telescoped_bound(t_star, pmax, [(rec.h, rec.discrepancy) for rec in records])
    if metrics.max_flow > bound:
        raise InternalCheckError(
            f"final value {metrics.max_flow} exceeds the telescoped bound {bound}"
        )
    trace = RoundingTrace(
        t_star=t_star,
        quantize_level=level,
        t_quantized=t_quant,
        levels=records,
        final_value=metrics.max_flow,
        final_additive_error=metrics.max_flow - t_star,
        bound_value=bound,
    )
    return result, trace


def telescoped_bound(t_star, pmax, levels) -> Fraction:
    """T* + p_max + sum of 2 D_h p_max / 2^(h-1) over the ``(h, D_h)`` levels, h >= 1,
    added on ints over u, the lcm of the D_h's denominators times 2^(largest h)."""
    unit = common_scale(d for _, d in levels) << max((h for h, _ in levels), default=0)
    total = unit + sum((scaled(d, unit) << 2) >> h for h, d in levels)  # u (1 + sum 2 D_h / 2^(h-1))
    return Fraction(t_star.numerator * pmax.denominator * unit + pmax.numerator * total * t_star.denominator,
                    t_star.denominator * pmax.denominator * unit)


def result_to_json(trace: RoundingTrace, assignment: MachineAssignment) -> dict:
    return {
        "T_star": rat_to_str(trace.t_star),
        "assignment": list(assignment.assign),
        "levels": [{"h": rec.h, "D": rat_to_str(rec.discrepancy)} for rec in trace.levels],
        "max_flow": rat_to_str(trace.final_value),
    }


def check_result(inst: SchedulingInstance, data: dict) -> list[str]:
    """Re-validate a result file against its instance (round-trip checker)."""
    problems = []
    try:
        asg = MachineAssignment(assign=tuple(
            int_from_json(i) for i in list_from_json(data["assignment"], "assignment")))
        t_star = rat_from_str(data["T_star"])
        max_flow = rat_from_str(data["max_flow"])
        levels = [(int_from_json(rec["h"]), rat_from_str(rec["D"]))
                  for rec in list_from_json(data["levels"], "levels")]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result file: {exc}"]
    hs = [h for h, _ in levels]
    expected = list(range(rounding_level(inst.n), 0, -1))
    if hs != expected:
        return [f"malformed result file: levels h = {hs}, expected {expected}"]
    for h, d in levels:
        if d < 0:
            return [f"malformed result file: level {h}: negative D {d}"]
    metrics = evaluate_max_flow(inst, asg)
    if metrics.max_flow != max_flow:
        problems.append(f"recorded max_flow {max_flow} != evaluated {metrics.max_flow}")
    bound = telescoped_bound(t_star, p_max(inst), levels)
    if metrics.max_flow > bound:
        problems.append(f"max_flow {metrics.max_flow} violates bound {bound}")
    return problems
