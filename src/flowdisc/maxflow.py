"""Max-flow-time pipeline: assignment LP, exact minimal bound search, dyadic
half-integralization, and discrepancy-driven rounding.

The pipeline rounds a fractional assignment level by level: at level h every
assignment value is a multiple of 1/2^h; each job splits into machine pairs,
a prefix coloring decides each pair, and the merged result lives at level
h-1.  Every level's feasibility bound degrades by exactly twice the achieved
prefix discrepancy times the level's largest processing time, which the trace
records and the tests recheck with exact arithmetic.

At level h every load is an integer over one scale (D * 2^h for D the lcm of
the processing-time denominators in the split), so the split, the window
checker, the rounding vectors and the colorer add ints; a `Fraction` is built
only for a public field or a report line.  Every level runs both exact
checks: its input check before the coloring and its leftover check after.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from . import lp as lpmod
from .coloring import PREFIX, SignedVectorSequence, discrepancy
from .core import (
    Job,
    MachineAssignment,
    SchedulingInstance,
    add_carry_rows,
    p_max,
    rounding_level,
    snap_pairs,
    validate_instance,
    worst_window,
)
from .util import InternalCheckError, ValidationError, int_from_json, list_from_json, rat_from_str, rat_to_str


@dataclass
class FractionalAssignment:
    """Fractional job-to-machine matrix feasible for flow bound T."""

    x: list  # n rows of m Fractions
    T: Fraction

    def __post_init__(self):
        self.x = [[_fraction(v) for v in row] for row in self.x]
        self.T = _fraction(self.T)


def _fraction(v) -> Fraction:
    """`v` itself if it is a `Fraction`, else `Fraction(v)`."""
    return v if type(v) is Fraction else Fraction(v)


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


def var_name(j: int, i: int) -> str:
    return f"x[{j},{i}]"


def build_assignment_lp(inst: SchedulingInstance, T) -> lpmod.LinearProgram:
    """Assignment LP at flow bound T.

    Row sums fix every job to total assignment 1; on every machine the volume
    released inside any [t1, t2] is capped by t2 - t1 + T.  Per machine, with
    L_b the volume released at its b-th usable release time t_b, carry rows
    (add_carry_rows, widths t_{b+1} - t_b) make L_b + C_{b-1} the worst window
    ending at t_b, and one row per release caps it by T: at most 2R - 1 rows
    per machine, not one per pair of release times.  Variables with processing
    time above the bound are pruned entirely (after pruning the largest usable
    processing time is at most the bound by construction).  The caps are the
    ``<=`` rows with no negative coefficient (a carry row has its carry-out at -1).
    """
    T = Fraction(T)
    lp = lpmod.LinearProgram()
    allowed: list[list[bool]] = []
    for j, job in enumerate(inst.jobs):
        row = []
        for i, p in enumerate(job.proc):
            ok = p is not None and p <= T
            row.append(ok)
            if ok:
                lp.variables.append(var_name(j, i))
        allowed.append(row)
    for j in range(inst.n):
        coeffs = {var_name(j, i): Fraction(1) for i in range(inst.m) if allowed[j][i]}
        lp.add_constraint(coeffs, lpmod.EQ, 1)
    for i in range(inst.m):
        loads: dict = {}
        for j, job in enumerate(inst.jobs):
            if allowed[j][i]:
                loads.setdefault(job.release, {})[var_name(j, i)] = job.proc[i]
        times = sorted(loads)
        carries = add_carry_rows(lp, f"C[{i}]", [(loads[t], u - t) for t, u in zip(times, times[1:])])
        for t, carry_in in zip(times, [{}] + [{c: 1} for c in carries]):
            lp.add_constraint({**loads[t], **carry_in}, lpmod.LE, T)
    return lp


def assignment_from_solution(inst: SchedulingInstance, T, sol: lpmod.LpSolution) -> FractionalAssignment:
    x = [[Fraction(0)] * inst.m for _ in range(inst.n)]
    for j in range(inst.n):
        for i in range(inst.m):
            name = var_name(j, i)
            if name in sol.values:
                x[j][i] = sol.values[name]
    return FractionalAssignment(x=x, T=Fraction(T))


def fractional_assignment_violations(inst: SchedulingInstance, fa: FractionalAssignment,
                                     fixed_load=None) -> list[str]:
    """Exact feasibility check of a fractional assignment at its own bound.

    Machine i is overloaded iff some release times t1 <= t2 have a load
    sum(x_ij p_ij : t1 <= r_j <= t2) above t2 - t1 + T.  ``fixed_load[i]``, if
    given, maps release times to load already placed on machine i (a split's
    integral pieces) and joins that sum.  One worst_window scan per machine
    decides this in O(m (n + R log R)) for R distinct releases; each
    overloaded machine gets one line naming its worst window.  The scan runs
    on integers over one scale, lx * lt for lx the lcm of the x denominators
    and lt that of the times, processing times and fixed loads; a positive
    scale keeps every comparison, and a report line converts back.
    """
    problems = []
    fixed = fixed_load if fixed_load is not None else [{}] * inst.m
    lx = lcm(*(v.denominator for row in fa.x for v in row))
    lt = lcm(*(job.release.denominator for job in inst.jobs),
             *(p.denominator for _, _, p in inst.finite_procs()),
             *(v.denominator for loads in fixed for item in loads.items() for v in item))
    scale = lx * lt
    t_num, t_den = fa.T.numerator, fa.T.denominator
    pairs = [[(_scaled(t, scale), _scaled(load, scale)) for t, load in f.items()] for f in fixed]
    for j, job in enumerate(inst.jobs):
        xs = [_scaled(v, lx) for v in fa.x[j]]
        if sum(xs) != lx:
            problems.append(f"job {j}: row sum {Fraction(sum(xs), lx)} != 1")
        r = _scaled(job.release, scale)
        for i, p in enumerate(job.proc):
            if xs[i] < 0:
                problems.append(f"x[{j},{i}] = {fa.x[j][i]} negative")
            p = None if p is None else _scaled(p, lt)
            if xs[i] > 0 and (p is None or p * t_den > t_num * lt):
                problems.append(f"x[{j},{i}] positive but processing time exceeds bound {fa.T}")
            if p is not None:
                pairs[i].append((r, xs[i] * p))
    for i in range(inst.m):
        worst = worst_window(pairs[i])
        if worst is not None and worst[0] * t_den > t_num * scale:
            excess, t1, t2 = (Fraction(v, scale) for v in worst)
            problems.append(
                f"machine {i} window [{t1},{t2}]: load {excess + t2 - t1} > {t2 - t1 + fa.T}"
            )
    return problems


def _scaled(v, scale: int) -> int:
    """The rational ``v`` times ``scale``, which its denominator divides."""
    return v.numerator * (scale // v.denominator)


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
    the first breakpoint, below which some job has no machine.
    """
    problems = validate_instance(inst)
    if problems:
        raise ValidationError("; ".join(problems))
    t_floor = max(min(p for p in job.proc if p is not None) for job in inst.jobs)
    breakpoints = sorted({p for _, _, p in inst.finite_procs() if p >= t_floor})

    solved: dict = {}  # T -> (its LP, the LP's solution)

    def feasible(T) -> bool:
        if T not in solved:
            lp = build_assignment_lp(inst, T)
            solved[T] = lp, lpmod.solve_lp(lp)
        return solved[T][1].status == lpmod.OPTIMAL

    lo_idx, hi_idx = 0, len(breakpoints) - 1
    first_feasible: Optional[int] = None
    if feasible(breakpoints[-1]):
        while lo_idx <= hi_idx:
            mid = (lo_idx + hi_idx) // 2
            if feasible(breakpoints[mid]):
                first_feasible = mid
                hi_idx = mid - 1
            else:
                lo_idx = mid + 1

    ray = None
    if first_feasible == 0:
        t_star = breakpoints[0]  # the bound can never go below the per-job minima
    else:
        cap = None if first_feasible is None else breakpoints[first_feasible]
        t_star = breakpoints[-1 if first_feasible is None else first_feasible - 1]
        while not feasible(t_star):
            lp, sol = solved[t_star]
            bad = lpmod.farkas_violations(lp, sol.ray)
            if bad:
                raise InternalCheckError(f"Farkas ray at bound {t_star}: " + "; ".join(bad))
            ray = t_star, sol.ray
            slope = sum(w for w, con in zip(sol.ray, lp.constraints)
                        if con.relation == lpmod.LE and min(con.coeffs.values()) >= 0)
            deficit = -sum(w * con.rhs for w, con in zip(sol.ray, lp.constraints))  # > 0
            if cap is not None and deficit >= (cap - t_star) * slope:  # the root reaches cap
                t_star = cap
            elif slope:
                t_star += deficit / slope
            else:
                raise InternalCheckError("assignment LP infeasible at every bound")

    fa = assignment_from_solution(inst, t_star, solved[t_star][1])
    return MinTSearch(t_star=t_star, assignment=fa, ray=ray)


def quantize_dyadic(fa: FractionalAssignment, level: int) -> FractionalAssignment:
    """Pairwise transfers until every value is a multiple of 1/2^level.

    Each job's row is snapped by core.snap_pairs at no cost, so ties move the
    earlier entry down.  Every entry stays inside its original grid cell, so no
    entry moves by 1/2^level or more and any machine-window load grows by less
    than p_max * n / 2^level.  The new bound accounts for exactly that.
    """
    if level < 0:
        raise ValidationError("level must be nonnegative")
    unit = Fraction(1, 2 ** level)
    x = [list(snap_pairs(dict(enumerate(row)), unit).values()) for row in fa.x]
    return FractionalAssignment(x=x, T=fa.T)


def quantized_bound(inst: SchedulingInstance, fa: FractionalAssignment, level: int) -> Fraction:
    return fa.T + p_max(inst) * Fraction(inst.n, 2 ** level)


@dataclass
class PairSplit:
    """The half-jobs of a level's pair instance, its integral pieces folded
    into fixed loads, and the map back to original jobs."""

    instance: SchedulingInstance  # the half-jobs only
    assignment: FractionalAssignment  # 1/2 on each machine of every half-job
    origin: list[int]                 # half-job -> original job
    pairs: list[tuple[int, int]]      # half-job -> (machine, machine), distinct
    level: int
    fixed_load: list[dict]            # machine -> {release: load of its integral pieces}
    integral_counts: list[list[int]]  # [job][machine] -> integral pieces
    p_max_level: Fraction             # largest processing time over all pieces

    def merge_assignment(self, asg: MachineAssignment) -> FractionalAssignment:
        """Fold an integral half-job assignment back to level h-1 fractions."""
        scale = 2 ** (self.level - 1)
        counts = [row[:] for row in self.integral_counts]
        for jp, machine in enumerate(asg.assign):
            counts[self.origin[jp]][machine] += 1
        x = [[Fraction(c, scale) for c in row] for row in counts]
        return FractionalAssignment(x=x, T=self.assignment.T)


_ZERO, _HALF, _ONE = Fraction(0), Fraction(1, 2), Fraction(1)


def split_to_pair_instance(inst: SchedulingInstance, fa: FractionalAssignment, level: int) -> PairSplit:
    """Split every job into 2^(level-1) two-machine pieces at level `level`.

    Machine slots (machine i repeated 2^level * x_ij times) are sorted and
    paired first-with-last; each piece carries the original processing times
    scaled down by 2^(level-1).  A piece whose two slots name different
    machines becomes a half-job, infinite elsewhere; the rest all sit on the
    one machine whose slots span the middle, so they are integral and only
    their count and their load at the job's release are kept.  Half on each
    member plus the fixed loads gives every window the load of x, so the split
    is feasible at the same bound.  Slot counts and loads are integers, the
    loads p * D over D * 2^(level-1) for D the lcm of the processing-time
    denominators; each fixed load becomes one `Fraction` at the end.
    """
    if level < 1:
        raise ValidationError("level must be >= 1")
    scale = 2 ** level
    half = scale // 2
    d = lcm(*(p.denominator for _, _, p in inst.finite_procs()))
    jobs: list[Job] = []
    origin: list[int] = []
    pairs: list[tuple[int, int]] = []
    fixed: list[dict] = [{} for _ in range(inst.m)]  # machine -> {release: load * D * half}
    integral_counts = [[0] * inst.m for _ in range(inst.n)]
    top = 0
    for j, job in enumerate(inst.jobs):
        slots: list[int] = []
        for i, v in enumerate(fa.x[j]):
            if scale % v.denominator:
                raise ValidationError(f"x[{j},{i}] = {v} is not a multiple of 1/{scale}")
            cnt = _scaled(v, scale)
            if cnt:
                if job.proc[i] is None:
                    raise ValidationError(f"x[{j},{i}] = {v} positive on a forbidden machine")
                top = max(top, _scaled(job.proc[i], d))
            slots.extend([i] * cnt)
        if len(slots) != scale:
            raise ValidationError(f"job {j}: assignment row does not sum to 1")
        q = 0
        pieces: dict = {}  # (i1, i2) -> its half-job, shared by equal pieces
        while q < half and slots[q] != slots[scale - 1 - q]:
            pair = slots[q], slots[scale - 1 - q]
            if pair not in pieces:
                proc = [None] * inst.m
                for i in pair:
                    proc[i] = job.proc[i] / half
                pieces[pair] = Job(release=job.release, proc=tuple(proc))
            jobs.append(pieces[pair])
            origin.append(j)
            pairs.append(pair)
            q += 1
        if q < half:
            i = slots[q]
            integral_counts[j][i] = half - q
            fixed[i][job.release] = fixed[i].get(job.release, 0) + (half - q) * _scaled(job.proc[i], d)
    x_rows = [[_HALF if i in pair else _ZERO for i in range(inst.m)] for pair in pairs]
    return PairSplit(instance=SchedulingInstance(m=inst.m, jobs=tuple(jobs)),
                     assignment=FractionalAssignment(x=x_rows, T=fa.T), origin=origin,
                     pairs=pairs, level=level,
                     fixed_load=[{r: Fraction(v, d * half) for r, v in f.items()} for f in fixed],
                     integral_counts=integral_counts, p_max_level=Fraction(top, d * half))


def rounding_vectors(inst: SchedulingInstance, fa: FractionalAssignment, pmax=None):
    """The release-ordered half-split jobs and their balancing vectors.

    Vector entries are +p/(2 p_max) on the lower machine index and the
    negated counterpart on the higher; l1 norms never exceed 1 as long as
    ``pmax`` (default p_max(inst)) is at least every processing time in inst.
    Returns (ordered (job, i1, i2) triples, vectors).
    """
    _, halves = _half_integral_rows(inst, fa)
    halves, seq = _rounding_sequence(inst, halves, p_max(inst) if pmax is None else pmax)
    return halves, seq.vectors


def _half_integral_rows(inst: SchedulingInstance, fa: FractionalAssignment):
    """(machine of each integral row or None, (job, i1, i2) of each half row);
    any other row is a ValidationError."""
    assign: list[Optional[int]] = [None] * inst.n
    halves = []
    for j in range(inst.n):
        support = [(i, v) for i, v in enumerate(fa.x[j]) if v]
        if len(support) == 1 and support[0][1] == 1:
            assign[j] = support[0][0]
        elif len(support) == 2 and support[0][1] == support[1][1] == _HALF:
            i1, i2 = support[0][0], support[1][0]
            if inst.jobs[j].proc[i1] is None or inst.jobs[j].proc[i2] is None:
                raise ValidationError(f"job {j} half-assigned to a forbidden machine")
            halves.append((j, i1, i2))
        else:
            raise ValidationError(f"job {j}: row {fa.x[j]} is not half-integral")
    return assign, halves


def _rounding_sequence(inst: SchedulingInstance, halves, pmax):
    """``halves`` in release order (ties by index) and their vectors as one
    sequence of ints over 2 p_max d, d the lcm of the denominators involved."""
    jobs = inst.jobs
    r = lcm(*(jobs[j].release.denominator for j, _, _ in halves))
    halves = sorted(halves, key=lambda h: (_scaled(jobs[h[0]].release, r), h[0]))
    d = lcm(pmax.denominator, *(jobs[j].proc[i].denominator for j, i1, i2 in halves for i in (i1, i2)))
    ints = []
    for j, i1, i2 in halves:
        v = [0] * inst.m
        v[i1], v[i2] = _scaled(jobs[j].proc[i1], d), -_scaled(jobs[j].proc[i2], d)
        ints.append(v)
    # p_max = 0 leaves only zero entries, whatever the scale
    return halves, SignedVectorSequence(m=inst.m, vectors=ints, scale=2 * _scaled(pmax, d) or 1)


def round_half_integral_maxflow(
    inst: SchedulingInstance,
    fa: FractionalAssignment,
    colorer: Callable[[SignedVectorSequence], list[int]],
    fixed_load=None,
    pmax=None,
) -> tuple[MachineAssignment, Fraction]:
    """Round a half-integral assignment by prefix coloring; returns (assignment, D).

    Each half-split job contributes a two-entry vector with +p/(2 p_max) on
    its lower machine index and -p/(2 p_max) on the other, ordered by release
    (ties by index).  A +1 sign sends the job to the positive machine.  The
    result satisfies every machine window at T + 2 * D * p_max where D is the
    achieved prefix discrepancy of the coloring.  ``fixed_load`` (see
    fractional_assignment_violations) joins both checks.  ``pmax`` defaults to
    p_max(inst); a split passes its level's p_max over all pieces.
    """
    bad_input = fractional_assignment_violations(inst, fa, fixed_load)
    if bad_input:
        raise ValidationError("input assignment infeasible: " + "; ".join(bad_input))
    pmax = p_max(inst) if pmax is None else pmax
    assign, halves = _half_integral_rows(inst, fa)
    halves, seq = _rounding_sequence(inst, halves, pmax)
    if halves:
        signs = colorer(seq)
        achieved = discrepancy(seq.with_signs(signs), PREFIX).value
    else:
        signs = []
        achieved = Fraction(0)
    for pos, (j, i1, i2) in enumerate(halves):
        assign[j] = i1 if signs[pos] == 1 else i2
    result = MachineAssignment(assign=tuple(assign))
    bound = fa.T + 2 * achieved * pmax
    leftover = fractional_assignment_violations(
        inst, FractionalAssignment(x=[[_ONE if i == machine else _ZERO for i in range(inst.m)]
                                      for machine in result.assign], T=bound),
        fixed_load,
    )
    if leftover:
        raise InternalCheckError(
            "rounded assignment violates its discrepancy bound: " + "; ".join(leftover)
        )
    return result, achieved


def full_round_maxflow(
    inst: SchedulingInstance,
    colorer: Callable[[SignedVectorSequence], list[int]],
) -> tuple[MachineAssignment, RoundingTrace]:
    """Complete pipeline: solve, quantize, round level by level, evaluate.

    The emitted trace satisfies, exactly:
    final value <= T* + p_max + sum over levels of 2 * D_h * p_max / 2^(h-1).
    """
    from .core import evaluate_max_flow

    search = solve_min_T(inst)
    t_star = search.t_star
    fa = search.assignment
    level = rounding_level(inst.n)
    fa = quantize_dyadic(fa, level)
    t_quant = quantized_bound(inst, search.assignment, level)
    fa = FractionalAssignment(x=fa.x, T=t_quant)
    records: list[LevelRecord] = []
    running_T = t_quant
    for h in range(level, 0, -1):
        split = split_to_pair_instance(inst, fa, h)
        pml = split.p_max_level
        asg_split, achieved = round_half_integral_maxflow(split.instance, split.assignment, colorer,
                                                          split.fixed_load, pml)
        records.append(LevelRecord(h=h, discrepancy=achieved, p_max_level=pml))
        running_T = running_T + 2 * achieved * pml
        fa = split.merge_assignment(asg_split)
        fa = FractionalAssignment(x=fa.x, T=running_T)
    assign = []
    for j in range(inst.n):
        winners = [i for i in range(inst.m) if fa.x[j][i] == 1]
        if len(winners) != 1:
            raise InternalCheckError(f"job {j} not integral after the final level")
        assign.append(winners[0])
    result = MachineAssignment(assign=tuple(assign))
    metrics = evaluate_max_flow(inst, result)
    bound = telescoped_bound(t_star, p_max(inst), [(rec.h, rec.discrepancy) for rec in records])
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
    """T* + p_max + sum of 2 D_h p_max / 2^(h-1) over the ``(h, D_h)`` levels."""
    return t_star + pmax + sum((2 * d * pmax / Fraction(2 ** (h - 1)) for h, d in levels), Fraction(0))


def result_to_json(trace: RoundingTrace, assignment: MachineAssignment) -> dict:
    return {
        "T_star": rat_to_str(trace.t_star),
        "assignment": list(assignment.assign),
        "levels": [{"h": rec.h, "D": rat_to_str(rec.discrepancy)} for rec in trace.levels],
        "max_flow": rat_to_str(trace.final_value),
    }


def check_result(inst: SchedulingInstance, data: dict) -> list[str]:
    """Re-validate a result file against its instance (round-trip checker)."""
    from .core import evaluate_max_flow

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
