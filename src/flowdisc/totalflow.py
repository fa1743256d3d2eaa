"""Total-flow-time pipeline: time-indexed LP, grouped auxiliary LP with
relaxation slack, consistent ordering, job splitting, and discrepancy rounding.

Solutions live on an integer slot grid.  The time-indexed LP has one column
per slot, while the auxiliary LP has one per event gap (releases and the
horizon ends bound the gaps), so its solutions sit on gap starts.  Jobs are
grouped per machine into size classes (class k holds processing times in
(2^(k-1), 2^k]); the auxiliary objective charges (t - r)/2^k + 1/2 per unit
volume so same-class volume can be exchanged between jobs at no cost.  Every
price comes from ``slot_rate``, one Fraction built from ints.  The auxiliary
LP bounds the class-<=k volume of each window: at slack 0, the one the
pipeline solves, by one row per (machine, class, gap), and at a positive
slack by Lindley carry rows.  The relaxation slack alpha of a solution is the
worst window overload per class, measured exactly.

A solution stores its volumes as ints over one common denominator ``den``
(volume x/den), and the rounding loop works on those ints alone.  That is
exact because every volume the loop makes lies on the grid 1/den:
  - a sum, difference or ``min`` of volumes already on the grid (the refill
    and the slicing in ``_pour``, the merge of split pieces);
  - a chunk p/2^h of a split job: ``_split_solution`` first lifts ``den`` to a
    multiple of 2^h times every processing time's denominator, so p*den/2^h
    is an int;
  - a whole p of a rounded job, where p*den is an int because the job's
    volume on that machine was p or p/2 before.
Fractions appear only at the edges: the LP's solution and the dyadic
quantization come in as Fractions, and alpha, costs and the ``entries`` view
go out as Fractions.
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
    evaluate_total_flow_srpt,
    rounding_level,
    snap_pairs,
    validate_instance,
    worst_window,
)
from .util import InternalCheckError, ValidationError, int_from_json, list_from_json, rat_from_str, rat_to_str


def class_index(p) -> int:
    """Smallest k with p <= 2^k, i.e. the size class holding p (k=0 for p=1)."""
    if type(p) is not Fraction and type(p) is not int:
        p = Fraction(p)
    a, b = p.numerator, p.denominator  # b > 0, so p has the sign of a
    if a <= 0:
        raise ValidationError(f"size class needs a positive processing time, got {p}")
    # 2^(k-1) < a/b < 2^(k+1), so the class is k or k + 1
    k = a.bit_length() - b.bit_length()
    fits = a <= b << k if k >= 0 else a << -k <= b
    return k if fits else k + 1


def pow2(k: int):
    """2^k exactly: an int for k >= 0, a Fraction below."""
    return 1 << k if k >= 0 else Fraction(1, 1 << -k)


class TimeIndexedSolution:
    """Sparse (machine, job, slot) -> volume map over an integer horizon.

    ``vol`` maps each key to an int x, and the key's volume is x/``den``: one
    common denominator for the whole solution.  Built from ``entries``, a map
    to numbers, the solution takes ``den`` as the lcm of their denominators
    and drops zero volumes; ``scaled`` builds one straight from nonzero ints
    over a known ``den``.  ``entries`` is the read-only Fraction view, a new
    dict on every read.
    """

    __slots__ = ("horizon", "vol", "den")

    def __init__(self, horizon: int, entries: Optional[dict] = None):
        values = {(int(i), int(j), int(t)): Fraction(v) for (i, j, t), v in (entries or {}).items()}
        den = lcm(*(v.denominator for v in values.values()))
        self.horizon = horizon
        self.den = den
        self.vol = {key: v.numerator * (den // v.denominator) for key, v in values.items() if v}

    @classmethod
    def scaled(cls, horizon: int, vol: dict, den: int) -> TimeIndexedSolution:
        """The solution with volume x/den at each key of ``vol``; takes ``vol``
        as it is, so its ints must be nonzero."""
        y = cls.__new__(cls)
        y.horizon, y.vol, y.den = horizon, vol, den
        return y

    @property
    def entries(self) -> dict:
        den = self.den
        return {key: Fraction(x, den) for key, x in self.vol.items()}

    def job_machine_total(self, i: int, j: int) -> Fraction:
        return Fraction(sum(x for (ii, jj, _), x in self.vol.items() if ii == i and jj == j), self.den)

    def scaled_streams(self) -> dict:
        """(machine, job) -> that pair's slot-ordered [(slot, x), ...], volume x/den."""
        out: dict = {}
        for (i, j, t), x in sorted(self.vol.items()):
            out.setdefault((i, j), []).append((t, x))
        return out

    def streams(self) -> dict:
        """(machine, job) -> that pair's slot-ordered [(slot, volume), ...]."""
        den = self.den
        return {pair: [(t, Fraction(x, den)) for t, x in stream]
                for pair, stream in self.scaled_streams().items()}


def solution_violations(inst: SchedulingInstance, y: TimeIndexedSolution) -> list[str]:
    problems = []
    totals = [Fraction(0)] * inst.n
    for (i, j, t), v in y.entries.items():
        if not (0 <= i < inst.m and 0 <= j < inst.n and 0 <= t < y.horizon):
            problems.append(f"entry ({i},{j},{t}) out of range")
            continue
        if v < 0:
            problems.append(f"negative volume at ({i},{j},{t})")
        p = inst.jobs[j].proc[i]
        if p is None:
            problems.append(f"volume on forbidden machine at ({i},{j},{t})")
            continue
        if Fraction(t) < inst.jobs[j].release:
            problems.append(f"volume before release at ({i},{j},{t})")
        totals[j] += v / p
    for j, tot in enumerate(totals):
        if tot != 1:
            problems.append(f"job {j}: completed fraction {tot} != 1")
    return problems


def default_horizon(inst: SchedulingInstance) -> int:
    """Max release plus the sum of per-job minimum processing times."""
    top = max(int(job.release) for job in inst.jobs)
    work = sum(int(min(p for p in job.proc if p is not None)) for job in inst.jobs)
    return top + work


def _require_integral(inst: SchedulingInstance) -> None:
    for j, job in enumerate(inst.jobs):
        if job.release.denominator != 1:
            raise ValidationError(f"job {j}: integer release required, got {job.release}")
        for p in job.proc:
            if p is not None and (p.denominator != 1 or p < 1):
                raise ValidationError(f"job {j}: positive integer processing times required")


def yvar(i: int, j: int, t: int) -> str:
    return f"y[{i},{j},{t}]"


def slot_rate(job: Job, t: int, scale) -> Fraction:
    """Cost of one unit of the job's volume in slot t: (t - r)/scale + 1/2.

    Every LP objective and every cost rate reads its price here.  With
    r = a/b and scale = c/d (an int or a Fraction), the price is
    (2(tb - a)d + bc) / (2bc), made as one Fraction from ints.
    """
    a, b = job.release.numerator, job.release.denominator
    c, d = scale.numerator, scale.denominator
    return Fraction(2 * (t * b - a) * d + b * c, 2 * b * c)


def _slot_program(inst: SchedulingInstance, scale: Callable, slots) -> lpmod.LinearProgram:
    """The y variables of every usable (machine, job, slot), where a job uses
    the candidate ``slots`` at or after its release, one completion row per
    job (sum y/p = 1) and the objective slot_rate(job, t, scale(p))."""
    lp = lpmod.LinearProgram()
    for j, job in enumerate(inst.jobs):
        coeffs = {}
        release = int(job.release)
        mine = [t for t in slots if t >= release]
        for i, p in enumerate(job.proc):
            if p is None:
                continue
            per, inv = scale(p), 1 / p
            for t in mine:
                name = yvar(i, j, t)
                lp.variables.append(name)
                lp.objective[name] = slot_rate(job, t, per)
                coeffs[name] = inv
        lp.add_constraint(coeffs, lpmod.EQ, 1)
    return lp


def build_time_indexed_lp(inst: SchedulingInstance, horizon: Optional[int] = None) -> tuple:
    """Slot-indexed LP: objective sum((t - r)/p + 1/2) y, unit slot capacity.

    Returns (LinearProgram, horizon).  Infeasibility certifies a too-small
    horizon.
    """
    _require_integral(inst)
    H = default_horizon(inst) if horizon is None else int(horizon)
    lp = _slot_program(inst, lambda p: p, range(H))
    for i in range(inst.m):
        for t in range(H):
            coeffs = {}
            for j, job in enumerate(inst.jobs):
                if job.proc[i] is not None and int(job.release) <= t:
                    coeffs[yvar(i, j, t)] = Fraction(1)
            if coeffs:
                lp.add_constraint(coeffs, lpmod.LE, 1)
    return lp, H


def _event_slots(inst: SchedulingInstance, H: int) -> list[int]:
    """0, the releases below H and H itself, sorted: the ends of the event gaps."""
    slots = {0, H}
    for job in inst.jobs:
        if job.release < H:
            slots.add(int(job.release))
    return sorted(slots)


def class_scale(p):
    """2^k for the size class k of p: the time scale of the grouped objective."""
    return pow2(class_index(p))


def class_table(inst: SchedulingInstance) -> dict:
    """(machine, job) -> size class of its finite processing time.  Built once
    per instance and handed to every layer that groups volume by class."""
    return {(i, j): class_index(p) for j, i, p in inst.finite_procs()}


def build_auxiliary_lp(inst: SchedulingInstance, alpha, horizon: Optional[int] = None) -> tuple:
    """Class-grouped LP: objective sum((t - r)/2^k + 1/2) y and window capacity
    per (machine, class k, event window [t1, t2)) with slack alpha * 2^k.

    The events are 0, the releases and the horizon H; consecutive events
    bound the event gaps.  There is one y column per (machine, job, event gap
    [t1, t2) with r_j <= t1), named y[i,j,t1] after the gap's first slot, so
    the LP's size does not depend on H.  This is exact for the slot-indexed
    LP with one column per slot in [r_j, H): releases are events, so inside
    one gap all of a (machine, job)'s slot columns have the same completion
    coefficient 1/p and sit in the same carry step of every class >= k;
    slot_rate rises strictly with t, so moving a solution's volume to the
    gap's first slot keeps every row and lowers the cost.  Every optimum of
    the slot LP therefore lives on the gap starts, and the two LPs have the
    same status and the same optimum value (interval-indexed LPs, Dyer and
    Wolsey 1990; Hall, Schulz, Shmoys and Wein 1997, here with no cost
    rounded).

    Windows start and end on events.  Per (machine, class) group, carry rows
    (add_carry_rows) over the class-<=k volume of each gap give the worst
    window ending at each event, and each carry is capped by alpha * 2^k: one
    step per event gap instead of one row per pair of events.

    At alpha = 0 the caps pin every carry to 0, and carry row b then reads
    "the class-<=k volume of gap b is at most its width".  So the LP has just
    those rows, one per (machine, class, gap holding a usable job) in the
    carry rows' order, and no carry columns or caps.  The feasible y set is
    the same, and so are the status and the optimum: a window's load is the
    sum of its gaps' loads, so gaps within their widths keep every window
    within its own (the interval-indexed LP's capacities).  Returns
    (LinearProgram, horizon).
    """
    _require_integral(inst)
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValidationError(f"slack alpha must be nonnegative, got {alpha}")
    H = default_horizon(inst) if horizon is None else int(horizon)
    events = _event_slots(inst, H)
    lp = _slot_program(inst, class_scale, events[:-1])
    classes = class_table(inst)
    release = [int(job.release) for job in inst.jobs]
    for i in range(inst.m):
        ks = sorted({k for (ii, _), k in classes.items() if ii == i})
        for k in ks:
            group = [j for j in range(inst.n) if (i, j) in classes and classes[(i, j)] <= k]
            steps = []
            for t1, t2 in zip(events, events[1:]):
                coeffs = {yvar(i, j, t1): 1 for j in group if release[j] <= t1}
                if coeffs or steps:  # gaps before the group's first release carry nothing
                    steps.append((coeffs, t2 - t1))
            if alpha == 0:  # every carry is capped at 0: each step's load fits its gap
                for coeffs, width in steps:
                    lp.add_constraint(coeffs, lpmod.LE, width)
            else:
                for carry in add_carry_rows(lp, f"C[{i},{k}]", steps):
                    lp.add_constraint({carry: 1}, lpmod.LE, alpha * pow2(k))
    return lp, H


def solution_from_lp(inst: SchedulingInstance, sol: lpmod.LpSolution, horizon: int) -> TimeIndexedSolution:
    entries = {}
    for name, v in sol.values.items():
        if v == 0 or not name.startswith("y["):
            continue
        i, j, t = (int(part) for part in name[2:-1].split(","))
        entries[(i, j, t)] = v
    return TimeIndexedSolution(horizon=horizon, entries=entries)


def ti_cost(inst: SchedulingInstance, y: TimeIndexedSolution) -> Fraction:
    return sum((slot_rate(inst.jobs[j], t, inst.jobs[j].proc[i]) * v
                for (i, j, t), v in y.entries.items()), Fraction(0))


def aux_cost(inst: SchedulingInstance, y: TimeIndexedSolution, classes=None) -> Fraction:
    """Grouped objective: slot_rate(job, t, 2^k) times volume, summed over y.

    Sums x*(t - r) per class in ints, with the releases over the lcm of their
    denominators, and makes one Fraction at the end.
    """
    if classes is None:
        classes = class_table(inst)
    rscale = lcm(*(job.release.denominator for job in inst.jobs))
    release = [job.release.numerator * (rscale // job.release.denominator) for job in inst.jobs]
    late: dict = {}  # class -> sum of x * (t - r) * rscale
    total = 0
    for (i, j, t), x in y.vol.items():
        k = classes[i, j]
        late[k] = late.get(k, 0) + x * (t * rscale - release[j])
        total += x
    # cost = (sum over classes k of late_k / 2^k + total * rscale / 2) / (rscale * den)
    top = max([1, *late])
    num = total * rscale << (top - 1)
    for k, v in late.items():
        num += v << (top - k)
    return Fraction(num, rscale * y.den << top)


@dataclass(frozen=True)
class AlphaReport:
    alpha: Fraction
    witness: Optional[tuple]  # (machine, class, t1, t2) with window [t1, t2)

    def reproduce(self, inst: SchedulingInstance, y: TimeIndexedSolution, classes=None) -> Fraction:
        if self.witness is None:
            return Fraction(0)
        if classes is None:
            classes = class_table(inst)
        i, k, t1, t2 = self.witness
        load = Fraction(0)
        for (ii, j, t), v in y.entries.items():
            if ii == i and t1 <= t < t2 and classes[ii, j] <= k:
                load += v
        excess = load - (t2 - t1)
        return max(Fraction(0), excess / pow2(k))


def measure_alpha(inst: SchedulingInstance, y: TimeIndexedSolution, classes=None) -> AlphaReport:
    """Exact worst window overload per class: max over (i, k, [t1, t2)) of
    (volume of class-<=k jobs inside the window minus its width) / 2^k,
    floored at zero.

    The maximum is attained with both window endpoints on support slots, so
    one worst_window scan per (machine, class) is exact.  Slot t covers
    [t, t+1): its closed window [t1, t2] is the half-open [t1, t2 + 1).
    The scan runs on times and volumes both scaled by ``den``, which keeps
    every comparison it makes, and a candidate (excess - den)/2^k is kept as
    its int numerator and k, compared by shifting both sides.
    """
    if classes is None:
        classes = class_table(inst)
    den = y.den
    by_machine: dict[int, list] = {}
    for (i, j, t), x in y.vol.items():
        by_machine.setdefault(i, []).append((classes[i, j], t * den, x))
    best, best_k, best_wit = 0, 0, None  # slack best / (den * 2^best_k)
    for i, items in sorted(by_machine.items()):
        for k in sorted({kk for kk, _, _ in items}):
            excess, t1, t2 = worst_window((t, x) for kk, t, x in items if kk <= k)
            cand = excess - den
            low = min(k, best_k)
            if cand << (best_k - low) > best << (k - low):
                best, best_k, best_wit = cand, k, (i, k, t1 // den, t2 // den + 1)
    return AlphaReport(alpha=Fraction(best << max(-best_k, 0), den << max(best_k, 0)),
                       witness=best_wit)


def canonical_order(inst: SchedulingInstance) -> list[int]:
    """Jobs by release; the sort is stable, so ties go by index.  The keys
    are the releases as ints over the lcm of their denominators."""
    den = lcm(*(job.release.denominator for job in inst.jobs))
    keys = [job.release.numerator * (den // job.release.denominator) for job in inst.jobs]
    return sorted(range(inst.n), key=keys.__getitem__)


def _pour(entries: dict, machine: int, supply: list, demands: list) -> None:
    """Northwest-corner fill: the ``(job, need)`` demands in order, each from
    the earliest volume left in the time-ordered ``(slot, volume)`` supply,
    adding to ``entries[(machine, job, slot)]``."""
    pos, room = -1, 0
    for j, need in demands:
        while need > 0:
            if room == 0:
                pos += 1
                if pos == len(supply):
                    raise InternalCheckError(f"machine {machine}: volume supply ran out")
                t, room = supply[pos]
            take = min(need, room)
            key = (machine, j, t)
            entries[key] = entries.get(key, 0) + take
            need -= take
            room -= take


def normalize_consistent_order(
    inst: SchedulingInstance, y: TimeIndexedSolution, classes=None,
) -> TimeIndexedSolution:
    """Reflow each (machine, class) group so jobs run in one global order.

    Per group, the per-slot group volumes and the per-job totals are kept and
    jobs are refilled earliest-first in the canonical (release, index) order.
    Same-class exchanges are free under the grouped objective, so cost,
    per-(i,j) totals and the measured relaxation slack are all preserved
    exactly.
    """
    order = canonical_order(inst)
    if classes is None:
        classes = class_table(inst)
    rank = {j: pos for pos, j in enumerate(order)}
    groups: dict[tuple[int, int], list] = {}
    for (i, j, t), x in y.vol.items():
        groups.setdefault((i, classes[i, j]), []).append((j, t, x))
    vol: dict = {}
    for (i, k), items in sorted(groups.items()):
        slot_vol: dict[int, int] = {}
        job_vol: dict[int, int] = {}
        for j, t, x in items:
            slot_vol[t] = slot_vol.get(t, 0) + x
            job_vol[j] = job_vol.get(j, 0) + x
        _pour(vol, i, [(t, slot_vol[t]) for t in sorted(slot_vol)],
              [(j, job_vol[j]) for j in sorted(job_vol, key=lambda j: rank[j])])
    for (i, j, t) in vol:
        if t < inst.jobs[j].release:
            raise InternalCheckError("consistent-order refill placed volume before a release")
    return TimeIndexedSolution.scaled(y.horizon, vol, y.den)


def split_jobs_instance(inst: SchedulingInstance, level: int) -> tuple:
    """Split each job into 2^(level-1) equal pieces (same release).

    Requires every finite processing time to be divisible by 2^(level-1).
    Returns (instance, origin) with origin[piece] = original job.
    """
    if level < 1:
        raise ValidationError("level must be >= 1")
    pieces = 2 ** (level - 1)
    jobs = []
    origin = []
    for j, job in enumerate(inst.jobs):
        proc = []
        for p in job.proc:
            if p is None:
                proc.append(None)
            else:
                q = p / pieces
                if q.denominator != 1:
                    raise ValidationError(f"processing time {p} not divisible by {pieces}")
                proc.append(q)
        for _ in range(pieces):
            jobs.append(Job(release=job.release, proc=tuple(proc)))
            origin.append(j)
    return SchedulingInstance(m=inst.m, jobs=tuple(jobs)), origin


def quantize_dyadic_time(
    inst: SchedulingInstance, y: TimeIndexedSolution, level: int, classes=None
) -> TimeIndexedSolution:
    """Make every per-(machine, job) total a multiple of p_ij / 2^level.

    The completed fractions of each job move pairwise between machines
    (core.snap_pairs) with the direction chosen by exact cost rates: adding
    volume lands on the machine's earliest support slot, removal scales the
    machine's volume down proportionally, and the cheaper of the two
    directions is taken (it is never cost-increasing).
    Each (machine, job) changes by one net adjustment below p_ij / 2^level,
    so any class window gains less than n * 2^k / 2^level volume and the
    measured relaxation slack grows by at most 1.
    """
    if level < 0:
        raise ValidationError("level must be nonnegative")
    if classes is None:
        classes = class_table(inst)
    unit = Fraction(1, 2 ** level)
    streams = y.streams()
    entries = dict(y.entries)
    for j, job in enumerate(inst.jobs):
        machines = [i for i, p in enumerate(job.proc) if p is not None]
        stream = {i: streams.get((i, j), []) for i in machines}
        frac = {i: sum((v for _, v in stream[i]), Fraction(0)) / job.proc[i] for i in machines}
        first = {i: stream[i][0][0] if stream[i] else int(job.release) for i in machines}
        # cost per completed fraction: added volume lands at the earliest slot,
        # removed volume scales the whole stream down
        scale = {i: pow2(classes[i, j]) for i in machines}
        add = {i: slot_rate(job, first[i], scale[i]) * job.proc[i] for i in machines}
        cost = {i: sum((slot_rate(job, t, scale[i]) * v for t, v in stream[i]), Fraction(0))
                for i in machines}
        target = snap_pairs(frac, unit, lambda gain, lose: add[gain] - cost[lose] / frac[lose])
        # realize the net changes once per machine
        for i in machines:
            delta = target[i] - frac[i]
            if delta < 0:
                ratio = target[i] / frac[i]
                for t, v in stream[i]:
                    entries[(i, j, t)] = v * ratio  # the constructor drops zeros
            elif delta > 0:
                key = (i, j, first[i])
                entries[key] = entries.get(key, Fraction(0)) + delta * job.proc[i]
    return TimeIndexedSolution(horizon=y.horizon, entries=entries)


def rounding_vectors(inst: SchedulingInstance, split_jobs: list[int], half_of: dict, classes=None):
    """Balancing vectors over (machine, class) pairs for the split jobs.

    ``half_of[j]`` is ``(j, i1, i2)`` with machines i1 < i2.  Each split job
    carries +p/2^(k+1) on the lower machine i1's (machine, class) pair and the
    negated counterpart on i2's; entries never exceed 1/2, so l1 norms stay at
    most 1.  Returns (dim, vectors, (i1, i2) per job).
    """
    if classes is None:
        classes = class_table(inst)
    present = sorted(set(classes.values()))
    class_pos = {k: pos for pos, k in enumerate(present)}
    dim = inst.m * len(present)

    def coord(i: int, k: int) -> int:
        return i * len(present) + class_pos[k]

    vectors = []
    pos_side = []
    for j in split_jobs:
        _, i1, i2 = half_of[j]
        k1, k2 = classes[i1, j], classes[i2, j]
        v = [Fraction(0)] * dim
        v[coord(i1, k1)] = inst.jobs[j].proc[i1] / pow2(k1 + 1)
        v[coord(i2, k2)] = -inst.jobs[j].proc[i2] / pow2(k2 + 1)
        vectors.append(v)
        pos_side.append((i1, i2))
    return dim, vectors, pos_side


def round_half_integral_totalflow(
    inst: SchedulingInstance,
    y: TimeIndexedSolution,
    colorer: Callable[[SignedVectorSequence], list[int]],
    classes=None,
) -> tuple[TimeIndexedSolution, Fraction]:
    """Round machine-half-integral volumes to an integral solution.

    After consistent ordering, every job sits on one machine (full) or two
    machines (half each).  Split jobs become vectors over (machine, class)
    with entries +-p/2^(k+1); a prefix coloring in job order picks each job's
    machine, volume lands at the earliest slot the job used there, and of the
    coloring and its global flip the cheaper solution (grouped objective) is
    returned together with the achieved prefix discrepancy.
    """
    if classes is None:
        classes = class_table(inst)
    ybar = normalize_consistent_order(inst, y, classes=classes)
    den = ybar.den
    streams = ybar.scaled_streams()
    order = canonical_order(inst)
    full: dict[int, int] = {}
    half_of: dict[int, tuple[int, int, int]] = {}  # job -> (job, i1, i2), i1 < i2

    def is_part(q, x: int, halves: int) -> bool:
        """Whether the volume x/den is halves/2 of the processing time q."""
        return q is not None and 2 * x * q.denominator == halves * q.numerator * den

    for j in range(inst.n):
        tot = [(i, sum(x for _, x in streams.get((i, j), []))) for i in range(inst.m)]
        support = [(i, x) for i, x in tot if x != 0]
        p = inst.jobs[j].proc
        if len(support) == 1 and is_part(p[support[0][0]], support[0][1], 2):
            full[j] = support[0][0]
        elif len(support) == 2 and all(is_part(p[i], x, 1) for i, x in support):
            half_of[j] = (j, support[0][0], support[1][0])
        else:
            shown = [(i, Fraction(x, den)) for i, x in support]
            raise ValidationError(f"job {j}: totals {shown} are not machine-half-integral")

    split_jobs = [j for j in order if j in half_of]
    dim, vectors, pos_side = rounding_vectors(inst, split_jobs, half_of, classes)
    seq = SignedVectorSequence(m=dim, vectors=vectors) if vectors else None
    if seq is not None:
        signs = colorer(seq)
        achieved = discrepancy(seq.with_signs(signs), PREFIX).value
    else:
        signs = []
        achieved = Fraction(0)

    def place(vol: dict, i: int, j: int) -> None:
        """Job j's whole p, as p * den (an int: the job held p or p/2 on i),
        at the earliest slot it used on machine i."""
        q = inst.jobs[j].proc[i]
        vol[(i, j, streams[(i, j)][0][0])] = q.numerator * den // q.denominator

    def build(flip: int) -> TimeIndexedSolution:
        vol: dict = {}
        for j, i in full.items():
            place(vol, i, j)
        for pos, j in enumerate(split_jobs):
            plus_i, minus_i = pos_side[pos]
            place(vol, plus_i if signs[pos] * flip == 1 else minus_i, j)
        return TimeIndexedSolution.scaled(ybar.horizon, vol, den)

    y_pos = build(1)
    y_neg = build(-1)
    cost_pos = aux_cost(inst, y_pos, classes)
    cost_neg = aux_cost(inst, y_neg, classes)
    chosen = y_pos if cost_pos <= cost_neg else y_neg
    alpha_in = measure_alpha(inst, ybar, classes).alpha
    alpha_out = measure_alpha(inst, chosen, classes).alpha
    if alpha_out > alpha_in + 4 * achieved + 4:
        raise InternalCheckError(
            f"rounded slack {alpha_out} exceeds {alpha_in} + 4*{achieved} + 4"
        )
    return chosen, achieved


def integral_assignment(inst: SchedulingInstance, y: TimeIndexedSolution) -> Optional[MachineAssignment]:
    """The machine of each job when y is integral (every job's whole volume
    p_ij in one entry), else None."""
    assign = [None] * inst.n
    for (i, j, _t), x in y.vol.items():
        p = inst.jobs[j].proc[i]
        if p is None or x * p.denominator != p.numerator * y.den or assign[j] is not None:
            return None
        assign[j] = i
    if None in assign:
        return None
    return MachineAssignment(assign=tuple(assign))


@dataclass(frozen=True)
class TotalLevelRecord:
    h: int
    discrepancy: Fraction
    alpha_before: Fraction  # original-class scale
    alpha_after: Fraction
    level_bound: Fraction   # (4 D + 4) / 2^(h-1)


@dataclass
class TotalFlowTrace:
    dilation: int
    lp_cost: Fraction          # auxiliary optimum on the dilated grid
    alpha_initial: Fraction
    alpha_quantized: Fraction
    levels: list
    alpha_final: Fraction
    bound_value: Fraction      # alpha_initial + 1 + sum of level bounds
    total_flow_dilated: Fraction  # dilation * total_flow
    total_flow: Fraction       # SRPT on the instance as given
    assignment: MachineAssignment


def dilation_factor(level: int) -> int:
    """2^(level-1): the time dilation that makes every level-h split integral."""
    return 2 ** max(level - 1, 0)


def slack_bound(h: int, d) -> Fraction:
    """(4 D + 4)/2^(h-1): how far level h may raise the slack at discrepancy D."""
    return (4 * d + 4) / Fraction(2 ** (h - 1))


def dilate_instance(inst: SchedulingInstance, factor: int) -> SchedulingInstance:
    """Uniform time dilation: releases and processing times scale together, so
    schedules correspond exactly and metrics divide back by the factor."""
    jobs = tuple(
        Job(release=job.release * factor,
            proc=tuple(None if p is None else p * factor for p in job.proc))
        for job in inst.jobs
    )
    return SchedulingInstance(m=inst.m, jobs=jobs)


def _split_solution(
    inst: SchedulingInstance, origin: list[int], y: TimeIndexedSolution, level: int
) -> TimeIndexedSolution:
    """Distribute a level-h solution onto the split instance's pieces.

    Each original (machine, job) total is c half-units of p/2^h; the machine
    half-slots are paired first-with-last per job (the same canonical pairing
    as the assignment pipeline) and the job's time-ordered volume stream on
    each machine is sliced into the corresponding chunks.
    """
    scale = 2 ** level
    # lift den so that every chunk p/2^level is an int over it
    den = lcm(y.den, *(p.denominator << level for _, _, p in inst.finite_procs()))
    lift = den // y.den
    streams = y.scaled_streams()
    if lift != 1:
        streams = {pair: [(t, x * lift) for t, x in stream] for pair, stream in streams.items()}
    pieces_of: dict[int, list[int]] = {}
    for piece, j in enumerate(origin):
        pieces_of.setdefault(j, []).append(piece)
    vol: dict = {}
    for j in range(inst.n):
        slots: list[int] = []
        chunk: dict[int, int] = {}
        for i in range(inst.m):
            p = inst.jobs[j].proc[i]
            if p is None:
                continue
            tot = sum(x for _, x in streams.get((i, j), []))
            chunk[i] = p.numerator * den // (p.denominator * scale)
            cnt, rest = divmod(tot, chunk[i])
            if rest:
                raise ValidationError(
                    f"total on ({i},{j}) = {Fraction(tot, den)} is not a multiple of p/2^{level}"
                )
            slots.extend([i] * cnt)
        if len(slots) != scale:
            raise InternalCheckError(f"job {j}: half-unit count {len(slots)} != {scale}")
        pieces = pieces_of[j]
        holders: dict[int, list[int]] = {}
        for q in range(scale // 2):
            i1, i2 = slots[q], slots[scale - 1 - q]
            piece = pieces[q]
            holders.setdefault(i1, []).append(piece)
            holders.setdefault(i2, []).append(piece)
        for i, piece_list in sorted(holders.items()):
            _pour(vol, i, streams[(i, j)], [(piece, chunk[i]) for piece in piece_list])
    return TimeIndexedSolution.scaled(y.horizon, vol, den)


def _merge_split_solution(origin: list[int], y_split: TimeIndexedSolution) -> TimeIndexedSolution:
    vol: dict = {}
    for (i, piece, t), x in y_split.vol.items():
        key = (i, origin[piece], t)
        vol[key] = vol.get(key, 0) + x
    return TimeIndexedSolution.scaled(y_split.horizon, vol, y_split.den)


def full_round_totalflow(
    inst: SchedulingInstance,
    colorer: Callable[[SignedVectorSequence], list[int]],
) -> tuple[TimeIndexedSolution, TotalFlowTrace]:
    """Complete pipeline on a uniformly dilated copy of the instance.

    Solves the auxiliary LP at slack 0, quantizes the per-(machine, job)
    totals dyadically (slack grows by at most 1), then per level splits jobs,
    rounds the machine halves by prefix coloring and merges back.  The trace
    records the measured slack before and after every stage; the final slack
    satisfies, exactly,
    alpha_final <= alpha_initial + 1 + sum over levels of (4 D_h + 4)/2^(h-1).
    The integral assignment is scheduled by SRPT on the instance as given.
    """
    problems = validate_instance(inst)
    if problems:
        raise ValidationError("; ".join(problems))
    _require_integral(inst)
    level = rounding_level(inst.n)
    dilation = dilation_factor(level)
    dinst = dilate_instance(inst, dilation)
    lp, H = build_auxiliary_lp(dinst, 0)
    sol = lpmod.solve_lp(lp)
    if sol.status != lpmod.OPTIMAL:
        raise InternalCheckError(f"auxiliary LP unexpectedly {sol.status}")
    y = solution_from_lp(dinst, sol, H)
    lp_cost = sol.objective_value
    classes = class_table(dinst)
    alpha_initial = measure_alpha(dinst, y, classes).alpha
    y = quantize_dyadic_time(dinst, y, level, classes)
    alpha_quantized = measure_alpha(dinst, y, classes).alpha
    if alpha_quantized > alpha_initial + 1:
        raise InternalCheckError(
            f"quantized slack {alpha_quantized} exceeds {alpha_initial} + 1"
        )
    records: list[TotalLevelRecord] = []
    alpha_after = alpha_quantized  # the slack of the current y, measured once
    for h in range(level, 0, -1):
        split_inst, origin = split_jobs_instance(dinst, h)
        y_split = _split_solution(dinst, origin, y, h)
        # a piece of p/2^(h-1) sits h - 1 classes below its job
        split_classes = {(i, piece): classes[i, j] - (h - 1) for piece, j in enumerate(origin)
                         for i in range(dinst.m) if (i, j) in classes}
        alpha_before = alpha_after
        y_rounded, achieved = round_half_integral_totalflow(split_inst, y_split, colorer,
                                                            split_classes)
        y = _merge_split_solution(origin, y_rounded)
        alpha_after = measure_alpha(dinst, y, classes).alpha
        level_bound = slack_bound(h, achieved)
        if alpha_after > alpha_before + level_bound:
            raise InternalCheckError(
                f"level {h}: slack {alpha_after} exceeds {alpha_before} + {level_bound}"
            )
        records.append(TotalLevelRecord(h=h, discrepancy=achieved,
                                        alpha_before=alpha_before, alpha_after=alpha_after,
                                        level_bound=level_bound))
    asg = integral_assignment(dinst, y)
    if asg is None:
        raise InternalCheckError("pipeline did not reach an integral solution")
    alpha_final = alpha_after
    bound = alpha_initial + 1 + sum((r.level_bound for r in records), Fraction(0))
    if alpha_final > bound:
        raise InternalCheckError(f"final slack {alpha_final} exceeds telescoped bound {bound}")
    metrics = evaluate_total_flow_srpt(inst, asg)  # SRPT scales with time
    trace = TotalFlowTrace(
        dilation=dilation,
        lp_cost=lp_cost,
        alpha_initial=alpha_initial,
        alpha_quantized=alpha_quantized,
        levels=records,
        alpha_final=alpha_final,
        bound_value=bound,
        total_flow_dilated=dilation * metrics.total_flow,
        total_flow=metrics.total_flow,
        assignment=asg,
    )
    return y, trace


@dataclass
class ScheduleRatioReport:
    assignment: MachineAssignment
    total_flow: Fraction
    aux_cost: Fraction
    restricted_lp_cost: Fraction  # time-indexed optimum with machines fixed
    ratio: Fraction               # total flow over the restricted LP bound
    alpha: Fraction
    class_span: int               # number of distinct size classes present


def schedule_from_integral(inst: SchedulingInstance, y: TimeIndexedSolution) -> ScheduleRatioReport:
    """Extract the machine assignment from an integral solution, run SRPT per
    machine, and report the flow against the LP lower bound for that fixed
    assignment (the approximation ratio is reported, never asserted).
    """
    asg = integral_assignment(inst, y)
    if asg is None:
        raise ValidationError("solution is not integral")
    metrics = evaluate_total_flow_srpt(inst, asg)
    restricted = SchedulingInstance(
        m=inst.m,
        jobs=tuple(
            Job(release=job.release,
                proc=tuple(p if i == asg.assign[j] else None for i, p in enumerate(job.proc)))
            for j, job in enumerate(inst.jobs)
        ),
    )
    lp, H = build_time_indexed_lp(restricted)
    sol = lpmod.solve_lp(lp)
    if sol.status != lpmod.OPTIMAL:
        raise InternalCheckError("restricted time-indexed LP should be feasible")
    if metrics.total_flow < sol.objective_value:
        raise InternalCheckError("SRPT flow fell below its LP lower bound")
    classes = class_table(inst)
    return ScheduleRatioReport(
        assignment=asg,
        total_flow=metrics.total_flow,
        aux_cost=aux_cost(inst, y, classes),
        restricted_lp_cost=sol.objective_value,
        ratio=metrics.total_flow / sol.objective_value if sol.objective_value else Fraction(0),
        alpha=measure_alpha(inst, y, classes).alpha,
        class_span=len(set(classes.values())),
    )


def result_to_json(trace: TotalFlowTrace) -> dict:
    return {
        "lp_cost": rat_to_str(trace.lp_cost),
        "alpha_levels": [
            {
                "h": rec.h,
                "D": rat_to_str(rec.discrepancy),
                "alpha_before": rat_to_str(rec.alpha_before),
                "alpha_after": rat_to_str(rec.alpha_after),
                "bound": rat_to_str(rec.level_bound),
            }
            for rec in trace.levels
        ],
        "total_flow": rat_to_str(trace.total_flow),
        "assignment": list(trace.assignment.assign),
    }


def check_result(inst: SchedulingInstance, data: dict) -> list[str]:
    """Re-validate a total-flow result file against its instance."""
    problems = []
    try:
        asg = MachineAssignment(assign=tuple(
            int_from_json(i) for i in list_from_json(data["assignment"], "assignment")))
        rat_from_str(data["lp_cost"])  # its value is still taken on trust
        total_flow = rat_from_str(data["total_flow"])
        levels = [(int_from_json(rec["h"]), rat_from_str(rec["D"]), rat_from_str(rec["alpha_before"]),
                   rat_from_str(rec["alpha_after"]), rat_from_str(rec["bound"]))
                  for rec in list_from_json(data["alpha_levels"], "alpha_levels")]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result file: {exc}"]
    level = rounding_level(inst.n)
    hs = [h for h, *_ in levels]
    expected = list(range(level, 0, -1))
    if hs != expected:
        return [f"malformed result file: levels h = {hs}, expected {expected}"]
    for h, d, *_ in levels:
        if d < 0:
            return [f"malformed result file: level {h}: negative D {d}"]
    prev_after = None
    for h, d, before, after, bound in levels:
        if bound != slack_bound(h, d):
            problems.append(f"level {h}: recorded bound {bound} != (4D + 4)/2^(h-1) = {slack_bound(h, d)}")
        if prev_after is not None and before != prev_after:
            problems.append(f"level {h}: alpha_before {before} != previous alpha_after {prev_after}")
        if after > before + bound:
            problems.append(f"level {h}: recorded slack violates its bound")
        prev_after = after
    evaluated = evaluate_total_flow_srpt(inst, asg).total_flow
    if evaluated != total_flow:
        problems.append(f"recorded total_flow {total_flow} != evaluated {evaluated}")
    return problems
