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
    multiple of S 2^h, for the run's `JobSplit` scale S, so p*den/2^h is an
    int;
  - a whole p of a rounded job, where p*den is an int because the job's
    volume on that machine was p or p/2 before.
The class table is built once per run, by `JobSplit.whole`, and a level's
split shifts it: a piece of p/2^(h-1) sits h - 1 classes below p.  A level
reads its `JobSplit` (releases, processing times and classes as ints) and
groups, places and colors on ints.

Fractions appear only at the edges.  Past the intake, which reads the
instance's numerators once it is checked integral, a run makes one for:
  - each time of the dilated instance;
  - each LP coefficient (the slot prices and the completion coefficients
    1/p) and the slack the LP is built at;
  - each LP solution value and the LP's optimum, ``lp_cost``;
  - each reported value: every measured slack alpha, each level's D and
    bound, the telescoped bound, the two flip costs of a level, and the
    SRPT metrics;
  - in `check_result`, each parsed field and each level's recomputed bound.
Everything in between, the quantization, the splits, the slack checks and
the bound sum, adds and compares ints over an explicit scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional

from . import lp as lpmod
from .coloring import PREFIX, SignedVectorSequence, discrepancy
from .core import (
    CARRY,
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
from .util import (InternalCheckError, ValidationError, common_scale, exact, exact_fraction, int_from_json,
                   list_from_json, rat_from_str, rat_to_str, scaled, scaled_list)


def class_index(p) -> int:
    """Smallest k with p <= 2^k, i.e. the size class holding p (k=0 for p=1)."""
    p = exact(p)
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
        values = {(int_from_json(i), int_from_json(j), int_from_json(t)): exact_fraction(v)
                  for (i, j, t), v in (entries or {}).items()}
        self.horizon = horizon
        self.den = den = common_scale(values.values())
        self.vol = {key: scaled(v, den) for key, v in values.items() if v}

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
    top = max(job.release.numerator // job.release.denominator for job in inst.jobs)
    work = sum(min(p.numerator // p.denominator for p in job.proc if p is not None) for job in inst.jobs)
    return top + work


def _require_integral(inst: SchedulingInstance) -> None:
    for j, job in enumerate(inst.jobs):
        if job.release.denominator != 1:
            raise ValidationError(f"job {j}: integer release required, got {job.release}")
        for p in job.proc:
            if p is not None and (p.denominator != 1 or p.numerator < 1):
                raise ValidationError(f"job {j}: positive integer processing times required")


def slot_rate(job: Job, t: int, scale) -> Fraction:
    """Cost of one unit of the job's volume in slot t: (t - r)/scale + 1/2.

    Every LP objective and every cost rate reads its price here.  With
    r = a/b and scale = c/d (an int or a Fraction), the price is
    (2(tb - a)d + bc) / (2bc), made as one Fraction from ints.
    """
    a, b = job.release.numerator, job.release.denominator
    c, d = scale.numerator, scale.denominator
    return Fraction(2 * (t * b - a) * d + b * c, 2 * b * c)


def _slot_program(inst: SchedulingInstance, scale: Callable, slots) -> tuple:
    """The y columns, labelled ``(i, j, t)``, of every usable (machine, job,
    slot), where a job uses the candidate ``slots`` at or after its release,
    one completion row per job (sum y/p = 1) and the objective
    slot_rate(job, t, scale(p)).  Returns (LinearProgram, label -> column)."""
    lp = lpmod.LinearProgram()
    for j, job in enumerate(inst.jobs):
        coeffs = {}
        release = job.release.numerator  # an int: the builders check the instance integral first
        mine = [t for t in slots if t >= release]
        for i, p in enumerate(job.proc):
            if p is None:
                continue
            per, inv = scale(p), 1 / p
            for t in mine:
                col = lp.add_variable((i, j, t))
                lp.objective[col] = slot_rate(job, t, per)
                coeffs[col] = inv
        lp.constraints.append(lpmod.Constraint(coeffs, lpmod.EQ, 1))
    return lp, dict(zip(lp.variables, range(len(lp.variables))))


def build_time_indexed_lp(inst: SchedulingInstance, horizon: Optional[int] = None) -> tuple:
    """Slot-indexed LP: objective sum((t - r)/p + 1/2) y, unit slot capacity.

    Returns (LinearProgram, horizon).  Infeasibility certifies a too-small
    horizon.
    """
    _require_integral(inst)
    H = default_horizon(inst) if horizon is None else int(horizon)
    lp, col = _slot_program(inst, lambda p: p, range(H))
    release = [job.release.numerator for job in inst.jobs]
    for i in range(inst.m):
        for t in range(H):
            coeffs = {}
            for j, job in enumerate(inst.jobs):
                if job.proc[i] is not None and release[j] <= t:
                    coeffs[col[i, j, t]] = 1
            if coeffs:
                lp.constraints.append(lpmod.Constraint(coeffs, lpmod.LE, 1))
    return lp, H


def _event_slots(inst: SchedulingInstance, H: int) -> list[int]:
    """0, the releases below H and H itself, sorted: the ends of the event gaps
    (the releases are ints)."""
    return sorted({0, H, *(job.release.numerator for job in inst.jobs if job.release.numerator < H)})


def class_scale(p):
    """2^k for the size class k of p: the time scale of the grouped objective."""
    return pow2(class_index(p))


def class_table(inst: SchedulingInstance) -> dict:
    """(machine, job) -> size class of its finite processing time.  A run
    builds one for its LP and one for its `JobSplit`, which carries it."""
    return {(i, j): class_index(p) for j, i, p in inst.finite_procs()}


def build_auxiliary_lp(inst: SchedulingInstance, alpha, horizon: Optional[int] = None) -> tuple:
    """Class-grouped LP: objective sum((t - r)/2^k + 1/2) y and window capacity
    per (machine, class k, event window [t1, t2)) with slack alpha * 2^k.

    The events are 0, the releases and the horizon H; consecutive events
    bound the event gaps.  There is one y column per (machine, job, event gap
    [t1, t2) with r_j <= t1), labelled (i, j, t1) after the gap's first slot, so
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
    alpha = exact_fraction(alpha)
    if alpha < 0:
        raise ValidationError(f"slack alpha must be nonnegative, got {alpha}")
    H = default_horizon(inst) if horizon is None else int(horizon)
    events = _event_slots(inst, H)
    lp, col = _slot_program(inst, class_scale, events[:-1])
    classes = class_table(inst)
    release = [job.release.numerator for job in inst.jobs]
    for i in range(inst.m):
        ks = sorted({k for (ii, _), k in classes.items() if ii == i})
        for k in ks:
            group = [j for j in range(inst.n) if (i, j) in classes and classes[(i, j)] <= k]
            steps = []
            for t1, t2 in zip(events, events[1:]):
                coeffs = {col[i, j, t1]: 1 for j in group if release[j] <= t1}
                if coeffs or steps:  # gaps before the group's first release carry nothing
                    steps.append((coeffs, t2 - t1))
            if alpha == 0:  # every carry is capped at 0: each step's load fits its gap
                for coeffs, width in steps:
                    lp.constraints.append(lpmod.Constraint(coeffs, lpmod.LE, width))
            else:
                for carry in add_carry_rows(lp, (i, k), steps):
                    lp.constraints.append(lpmod.Constraint({carry: 1}, lpmod.LE, alpha * pow2(k)))
    return lp, H


def solution_from_lp(inst: SchedulingInstance, lp: lpmod.LinearProgram, sol: lpmod.LpSolution,
                     horizon: int) -> TimeIndexedSolution:
    """The nonzero y columns of `lp`'s solution, labelled ``(i, j, t)``, as
    ints over the lcm of their denominators."""
    values = {lp.variables[col]: v for col, v in sol.values.items() if v and lp.variables[col][0] != CARRY}
    den = common_scale(values.values())
    return TimeIndexedSolution.scaled(horizon, dict(zip(values, scaled_list(values.values(), den))), den)


def ti_cost(inst: SchedulingInstance, y: TimeIndexedSolution) -> Fraction:
    return sum((slot_rate(inst.jobs[j], t, inst.jobs[j].proc[i]) * v
                for (i, j, t), v in y.entries.items()), Fraction(0))


def aux_cost(inst: SchedulingInstance, y: TimeIndexedSolution) -> Fraction:
    """Grouped objective: slot_rate(job, t, 2^k) times volume, summed over y."""
    rscale = common_scale(job.release for job in inst.jobs)
    return _grouped_cost(y.vol, y.den, [scaled(job.release, rscale) for job in inst.jobs], rscale, class_table(inst))


def _grouped_cost(vol: dict, den: int, release: list[int], rscale: int, classes: dict) -> Fraction:
    """aux_cost of the volumes x/den in ``vol``, for releases release[j]/rscale:
    sums x*(t - r) per class in ints and makes one Fraction at the end."""
    late: dict = {}  # class -> sum of x * (t - r) * rscale
    total = 0
    for (i, j, t), x in vol.items():
        k = classes[i, j]
        late[k] = late.get(k, 0) + x * (t * rscale - release[j])
        total += x
    # cost = (sum over classes k of late_k / 2^k + total * rscale / 2) / (rscale * den)
    top = max([1, *late])
    num = total * rscale << (top - 1)
    for k, v in late.items():
        num += v << (top - k)
    return Fraction(num, rscale * den << top)


@dataclass(frozen=True)
class AlphaReport:
    alpha: Fraction
    witness: Optional[tuple]  # (machine, class, t1, t2) with window [t1, t2)

    def reproduce(self, y: TimeIndexedSolution, classes: dict) -> Fraction:
        if self.witness is None:
            return Fraction(0)
        i, k, t1, t2 = self.witness
        load = Fraction(0)
        for (ii, j, t), v in y.entries.items():
            if ii == i and t1 <= t < t2 and classes[ii, j] <= k:
                load += v
        excess = load - (t2 - t1)
        return max(Fraction(0), excess / pow2(k))


def measure_alpha(y: TimeIndexedSolution, classes: dict) -> AlphaReport:
    """Exact worst window overload per class: max over (i, k, [t1, t2)) of
    (volume of class-<=k jobs inside the window minus its width) / 2^k,
    floored at zero, for the (machine, job) -> class map ``classes``.

    The maximum is attained with both window endpoints on support slots, so
    one worst_window scan per (machine, class) is exact.  Slot t covers
    [t, t+1): its closed window [t1, t2] is the half-open [t1, t2 + 1).
    The scan runs on times and volumes both scaled by ``den``, which keeps
    every comparison it makes, and a candidate (excess - den)/2^k is kept as
    its int numerator and k, compared by shifting both sides.
    """
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


def normalize_consistent_order(split: JobSplit, y: TimeIndexedSolution) -> TimeIndexedSolution:
    """Reflow each (machine, class) group so a split's pieces run in one order.

    Per group, the per-slot group volumes and the per-piece totals are kept
    and pieces are refilled earliest-first in the split's canonical
    (release, index) order.  Same-class exchanges are free under the grouped
    objective, so cost, per-(i,j) totals and the measured relaxation slack
    are all preserved exactly.
    """
    rank = {j: pos for pos, j in enumerate(split.order)}
    groups: dict[tuple[int, int], list] = {}
    for (i, j, t), x in y.vol.items():
        groups.setdefault((i, split.classes[i, j]), []).append((j, t, x))
    vol: dict = {}
    for (i, k), items in sorted(groups.items()):
        slot_vol: dict[int, int] = {}
        job_vol: dict[int, int] = {}
        for j, t, x in items:
            slot_vol[t] = slot_vol.get(t, 0) + x
            job_vol[j] = job_vol.get(j, 0) + x
        _pour(vol, i, [(t, slot_vol[t]) for t in sorted(slot_vol)],
              [(j, job_vol[j]) for j in sorted(job_vol, key=rank.__getitem__)])
    for (i, j, t) in vol:
        if t < split.releases[j]:
            raise InternalCheckError("consistent-order refill placed volume before a release")
    return TimeIndexedSolution.scaled(y.horizon, vol, y.den)


@dataclass
class JobSplit:
    """Jobs cut into equal consecutive pieces, as ints: a piece has its job's
    release and a share of each processing time, times ``scale`` S, the lcm
    of the processing-time denominators, and ``classes`` holds each finite
    (machine, piece)'s size class.  `instance` is a read-only `Fraction`
    view, built anew on each read."""

    m: int
    scale: int
    releases: list[int]  # piece -> release
    procs: list[list]    # piece -> processing time per machine times S, None where forbidden
    origin: list[int]    # piece -> original job
    order: list[int]     # pieces by (release, index)
    classes: dict        # (machine, piece) -> size class of its processing time

    @classmethod
    def whole(cls, inst: SchedulingInstance) -> JobSplit:
        """Each job as one piece, with ``inst``'s `class_table`; releases must be ints."""
        for j, job in enumerate(inst.jobs):
            if job.release.denominator != 1:
                raise ValidationError(f"job {j}: integer release required, got {job.release}")
        scale = common_scale(p for _, _, p in inst.finite_procs())
        release = [job.release.numerator for job in inst.jobs]
        return cls(m=inst.m, scale=scale, releases=release, procs=[scaled_list(job.proc, scale) for job in inst.jobs],
                   origin=list(range(inst.n)), order=sorted(range(inst.n), key=release.__getitem__),
                   classes=class_table(inst))

    @property
    def n(self) -> int:
        return len(self.releases)

    @property
    def instance(self) -> SchedulingInstance:
        return SchedulingInstance(m=self.m, jobs=tuple(
            Job(release=Fraction(r), proc=tuple(None if p is None else Fraction(p, self.scale) for p in row))
            for r, row in zip(self.releases, self.procs)))


def split_jobs_instance(whole: JobSplit, level: int) -> JobSplit:
    """Split each piece of ``whole`` into 2^(level-1) equal pieces with its
    release, level - 1 size classes below it.  Each new piece must be an int
    over S: on integral times, p divisible by 2^(level-1).  The pipeline
    splits `JobSplit.whole` of its instance, taken once per run, and expands
    its (release, index) order: a piece's own pieces are consecutive and
    share its release."""
    if level < 1:
        raise ValidationError("level must be >= 1")
    pieces = 2 ** (level - 1)
    bad = next((v for row in whole.procs for v in row if v is not None and v % pieces), None)
    if bad is not None:
        raise ValidationError(f"processing time {Fraction(bad, whole.scale)} not divisible by {pieces}")
    rows = [[None if v is None else v // pieces for v in row] for row in whole.procs]

    def expand(values: list) -> list:
        return [v for v in values for _ in range(pieces)]

    return JobSplit(m=whole.m, scale=whole.scale, releases=expand(whole.releases), procs=expand(rows),
                    origin=expand(whole.origin), order=[j * pieces + q for j in whole.order for q in range(pieces)],
                    classes={(i, j * pieces + q): k - (level - 1) for (i, j), k in whole.classes.items()
                             for q in range(pieces)})


def quantize_dyadic_time(
    inst: SchedulingInstance, y: TimeIndexedSolution, level: int, classes: dict
) -> TimeIndexedSolution:
    """Make every per-(machine, job) total a multiple of p_ij / 2^level.

    The completed fractions of each job move pairwise between machines
    (core.snap_pairs) with the direction chosen by exact cost rates, at the
    size classes of the instance's `class_table` ``classes``: adding
    volume lands on the machine's earliest support slot, removal scales the
    machine's volume down proportionally, and the cheaper of the two
    directions is taken (it is never cost-increasing).
    Each (machine, job) changes by one net adjustment below p_ij / 2^level,
    so any class window gains less than n * 2^k / 2^level volume and the
    measured relaxation slack grows by at most 1.

    It runs on ints.  Per job, the completed fractions are ints over
    L = lcm(2^level, den * a_i) for its finite p_i = a_i/b_i, so the grid unit
    1/2^level is L >> level, and the add and remove cost rates are ints over
    the lcm R of their denominators.  Both scales are positive, so every
    comparison snap_pairs makes, its (cost, amount) tie rule too, decides as on
    the rationals.  Shrink ratios and added volumes are reduced int pairs, and
    only the changed keys are rewritten, over the lcm of the reduced
    denominators.  Releases must be nonnegative.
    """
    if level < 0:
        raise ValidationError("level must be nonnegative")
    den = y.den
    streams = y.scaled_streams()
    shrink, grow = [], []  # (stream, machine, job, ratio n, ratio d), ((machine, job, slot), volume n, volume d)
    for j, job in enumerate(inst.jobs):
        a, b = job.release.numerator, job.release.denominator
        procs = {i: (p.numerator, p.denominator) for i, p in enumerate(job.proc) if p is not None}
        L = lcm(1 << level, *(den * pn for pn, _ in procs.values()))
        frac, first, add, remove = {}, {}, {}, {}  # frac over L; rates as (numerator, denominator)
        for i, (pn, pd) in procs.items():
            st = streams.get((i, j), [])
            total = sum(x for _, x in st)
            frac[i] = total * pd * (L // (den * pn))
            first[i] = st[0][0] if st else a // b
            # p times slot_rate(job, t, 2^k) = (2(tb - a)d + bc) / (2bc), 2^k = c/d: at the
            # first slot for added volume, averaged over the stream for removed volume
            k = classes[i, j]
            c, d = 1 << max(k, 0), 1 << max(-k, 0)
            add[i] = (pn * (2 * (first[i] * b - a) * d + b * c), pd * 2 * b * c)
            if total:
                late = sum((t * b - a) * x for t, x in st)
                remove[i] = (pn * (2 * d * late + b * c * total), pd * 2 * b * c * total)
        R = lcm(*(q for _, q in add.values()), *(q for _, q in remove.values()))
        add = {i: v * (R // q) for i, (v, q) in add.items()}
        remove = {i: v * (R // q) for i, (v, q) in remove.items()}
        unit = L >> level
        try:
            target = snap_pairs(frac, unit, lambda gain, lose: add[gain] - remove[lose])
        except InternalCheckError as exc:  # name the grid 1/2^level, not its int unit over L
            text = str(exc).replace(f"grid of {unit},", f"grid of {Fraction(1, 1 << level)},")
            raise InternalCheckError(text) from None
        for i, f in frac.items():
            t = target[i]
            if t < f:
                g = gcd(t, f)
                shrink.append((streams[i, j], i, j, t // g, f // g))
            elif t > f:
                pn, pd = procs[i]
                v, q = (t - f) * pn, L * pd
                g = gcd(v, q)
                grow.append(((i, j, first[i]), v // g, q // g))
    new_den = lcm(den, *(den * q for *_, q in shrink), *(q for *_, q in grow))
    vol = dict(y.vol) if new_den == den else {key: x * (new_den // den) for key, x in y.vol.items()}
    for st, i, j, v, q in shrink:
        mul = v * (new_den // (den * q))
        for t, x in st:
            vol[i, j, t] = x * mul
    for key, v, q in grow:
        vol[key] = vol.get(key, 0) + v * (new_den // q)
    g = gcd(new_den, *vol.values())  # new_den / g is the lcm of the reduced denominators
    return TimeIndexedSolution.scaled(y.horizon, {key: x // g for key, x in vol.items() if x}, new_den // g)


def rounding_vectors(split: JobSplit, halves: list) -> SignedVectorSequence:
    """Balancing vectors over (machine, class) pairs for the half-split pieces.

    ``halves`` lists ``(piece, i1, i2)`` with machines i1 < i2.  Each carries
    +p/2^(k+1) on the lower machine i1's (machine, class) pair and the negated
    counterpart on i2's; entries never exceed 1/2, so l1 norms stay at most 1.
    Over S * 2^e, for e = max(largest class + 1, 0), p/2^(k+1) is p * 2^(e-k-1).
    """
    classes = split.classes
    present = sorted(set(classes.values()))
    class_pos = {k: pos for pos, k in enumerate(present)}
    dim = split.m * len(present)
    e = max(present[-1] + 1, 0)
    vectors = []
    for j, i1, i2 in halves:
        k1, k2 = classes[i1, j], classes[i2, j]
        v = [0] * dim
        v[i1 * len(present) + class_pos[k1]] = split.procs[j][i1] << (e - k1 - 1)
        v[i2 * len(present) + class_pos[k2]] = -(split.procs[j][i2] << (e - k2 - 1))
        vectors.append(v)
    return SignedVectorSequence(m=dim, vectors=vectors, scale=split.scale << e)


def round_half_integral_totalflow(
    split: JobSplit,
    y: TimeIndexedSolution,
    colorer: Callable[[SignedVectorSequence], list[int]],
) -> tuple[TimeIndexedSolution, Fraction]:
    """Round a split's machine-half-integral volumes to an integral solution.

    After consistent ordering, every piece sits on one machine (full) or two
    machines (half each).  Half-split pieces become vectors over (machine,
    class) with entries +-p/2^(k+1); a prefix coloring in the split's order
    picks each piece's machine, volume lands at the earliest slot the piece
    used there, and of the coloring and its global flip the cheaper solution
    (grouped objective) is returned together with the achieved prefix
    discrepancy.  A plain instance is rounded as its `JobSplit.whole`.
    """
    ybar = normalize_consistent_order(split, y)
    den, scale = ybar.den, split.scale
    totals: dict[int, dict] = {}  # piece -> {machine: its volume there}
    first: dict = {}  # (machine, piece) -> the earliest slot it uses there
    for (i, j, t), x in ybar.vol.items():
        row = totals.setdefault(j, {})
        row[i] = row.get(i, 0) + x
        first[i, j] = min(first.get((i, j), t), t)
    full: dict[int, int] = {}
    half_of: dict[int, tuple[int, int, int]] = {}  # piece -> (piece, i1, i2), i1 < i2

    def is_part(p, x: int, halves: int) -> bool:
        """Whether the volume x/den is halves/2 of the processing time p/S."""
        return p is not None and 2 * x * scale == halves * p * den

    for j, p in enumerate(split.procs):
        support = sorted((i, x) for i, x in totals.get(j, {}).items() if x != 0)
        if len(support) == 1 and is_part(p[support[0][0]], support[0][1], 2):
            full[j] = support[0][0]
        elif len(support) == 2 and all(is_part(p[i], x, 1) for i, x in support):
            half_of[j] = (j, support[0][0], support[1][0])
        else:
            shown = [(i, Fraction(x, den)) for i, x in support]
            raise ValidationError(f"job {j}: totals {shown} are not machine-half-integral")

    halves = [half_of[j] for j in split.order if j in half_of]
    signs, achieved = [], Fraction(0)
    if halves:
        seq = rounding_vectors(split, halves)
        signs = colorer(seq)
        achieved = discrepancy(seq.with_signs(signs), PREFIX).value

    def place(vol: dict, i: int, j: int) -> None:
        """Piece j's whole p, as the int p * den, at its earliest slot on machine i."""
        vol[i, j, first[i, j]] = split.procs[j][i] * den // scale

    def build(flip: int) -> dict:
        vol: dict = {}
        for j, i in full.items():
            place(vol, i, j)
        for (j, plus_i, minus_i), sign in zip(halves, signs):
            place(vol, plus_i if sign * flip == 1 else minus_i, j)
        return vol

    vol_pos, vol_neg = build(1), build(-1)
    cost_pos = _grouped_cost(vol_pos, den, split.releases, 1, split.classes)
    cost_neg = _grouped_cost(vol_neg, den, split.releases, 1, split.classes)
    chosen = TimeIndexedSolution.scaled(ybar.horizon, vol_pos if cost_pos <= cost_neg else vol_neg, den)
    alpha_in = measure_alpha(ybar, split.classes).alpha
    alpha_out = measure_alpha(chosen, split.classes).alpha
    # alpha_out > alpha_in + 4D + 4 for D = a/b, on ints over the lcm of the denominators
    a, b = achieved.numerator, achieved.denominator
    scale = lcm(alpha_in.denominator, alpha_out.denominator, b)
    if scaled(alpha_out, scale) > scaled(alpha_in, scale) + 4 * (a + b) * (scale // b):
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
    """(4 D + 4)/2^(h-1): how far level h >= 1 may raise the slack at
    discrepancy D, made as one Fraction 4(a + b)/(b 2^(h-1)) for D = a/b."""
    if h < 1:
        raise ValidationError(f"slack bound needs a level h >= 1, got {h}")
    d = exact(d)
    return Fraction(4 * (d.numerator + d.denominator), d.denominator << (h - 1))


def _exceeds(x, terms: list) -> bool:
    """Whether the rational x is above the sum of the rationals ``terms``,
    decided on ints over the lcm of all their denominators."""
    scale = common_scale([x, *terms])
    return scaled(x, scale) > sum(scaled(t, scale) for t in terms)


def dilate_instance(inst: SchedulingInstance, factor: int) -> SchedulingInstance:
    """Uniform time dilation: releases and processing times scale together, so
    schedules correspond exactly and metrics divide back by the factor.  Each
    time is one Fraction, made from its ints."""
    def dilate(v: Fraction) -> Fraction:
        return Fraction(v.numerator * factor, v.denominator)

    jobs = tuple(Job(release=dilate(job.release), proc=tuple(None if p is None else dilate(p) for p in job.proc))
                 for job in inst.jobs)
    return SchedulingInstance(m=inst.m, jobs=jobs)


def _split_solution(whole: JobSplit, origin: list[int], y: TimeIndexedSolution, level: int) -> TimeIndexedSolution:
    """Distribute a level-h solution onto the pieces of ``whole``'s jobs, where
    ``origin`` maps each piece to its job.

    Each original (machine, job) total is c half-units of p/2^h; the machine
    half-slots are paired first-with-last per job (the same canonical pairing
    as the assignment pipeline) and the job's time-ordered volume stream on
    each machine is sliced into the corresponding chunks.  The times are
    ``whole``'s ints P over S, so a chunk p/2^h is P * den / (S 2^h) over den.
    """
    scale = 2 ** level
    # lift den so that every chunk p/2^level is an int over it
    den = lcm(y.den, whole.scale << level)
    per = den // (whole.scale << level)  # a chunk is P * per over den
    lift = den // y.den
    streams = y.scaled_streams()
    if lift != 1:
        streams = {pair: [(t, x * lift) for t, x in stream] for pair, stream in streams.items()}
    pieces_of: dict[int, list[int]] = {}
    for piece, j in enumerate(origin):
        pieces_of.setdefault(j, []).append(piece)
    vol: dict = {}
    for j, row in enumerate(whole.procs):
        slots: list[int] = []
        chunk: dict[int, int] = {}
        for i, p in enumerate(row):
            if p is None:
                continue
            tot = sum(x for _, x in streams.get((i, j), []))
            chunk[i] = p * per
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
    y = solution_from_lp(dinst, lp, sol, H)
    lp_cost = sol.objective_value
    jobs = JobSplit.whole(dinst)  # int times, the class table and the canonical order, once per run
    alpha_initial = measure_alpha(y, jobs.classes).alpha
    y = quantize_dyadic_time(dinst, y, level, jobs.classes)
    alpha_quantized = measure_alpha(y, jobs.classes).alpha
    if _exceeds(alpha_quantized, [alpha_initial, 1]):
        raise InternalCheckError(
            f"quantized slack {alpha_quantized} exceeds {alpha_initial} + 1"
        )
    records: list[TotalLevelRecord] = []
    alpha_after = alpha_quantized  # the slack of the current y, measured once
    for h in range(level, 0, -1):
        split = split_jobs_instance(jobs, h)
        y_split = _split_solution(jobs, split.origin, y, h)
        alpha_before = alpha_after
        y_rounded, achieved = round_half_integral_totalflow(split, y_split, colorer)
        y = _merge_split_solution(split.origin, y_rounded)
        alpha_after = measure_alpha(y, jobs.classes).alpha
        level_bound = slack_bound(h, achieved)
        if _exceeds(alpha_after, [alpha_before, level_bound]):
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
    terms = [alpha_initial, 1, *(r.level_bound for r in records)]
    scale = common_scale([alpha_final, *terms])
    top = sum(scaled(t, scale) for t in terms)
    bound = Fraction(top, scale)
    if scaled(alpha_final, scale) > top:
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
    rscale = common_scale(job.release for job in inst.jobs)
    return ScheduleRatioReport(
        assignment=asg,
        total_flow=metrics.total_flow,
        aux_cost=_grouped_cost(y.vol, y.den, [scaled(job.release, rscale) for job in inst.jobs], rscale, classes),
        restricted_lp_cost=sol.objective_value,
        ratio=metrics.total_flow / sol.objective_value if sol.objective_value else Fraction(0),
        alpha=measure_alpha(y, classes).alpha,
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
        if d.numerator < 0:
            return [f"malformed result file: level {h}: negative D {d}"]
    prev_after = None
    for h, d, before, after, bound in levels:
        if bound != slack_bound(h, d):
            problems.append(f"level {h}: recorded bound {bound} != (4D + 4)/2^(h-1) = {slack_bound(h, d)}")
        if prev_after is not None and before != prev_after:
            problems.append(f"level {h}: alpha_before {before} != previous alpha_after {prev_after}")
        if _exceeds(after, [before, bound]):
            problems.append(f"level {h}: recorded slack violates its bound")
        prev_after = after
    evaluated = evaluate_total_flow_srpt(inst, asg).total_flow
    if evaluated != total_flow:
        problems.append(f"recorded total_flow {total_flow} != evaluated {evaluated}")
    return problems
