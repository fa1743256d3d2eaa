"""Scheduling instances on unrelated machines, exact schedule evaluation, generators.

All times are exact rationals (`fractions.Fraction`).  A processing time of
``None`` means the job cannot run on that machine.  Two evaluators are
provided: non-preemptive first-come-first-served for the max-flow objective,
and preemptive shortest-remaining-processing-time (SRPT) for total flow, run
event to event (equal to SRPT over unit slots on integral times).  Both emit
explicit ``(machine, job, start, end)`` segments, so work conservation is
directly checkable.

Ties (equal releases, equal remaining work) always break by job index, so
every evaluation is deterministic.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lp import LE
from .util import InternalCheckError, ValidationError, int_from_json, list_from_json, rat_from_str, rat_to_str


@dataclass(frozen=True)
class Job:
    """One job: release time plus one processing time per machine (None = forbidden)."""

    release: Fraction
    proc: tuple[Optional[Fraction], ...]


@dataclass(frozen=True)
class SchedulingInstance:
    """Jobs with release times and per-machine processing times.

    The position of a job in ``jobs`` is its canonical index.
    """

    m: int
    jobs: tuple[Job, ...]

    @property
    def n(self) -> int:
        return len(self.jobs)

    def finite_procs(self):
        for j, job in enumerate(self.jobs):
            for i, p in enumerate(job.proc):
                if p is not None:
                    yield j, i, p


@dataclass(frozen=True)
class MachineAssignment:
    """Integral job-to-machine assignment; entry j is a machine index."""

    assign: tuple[int, ...]


@dataclass(frozen=True)
class ScheduleMetrics:
    """Per-job flow times plus aggregates and the explicit processing timeline."""

    per_job_flow: tuple[Fraction, ...]
    max_flow: Fraction
    total_flow: Fraction
    segments: tuple[tuple[int, int, Fraction, Fraction], ...]  # (machine, job, start, end)


def make_instance(m: int, jobs: Sequence[tuple]) -> SchedulingInstance:
    """Convenience constructor: jobs given as ``(release, [p0, p1, ...])`` tuples.

    Processing entries may be int/str/Fraction or None for "cannot run here".
    """
    built = []
    for release, procs in jobs:
        row = tuple(None if p is None else Fraction(p) for p in procs)
        built.append(Job(release=Fraction(release), proc=row))
    return SchedulingInstance(m=m, jobs=tuple(built))


def validate_instance(inst: SchedulingInstance) -> list[str]:
    """Return a list of invariant violations (empty iff the instance is well formed)."""
    problems: list[str] = []
    if inst.m < 1:
        problems.append(f"machine count must be >= 1, got {inst.m}")
    if not inst.jobs:
        problems.append("instance has no jobs")
    for j, job in enumerate(inst.jobs):
        if len(job.proc) != inst.m:
            problems.append(f"job {j}: has {len(job.proc)} processing entries, expected {inst.m}")
            continue
        if job.release < 0:
            problems.append(f"job {j}: negative release time {job.release}")
        finite = [p for p in job.proc if p is not None]
        if not finite:
            problems.append(f"job {j}: no finite processing time on any machine")
        for i, p in enumerate(job.proc):
            if p is not None and p < 0:
                problems.append(f"job {j}: negative processing time {p} on machine {i}")
    return problems


def p_max(inst: SchedulingInstance) -> Fraction:
    """Largest finite processing time."""
    vals = [p for _, _, p in inst.finite_procs()]
    if not vals:
        raise ValidationError("instance has no finite processing times")
    return max(vals)


def worst_window(pairs):
    """Closed window [t1, t2] with the largest load - (t2 - t1), as (excess, t1, t2).

    ``pairs`` are ``(time, load)``; loads at one time add up.  One pass of
    Lindley's recursion W_b = max(W_{b-1} - (t_b - t_{b-1}), 0) + L_b over the
    sorted times: a run restarts when its carry is <= 0, and the answer moves
    only on a strict increase.  Returns None without pairs.
    """
    loads: dict = {}
    for t, load in pairs:
        loads[t] = loads.get(t, 0) + load
    best = run = start = prev = None
    for t in sorted(loads):
        if run is None or run - (t - prev) <= 0:
            run, start = loads[t], t
        else:
            run += loads[t] - (t - prev)
        if best is None or run > best[0]:
            best = (run, start, t)
        prev = t
    return best


def add_carry_rows(lp, tag: str, steps) -> list[str]:
    """Lindley's recursion as LP rows, for ``(load coeffs, width)`` steps in
    time order: step b adds C_b = ``tag[b]`` >= 0 and the row
    C_{b-1} + load_b - C_b <= width_b.  Feasible carries are at least the queue
    carry max(0, max_a sum_{a..b} (load - width)), which is feasible itself,
    so capping C_b caps every window that ends with step b.
    """
    names: list[str] = []
    for b, (coeffs, width) in enumerate(steps):
        carry_in = {names[-1]: 1} if names else {}
        names.append(f"{tag}[{b}]")
        lp.variables.append(names[-1])
        lp.add_constraint({**coeffs, **carry_in, names[-1]: -1}, LE, width)
    return names


def snap_pairs(values: dict, unit, shift_rate=None) -> dict:
    """Pairwise transfers until every value is a multiple of ``unit``.

    Each step takes the first two off-grid keys a, b and moves the smallest
    amount that lands one of them on the grid, either a down and b up or a up
    and b down.  A move costs its amount times ``shift_rate(gain, lose)`` (zero
    without one); the step takes the smaller (cost, amount), a down on a tie.
    Every value stays inside its original grid cell and the total is kept.
    """
    out = dict(values)
    while True:
        off = [key for key, v in out.items() if v % unit != 0]
        if not off:
            return out
        if len(off) < 2:
            raise InternalCheckError(f"{off[0]!r} alone is off the grid of {unit}, so the total is too")
        a, b = off[0], off[1]
        down_a, down_b = out[a] % unit, out[b] % unit
        up = min(unit - down_a, down_b)
        down = min(down_a, unit - down_b)
        cost_up = up * shift_rate(a, b) if shift_rate else 0
        cost_down = down * shift_rate(b, a) if shift_rate else 0
        step = -down if (cost_down, down) <= (cost_up, up) else up
        out[a] += step
        out[b] -= step


def rounding_level(n: int) -> int:
    """ceil(log2 n): the dyadic level at which rounding n jobs starts."""
    return (n - 1).bit_length()


def _check_assignment(inst: SchedulingInstance, asg: MachineAssignment) -> None:
    if len(asg.assign) != inst.n:
        raise ValidationError(f"assignment length {len(asg.assign)} != job count {inst.n}")
    for j, i in enumerate(asg.assign):
        if not 0 <= i < inst.m:
            raise ValidationError(f"job {j} assigned to machine {i} outside [0, {inst.m})")
        if inst.jobs[j].proc[i] is None:
            raise ValidationError(f"job {j} assigned to machine {i} with infinite processing time")


def evaluate_max_flow(inst: SchedulingInstance, asg: MachineAssignment) -> ScheduleMetrics:
    """Run each machine non-preemptively in release order and report flow times.

    Jobs start at max(own release, previous completion); ties in release break
    by job index.
    """
    _check_assignment(inst, asg)
    completion: dict[int, Fraction] = {}
    segments: list[tuple[int, int, Fraction, Fraction]] = []
    for i in range(inst.m):
        queue = sorted(
            (j for j in range(inst.n) if asg.assign[j] == i),
            key=lambda j: (inst.jobs[j].release, j),
        )
        clock = Fraction(0)
        for j in queue:
            start = max(inst.jobs[j].release, clock)
            end = start + inst.jobs[j].proc[i]
            completion[j] = end
            segments.append((i, j, start, end))
            clock = end
    flows = tuple(completion[j] - inst.jobs[j].release for j in range(inst.n))
    return ScheduleMetrics(
        per_job_flow=flows,
        max_flow=max(flows),
        total_flow=sum(flows, Fraction(0)),
        segments=tuple(segments),
    )


def evaluate_total_flow_srpt(inst: SchedulingInstance, asg: MachineAssignment) -> ScheduleMetrics:
    """Preemptive SRPT per machine, run event to event; requires integral times.

    Every release and processing time must be a nonnegative integer.  The
    assigned, released, incomplete job with the least remaining work runs (ties
    by job index).  Its remaining work only shrinks, so it runs until it
    completes or a job is released: per machine the released jobs sit in a
    heap keyed by (remaining, index).  Every event is an integer, so this
    equals SRPT over unit slots.  Zero-length jobs complete at their release.
    """
    _check_assignment(inst, asg)
    for j, job in enumerate(inst.jobs):
        if job.release.denominator != 1:
            raise ValidationError(f"job {j}: SRPT simulation needs integer release, got {job.release}")
        p = job.proc[asg.assign[j]]
        if p.denominator != 1:
            raise ValidationError(f"job {j}: SRPT simulation needs integer processing time, got {p}")

    # every time is an int from here on; Fractions are made only for the result
    release = [int(job.release) for job in inst.jobs]
    completion: list[int] = release[:]  # zero-length jobs complete at their release
    segments: list[list[int]] = []  # [machine, job, start, end]
    for i in range(inst.m):
        arrivals = sorted((release[j], j) for j in range(inst.n)
                          if asg.assign[j] == i and inst.jobs[j].proc[i] > 0)
        heap: list[tuple[int, int]] = []  # (remaining, job) of the released, incomplete jobs
        t = a = 0
        while heap or a < len(arrivals):
            if not heap:
                t = arrivals[a][0]  # idle until the next release
            while a < len(arrivals) and arrivals[a][0] <= t:
                j = arrivals[a][1]
                heapq.heappush(heap, (int(inst.jobs[j].proc[i]), j))
                a += 1
            rem, j = heap[0]
            end = t + rem if a == len(arrivals) else min(t + rem, arrivals[a][0])
            if segments and segments[-1][1] == j and segments[-1][3] == t:
                segments[-1][3] = end  # the same job keeps running past a release
            else:
                segments.append([i, j, t, end])
            if end == t + rem:
                heapq.heappop(heap)
                completion[j] = end
            else:
                heap[0] = (rem - (end - t), j)  # a smaller top key keeps the heap order
            t = end
    flows = tuple(Fraction(c - r) for c, r in zip(completion, release))
    return ScheduleMetrics(
        per_job_flow=flows,
        max_flow=max(flows),
        total_flow=Fraction(sum(c - r for c, r in zip(completion, release))),
        segments=tuple((i, j, Fraction(s0), Fraction(s1)) for i, j, s0, s1 in segments),
    )


def gen_periodic_instance(base: SchedulingInstance, copies: int, period) -> SchedulingInstance:
    """Release `copies` copies of `base` at times period, 2*period, ..., copies*period.

    `base` must have all releases at 0; `period` is the caller-supplied
    optimal makespan of the base instance.
    """
    if copies < 1:
        raise ValidationError(f"copy count must be >= 1, got {copies}")
    period = Fraction(period)
    if period <= 0:
        raise ValidationError(f"period must be positive, got {period}")
    if any(job.release != 0 for job in base.jobs):
        raise ValidationError("base instance must release every job at time 0")
    jobs = []
    for c in range(1, copies + 1):
        for job in base.jobs:
            jobs.append(Job(release=c * period, proc=job.proc))
    return SchedulingInstance(m=base.m, jobs=tuple(jobs))


def gen_random_instance(n, m, p_range, r_range, infinity_prob, seed) -> SchedulingInstance:
    """Deterministic random instance with integer releases and processing times.

    Each p_ij is infinite with probability `infinity_prob`; rows that come out
    all-infinite are resampled so every job keeps at least one finite machine.
    """
    p_lo, p_hi = int(p_range[0]), int(p_range[1])
    r_lo, r_hi = int(r_range[0]), int(r_range[1])
    if n < 1 or m < 1:
        raise ValidationError("need n >= 1 and m >= 1")
    if p_lo < 1 or p_hi < p_lo:
        raise ValidationError(f"bad processing range [{p_lo}, {p_hi}]")
    if r_lo < 0 or r_hi < r_lo:
        raise ValidationError(f"bad release range [{r_lo}, {r_hi}]")
    if not 0 <= infinity_prob < 1:
        raise ValidationError(f"infinity_prob must lie in [0, 1), got {infinity_prob}")
    rng = random.Random(seed)
    jobs = []
    for _ in range(n):
        release = Fraction(rng.randint(r_lo, r_hi))
        while True:
            row = []
            for _ in range(m):
                if rng.random() < infinity_prob:
                    row.append(None)
                else:
                    row.append(Fraction(rng.randint(p_lo, p_hi)))
            if any(p is not None for p in row):
                break
        jobs.append(Job(release=release, proc=tuple(row)))
    return SchedulingInstance(m=m, jobs=tuple(jobs))


def instance_to_json(inst: SchedulingInstance) -> dict:
    return {
        "m": inst.m,
        "jobs": [
            {
                "r": rat_to_str(job.release),
                "p": [None if p is None else rat_to_str(p) for p in job.proc],
            }
            for job in inst.jobs
        ],
    }


def instance_from_json(data: dict) -> SchedulingInstance:
    try:
        m = int_from_json(data["m"])
        raw_jobs = data["jobs"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"instance file missing field: {exc}") from None
    jobs = []
    for idx, row in enumerate(list_from_json(raw_jobs, "instance file: jobs")):
        try:
            release = rat_from_str(row["r"])
            proc = tuple(None if p is None else rat_from_str(p)
                         for p in list_from_json(row["p"], f"instance file: job {idx}: p"))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"instance file: job {idx} malformed: {exc}") from None
        jobs.append(Job(release=release, proc=proc))
    inst = SchedulingInstance(m=m, jobs=tuple(jobs))
    problems = validate_instance(inst)
    if problems:
        raise ValidationError("instance file invalid: " + "; ".join(problems))
    return inst
