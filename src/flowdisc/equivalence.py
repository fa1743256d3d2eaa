"""Two-way translation between max flow time and one-sided interval discrepancy.

A two-sparse balancing vector (one entry +p1, one entry -p2, both in
[0, 1/2]) becomes one time step of a scheduling instance: a "special" job
that can run on either of its two machines, plus one pinned filler job per
machine sized so every machine receives exactly volume 1 per step under the
half-split fractional solution.  Integral schedules of the instance then
induce sign patterns whose one-sided interval discrepancy is bounded by the
schedule's max flow time, via an exact per-slot identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .coloring import ONE_SIDED, SignedVectorSequence, color_brute_force, discrepancy
from .core import Job, MachineAssignment, SchedulingInstance, evaluate_max_flow
from .util import InternalCheckError, ValidationError


@dataclass(frozen=True)
class TwoSparseVector:
    """v with v[i1] = p1 and v[i2] = -p2, both magnitudes in [0, 1/2]."""

    i1: int
    i2: int
    p1: Fraction
    p2: Fraction

    def validate(self, m: int) -> None:
        if not (0 <= self.i1 < m and 0 <= self.i2 < m):
            raise ValidationError(f"coordinates ({self.i1}, {self.i2}) outside [0, {m})")
        if self.i1 == self.i2:
            raise ValidationError("the two coordinates must differ")
        if not (0 <= self.p1 <= Fraction(1, 2) and 0 <= self.p2 <= Fraction(1, 2)):
            raise ValidationError("magnitudes must lie in [0, 1/2]")

    def to_vector(self, m: int) -> list:
        v = [Fraction(0)] * m
        v[self.i1] = Fraction(self.p1)
        v[self.i2] = -Fraction(self.p2)
        return v


def two_sparse(i1: int, i2: int, p1, p2) -> TwoSparseVector:
    return TwoSparseVector(i1=i1, i2=i2, p1=Fraction(p1), p2=Fraction(p2))


def vectors_to_maxflow_instance(vectors: list[TwoSparseVector], m: int) -> SchedulingInstance:
    """One time step per vector: the special job first, then m pinned fillers.

    At step t (released at time t, steps 1..n) the special job costs 2*p1 on
    i1 and 2*p2 on i2; the filler pinned to machine i costs 1 - p1 on i1,
    1 - p2 on i2, and exactly 1 elsewhere.  Splitting each special in half
    loads every machine with exactly volume 1 per step, so the assignment LP
    optimum is exactly 1.
    """
    if not vectors:
        raise ValidationError("the vector sequence is empty")
    jobs = []
    for t, vec in enumerate(vectors, start=1):
        vec.validate(m)
        release = Fraction(t)
        special = [None] * m
        special[vec.i1] = 2 * vec.p1
        special[vec.i2] = 2 * vec.p2
        jobs.append(Job(release=release, proc=tuple(special)))
        for i in range(m):
            proc = [None] * m
            if i == vec.i1:
                proc[i] = 1 - vec.p1
            elif i == vec.i2:
                proc[i] = 1 - vec.p2
            else:
                proc[i] = Fraction(1)
            jobs.append(Job(release=release, proc=tuple(proc)))
    return SchedulingInstance(m=m, jobs=tuple(jobs))


def _special_index(step: int, m: int) -> int:
    return step * (m + 1)


def signs_from_assignment(
    inst: SchedulingInstance, asg: MachineAssignment, vectors: list[TwoSparseVector]
) -> list[int]:
    """Sign per step: +1 when the special job sits on its positive machine.

    The construction satisfies, exactly and per machine and step,
    (assigned volume released at the step) - 1 = sign * v[machine],
    so the one-sided interval discrepancy of the signs is at most the max
    flow value of the assignment.
    """
    m = inst.m
    n = len(vectors)
    if inst.n != n * (m + 1):
        raise ValidationError("instance does not match the vector construction")
    signs = []
    for step, vec in enumerate(vectors):
        machine = asg.assign[_special_index(step, m)]
        if machine == vec.i1:
            signs.append(1)
        elif machine == vec.i2:
            signs.append(-1)
        else:
            raise ValidationError(
                f"special job of step {step + 1} on machine {machine} outside "
                f"{{{vec.i1}, {vec.i2}}}"
            )
    return signs


def slot_identity_violations(
    inst: SchedulingInstance, asg: MachineAssignment,
    vectors: list[TwoSparseVector], signs: list[int],
) -> list[str]:
    """Check the per-(machine, step) identity exactly; empty iff it holds."""
    loads: dict = {}  # (release, machine) -> assigned volume, in one pass over the jobs
    for job, i in zip(inst.jobs, asg.assign):
        loads[job.release, i] = loads.get((job.release, i), 0) + job.proc[i]
    problems = []
    m = inst.m
    for step, vec in enumerate(vectors):
        v = vec.to_vector(m)
        for i in range(m):
            load = loads.get((step + 1, i), Fraction(0))
            if load - 1 != signs[step] * v[i]:
                problems.append(
                    f"step {step + 1} machine {i}: load - 1 = {load - 1} != "
                    f"{signs[step] * v[i]}"
                )
    return problems


def solve_constructed_integrally(
    inst: SchedulingInstance, vectors: list[TwoSparseVector]
) -> tuple[MachineAssignment, Fraction]:
    """Optimal integral assignment by enumerating special-job choices.

    Fillers are pinned; only each step's special job has two options, so the
    search space is 2^n.  Ties resolve to the lexicographically least choice
    vector, making the result deterministic.
    """
    m = inst.m
    n = len(vectors)
    if n > 16:
        raise ValidationError(f"{n} steps exceed the exhaustive limit")
    pinned = []
    for j, job in enumerate(inst.jobs):
        finite = [i for i, p in enumerate(job.proc) if p is not None]
        if len(finite) == 1:
            pinned.append((j, finite[0]))
    best = None
    for choice in itertools.product((0, 1), repeat=n):
        assign = [0] * inst.n
        for j, i in pinned:
            assign[j] = i
        for step, c in enumerate(choice):
            vec = vectors[step]
            assign[_special_index(step, m)] = vec.i1 if c == 0 else vec.i2
        metrics = evaluate_max_flow(inst, MachineAssignment(assign=tuple(assign)))
        key = (metrics.max_flow, choice)
        if best is None or key < best[0]:
            best = (key, tuple(assign))
    (opt_value, _), assign = best
    return MachineAssignment(assign=assign), opt_value


@dataclass
class RoundtripReport:
    opt_value: Fraction
    extracted_signs: list
    extracted_value: Fraction
    brute_signs: list
    brute_value: Fraction


def roundtrip_check(vectors: list[TwoSparseVector], m: int) -> RoundtripReport:
    """Build the instance, solve it integrally, extract signs, and compare the
    one-sided interval discrepancy against the exhaustive optimum."""
    inst = vectors_to_maxflow_instance(vectors, m)
    asg, opt_value = solve_constructed_integrally(inst, vectors)
    signs = signs_from_assignment(inst, asg, vectors)
    bad = slot_identity_violations(inst, asg, vectors, signs)
    if bad:
        raise InternalCheckError("slot identity failed: " + "; ".join(bad))
    seq = SignedVectorSequence(m=m, vectors=[v.to_vector(m) for v in vectors])
    extracted = discrepancy(seq.with_signs(signs), ONE_SIDED).value
    if extracted > opt_value:
        raise InternalCheckError(
            f"extracted one-sided discrepancy {extracted} exceeds the optimum {opt_value}"
        )
    brute_signs = color_brute_force(seq, ONE_SIDED)
    brute_value = discrepancy(seq.with_signs(brute_signs), ONE_SIDED).value
    return RoundtripReport(
        opt_value=opt_value,
        extracted_signs=signs,
        extracted_value=extracted,
        brute_signs=brute_signs,
        brute_value=brute_value,
    )
