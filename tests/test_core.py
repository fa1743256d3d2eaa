import json
import random
from fractions import Fraction as F

import pytest

from flowdisc.core import (
    Job,
    MachineAssignment,
    ScheduleMetrics,
    SchedulingInstance,
    evaluate_max_flow,
    evaluate_total_flow_srpt,
    gen_periodic_instance,
    gen_random_instance,
    instance_from_json,
    instance_to_json,
    make_instance,
    p_max,
    snap_pairs,
    validate_instance,
)
from flowdisc.totalflow import dilate_instance
from flowdisc.util import InternalCheckError, ValidationError


def test_validate_well_formed():
    inst = make_instance(2, [(0, [1, 2]), (1, [3, None])])
    assert validate_instance(inst) == []


def test_validate_all_infinite_job():
    inst = SchedulingInstance(m=2, jobs=(Job(F(0), (None, None)),))
    problems = validate_instance(inst)
    assert len(problems) == 1 and "job 0" in problems[0]


def test_validate_negative_release():
    inst = SchedulingInstance(m=1, jobs=(Job(F(-1), (F(2),)),))
    problems = validate_instance(inst)
    assert len(problems) == 1 and "release" in problems[0]


def test_max_flow_fifo_example():
    inst = make_instance(1, [(0, [2]), (1, [2])])
    met = evaluate_max_flow(inst, MachineAssignment((0, 0)))
    assert met.per_job_flow == (F(2), F(3))
    assert met.max_flow == 3


def test_max_flow_single_job():
    inst = make_instance(1, [(5, [3])])
    met = evaluate_max_flow(inst, MachineAssignment((0,)))
    assert met.max_flow == 3


def test_max_flow_two_machines_symmetric():
    inst = make_instance(2, [(0, [1, 1]), (0, [1, 1])])
    met = evaluate_max_flow(inst, MachineAssignment((0, 1)))
    assert met.max_flow == 1


def test_max_flow_rejects_infinite_assignment():
    inst = make_instance(2, [(0, [1, None])])
    with pytest.raises(ValidationError):
        evaluate_max_flow(inst, MachineAssignment((1,)))


def test_srpt_example():
    inst = make_instance(1, [(0, [3]), (1, [1])])
    met = evaluate_total_flow_srpt(inst, MachineAssignment((0, 0)))
    assert met.per_job_flow == (F(4), F(1))
    assert met.total_flow == 5


def test_srpt_single_job():
    inst = make_instance(1, [(0, [4])])
    met = evaluate_total_flow_srpt(inst, MachineAssignment((0,)))
    assert met.total_flow == 4


def test_srpt_two_unit_jobs():
    inst = make_instance(1, [(0, [1]), (0, [1])])
    met = evaluate_total_flow_srpt(inst, MachineAssignment((0, 0)))
    assert met.total_flow == 3


def _reference_srpt(inst, asg):
    """evaluate_total_flow_srpt on Fraction releases, read on every slot (reference)."""
    completion, segments = {}, []
    for i in range(inst.m):
        jobs_here = [j for j in range(inst.n) if asg.assign[j] == i]
        remaining = {j: int(inst.jobs[j].proc[i]) for j in jobs_here}
        for j in jobs_here:
            if remaining[j] == 0:
                completion[j] = inst.jobs[j].release
        pending = {j for j in jobs_here if remaining[j] > 0}
        if not pending:
            continue
        slot_log = []
        t = min(int(inst.jobs[j].release) for j in pending)
        while pending:
            avail = [j for j in pending if int(inst.jobs[j].release) <= t]
            if not avail:
                t = min(int(inst.jobs[j].release) for j in pending)
                continue
            j = min(avail, key=lambda q: (remaining[q], q))
            slot_log.append((t, j))
            remaining[j] -= 1
            if remaining[j] == 0:
                completion[j] = F(t + 1)
                pending.remove(j)
            t += 1
        for t0, j in slot_log:
            if segments and segments[-1][1] == j and segments[-1][0] == i and segments[-1][3] == t0:
                mi, mj, s0, _ = segments[-1]
                segments[-1] = (mi, mj, s0, F(t0 + 1))
            else:
                segments.append((i, j, F(t0), F(t0 + 1)))
    flows = tuple(completion[j] - inst.jobs[j].release for j in range(inst.n))
    return ScheduleMetrics(per_job_flow=flows, max_flow=max(flows),
                           total_flow=sum(flows, F(0)), segments=tuple(segments))


def test_srpt_matches_reference_with_idle_gaps_and_zero_length_jobs():
    rng = random.Random(61)
    gaps = zero = 0
    for trial in range(200):
        m = rng.randint(1, 3)
        jobs = []
        for _ in range(rng.randint(1, 8)):
            proc = [rng.choice([0, 1, 2, 3, 5, None]) for _ in range(m)]
            if all(p is None for p in proc):
                proc[rng.randrange(m)] = rng.randint(0, 3)
            jobs.append((rng.randint(0, 24), proc))
        inst = make_instance(m, jobs)
        asg = MachineAssignment(tuple(rng.choice([i for i, p in enumerate(proc) if p is not None])
                                      for _, proc in jobs))
        met = evaluate_total_flow_srpt(inst, asg)
        assert met == _reference_srpt(inst, asg)
        assert all(type(x) is F for x in met.per_job_flow + (met.max_flow, met.total_flow))
        assert all(type(s0) is F and type(s1) is F for _, _, s0, s1 in met.segments)
        gaps += any(_idle_gaps(met.segments, i) for i in range(m))
        zero += any(jobs[j][1][i] == 0 for j, i in enumerate(asg.assign))
    assert gaps > 50 and zero > 50


def test_srpt_matches_reference_on_long_jobs_and_dense_releases():
    rng = random.Random(71)
    preempted = 0
    for trial in range(150):
        m = rng.randint(1, 3)
        jobs = []
        for _ in range(rng.randint(2, 10)):
            proc = [rng.choice([rng.randint(0, 12), rng.randint(1, 12), None]) for _ in range(m)]
            if all(p is None for p in proc):
                proc[rng.randrange(m)] = rng.randint(1, 12)
            jobs.append((rng.randint(0, 6), proc))
        inst = make_instance(m, jobs)
        asg = MachineAssignment(tuple(rng.choice([i for i, p in enumerate(proc) if p is not None])
                                      for _, proc in jobs))
        met = evaluate_total_flow_srpt(inst, asg)
        assert met == _reference_srpt(inst, asg)
        preempted += len({j for _, j, _, _ in met.segments}) < len(met.segments)
    assert preempted > 50


def test_srpt_scales_with_time_dilation():
    rng = random.Random(73)
    for trial in range(40):
        inst = gen_random_instance(rng.randint(1, 8), rng.randint(1, 3), (1, 6), (0, 8), 0.2,
                                   seed=300 + trial)
        asg = MachineAssignment(tuple(
            rng.choice([i for i, p in enumerate(job.proc) if p is not None]) for job in inst.jobs))
        met = evaluate_total_flow_srpt(inst, asg)
        for d in (2, 4, 8):
            dilated = evaluate_total_flow_srpt(dilate_instance(inst, d), asg)
            assert dilated.per_job_flow == tuple(d * f for f in met.per_job_flow)
            assert (dilated.max_flow, dilated.total_flow) == (d * met.max_flow, d * met.total_flow)
            assert dilated.segments == tuple((i, j, d * s0, d * s1) for i, j, s0, s1 in met.segments)


def test_srpt_work_does_not_grow_with_the_time_scale():
    # one event per release and completion: a unit-slot loop would take 10^12 steps
    big = 10 ** 12
    inst = make_instance(1, [(0, [big]), (5, [1]), (2 * big, [3])])
    met = evaluate_total_flow_srpt(inst, MachineAssignment((0, 0, 0)))
    assert met.per_job_flow == (F(big + 1), F(1), F(3))
    assert met.segments == ((0, 0, F(0), F(5)), (0, 1, F(5), F(6)), (0, 0, F(6), F(big + 1)),
                            (0, 2, F(2 * big), F(2 * big + 3)))


def _idle_gaps(segments, machine):
    segs = sorted((s for s in segments if s[0] == machine), key=lambda s: s[2])
    gaps = []
    for a, b in zip(segs, segs[1:]):
        if b[2] > a[3]:
            gaps.append((a[3], b[2]))
    return gaps


def _assert_work_conserving(inst, asg, met):
    completion = {j: inst.jobs[j].release + met.per_job_flow[j] for j in range(inst.n)}
    for i in range(inst.m):
        for g0, g1 in _idle_gaps(met.segments, i):
            for j in range(inst.n):
                if asg.assign[j] != i:
                    continue
                lo = max(inst.jobs[j].release, g0)
                hi = min(completion[j], g1)
                assert lo >= hi, f"machine {i} idle in ({g0},{g1}) while job {j} available"


def test_work_conservation_random():
    rng = random.Random(9)
    for trial in range(15):
        inst = gen_random_instance(rng.randint(1, 7), rng.randint(1, 3),
                                   (1, 5), (0, 8), 0.2, seed=trial)
        assign = tuple(
            rng.choice([i for i in range(inst.m) if inst.jobs[j].proc[i] is not None])
            for j in range(inst.n)
        )
        asg = MachineAssignment(assign)
        for evaluate in (evaluate_max_flow, evaluate_total_flow_srpt):
            met = evaluate(inst, asg)
            _assert_work_conserving(inst, asg, met)
            # flow lower bounds
            assert met.max_flow >= max(inst.jobs[j].proc[asg.assign[j]] for j in range(inst.n))
            assert met.total_flow >= sum(
                (inst.jobs[j].proc[asg.assign[j]] for j in range(inst.n)), F(0))


def test_srpt_never_beats_fifo_at_total_flow():
    rng = random.Random(4)
    for trial in range(20):
        inst = gen_random_instance(rng.randint(1, 7), 1, (1, 5), (0, 10), 0.0, seed=100 + trial)
        asg = MachineAssignment((0,) * inst.n)
        fifo = evaluate_max_flow(inst, asg)
        srpt = evaluate_total_flow_srpt(inst, asg)
        assert srpt.total_flow <= fifo.total_flow


def test_periodic_instance_releases():
    base = make_instance(2, [(0, [1, 1]), (0, [2, 2])])
    out = gen_periodic_instance(base, 3, period=F(4))
    assert out.n == 6
    assert [job.release for job in out.jobs] == [F(4), F(4), F(8), F(8), F(12), F(12)]


def test_periodic_single_copy():
    base = make_instance(1, [(0, [2])])
    out = gen_periodic_instance(base, 1, period=F(2))
    assert out.n == 1 and out.jobs[0].release == 2


def test_periodic_zero_copies_rejected():
    base = make_instance(1, [(0, [2])])
    with pytest.raises(ValidationError):
        gen_periodic_instance(base, 0, period=F(2))


def test_gen_random_deterministic():
    a = gen_random_instance(5, 2, (1, 4), (0, 10), 0.3, seed=7)
    b = gen_random_instance(5, 2, (1, 4), (0, 10), 0.3, seed=7)
    assert a == b


def test_gen_random_no_infinities_when_prob_zero():
    inst = gen_random_instance(6, 3, (1, 4), (0, 5), 0.0, seed=1)
    assert all(p is not None for job in inst.jobs for p in job.proc)


def test_gen_random_degenerate():
    inst = gen_random_instance(1, 1, (1, 1), (0, 0), 0.0, seed=0)
    assert inst.n == 1 and inst.jobs[0].proc == (F(1),)


def test_gen_random_every_job_has_finite_machine():
    inst = gen_random_instance(20, 3, (1, 4), (0, 5), 0.8, seed=3)
    assert validate_instance(inst) == []


def test_instance_json_roundtrip_bit_exact():
    inst = make_instance(3, [(F(1, 3), [F(7, 2), None, 1]), (2, [None, F(5), F(9, 4)])])
    blob = json.dumps(instance_to_json(inst), sort_keys=True)
    again = instance_from_json(json.loads(blob))
    assert again == inst
    assert json.dumps(instance_to_json(again), sort_keys=True) == blob


def test_instance_json_rejects_garbage():
    with pytest.raises(ValidationError):
        instance_from_json({"m": 1, "jobs": [{"r": "x", "p": ["1/1"]}]})
    with pytest.raises(ValidationError):
        instance_from_json({"jobs": []})


def test_p_max():
    inst = make_instance(2, [(0, [3, None]), (0, [1, 7])])
    assert p_max(inst) == 7


def test_snap_pairs_tie_rule_and_rates():
    unit = F(1, 4)
    # equal margins of 1/8 either way: the earlier value moves down
    assert snap_pairs({"a": F(1, 8), "b": F(7, 8)}, unit) == {"a": 0, "b": 1}
    # at no cost the smaller amount wins (a down by 1/16, not up by 3/16)
    assert snap_pairs({"a": F(1, 16), "b": F(3, 16)}, unit) == {"a": 0, "b": F(1, 4)}
    # a rate that charges b for gaining makes a up the cheaper move
    def charge_b(gain, lose):
        return 1 if gain == "b" else 0
    assert snap_pairs({"a": F(1, 8), "b": F(7, 8)}, unit, charge_b) == {"a": F(1, 4), "b": F(3, 4)}
    assert snap_pairs({"a": F(1, 16), "b": F(3, 16)}, unit, charge_b) == {"a": F(1, 4), "b": 0}
    # on-grid values are never touched; the order of the off-grid keys decides
    snapped = snap_pairs({"z": F(1, 2), "b": F(3, 8), "a": F(5, 8)}, unit)
    assert snapped == {"z": F(1, 2), "b": F(1, 4), "a": F(3, 4)}


def test_snap_pairs_single_off_grid_value():
    with pytest.raises(InternalCheckError):
        snap_pairs({0: F(1, 8), 1: F(1, 2)}, F(1, 4))
    with pytest.raises(InternalCheckError):
        snap_pairs({0: F(1, 3)}, F(1, 2))


def test_snap_pairs_keeps_cells_and_total_random():
    rng = random.Random(17)
    for trial in range(300):
        unit = F(1, 2 ** rng.randint(0, 4))
        keys = [(trial, q) for q in range(rng.randint(1, 6))]
        values = {key: F(rng.randint(0, 48), rng.choice([1, 2, 3, 6, 16, 24, 32])) for key in keys[:-1]}
        rest = sum(values.values(), F(0))
        values[keys[-1]] = unit * (-(-rest // unit) + rng.randint(0, 4)) - rest  # total on the grid
        rates = {key: F(rng.randint(-3, 3), rng.randint(1, 4)) for key in keys}
        shift_rate = rng.choice([None, lambda gain, lose: rates[gain] - rates[lose]])
        out = snap_pairs(values, unit, shift_rate)
        assert list(out) == keys
        assert sum(out.values(), F(0)) == sum(values.values(), F(0))
        for key, v in values.items():
            low = v - v % unit
            assert out[key] % unit == 0 and low <= out[key] <= low + unit
            if v == low:
                assert out[key] == v
