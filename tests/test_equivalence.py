import random
from fractions import Fraction as F

import pytest

from flowdisc.core import MachineAssignment, evaluate_max_flow
from flowdisc.equivalence import (
    roundtrip_check,
    signs_from_assignment,
    slot_identity_violations,
    solve_constructed_integrally,
    two_sparse,
    vectors_to_maxflow_instance,
)
from flowdisc.maxflow import solve_min_T
from flowdisc.util import ValidationError


def test_construction_example():
    v = two_sparse(0, 1, F(3, 10), F(1, 2))
    inst = vectors_to_maxflow_instance([v], 2)
    assert inst.n == 3
    special, filler0, filler1 = inst.jobs
    assert special.release == 1
    assert special.proc == (F(3, 5), F(1))
    assert filler0.proc == (F(7, 10), None)
    assert filler1.proc == (None, F(1, 2))


def test_construction_degenerate_zero_magnitudes():
    v = two_sparse(0, 1, 0, 0)
    inst = vectors_to_maxflow_instance([v], 2)
    assert inst.jobs[0].proc == (F(0), F(0))
    assert inst.jobs[1].proc == (F(1), None)
    assert inst.jobs[2].proc == (None, F(1))


def test_construction_job_count_and_filler_pinning():
    vecs = [two_sparse(0, 2, F(1, 4), F(1, 8)), two_sparse(1, 0, F(1, 2), F(0))]
    inst = vectors_to_maxflow_instance(vecs, 3)
    assert inst.n == len(vecs) * 4
    for t in range(len(vecs)):
        for j in range(1, 4):
            job = inst.jobs[t * 4 + j]
            assert sum(p is not None for p in job.proc) == 1


def test_construction_rejects_bad_vectors():
    with pytest.raises(ValidationError):
        vectors_to_maxflow_instance([two_sparse(0, 0, F(1, 4), F(1, 4))], 2)
    with pytest.raises(ValidationError):
        vectors_to_maxflow_instance([two_sparse(0, 1, F(3, 4), F(0))], 2)


def test_construction_rejects_an_empty_sequence():
    # an instance with no jobs is rejected by every pipeline downstream
    with pytest.raises(ValidationError):
        vectors_to_maxflow_instance([], 2)


def test_lp_optimum_exactly_one():
    rng = random.Random(9)
    for trial in range(4):
        vecs = []
        for _ in range(rng.randint(1, 3)):
            i1, i2 = rng.sample(range(2), 2)
            vecs.append(two_sparse(i1, i2, F(rng.randint(0, 4), 8), F(rng.randint(0, 4), 8)))
        inst = vectors_to_maxflow_instance(vecs, 2)
        search = solve_min_T(inst)
        assert search.t_star == 1, vecs


def test_half_split_loads_every_machine_exactly_one_per_step():
    vecs = [two_sparse(0, 1, F(1, 4), F(3, 8)), two_sparse(1, 0, F(1, 2), F(1, 8))]
    m = 2
    inst = vectors_to_maxflow_instance(vecs, m)
    for t, vec in enumerate(vecs):
        release = F(t + 1)
        for i in range(m):
            load = F(0)
            for j, job in enumerate(inst.jobs):
                if job.release != release or job.proc[i] is None:
                    continue
                weight = F(1, 2) if j == t * (m + 1) else F(1)  # specials split in half
                load += weight * job.proc[i]
            assert load == 1


def test_sign_extraction_and_identity():
    vecs = [two_sparse(0, 1, F(1, 4), F(3, 8)), two_sparse(1, 0, F(1, 2), F(1, 8))]
    inst = vectors_to_maxflow_instance(vecs, 2)
    asg, opt = solve_constructed_integrally(inst, vecs)
    signs = signs_from_assignment(inst, asg, vecs)
    assert all(s in (-1, 1) for s in signs)
    assert slot_identity_violations(inst, asg, vecs, signs) == []


def test_slot_identity_reports_each_machine_a_wrong_sign_breaks():
    vecs = [two_sparse(0, 1, F(1, 4), F(1, 2)), two_sparse(2, 0, F(1, 2), F(1, 8)),
            two_sparse(1, 2, F(3, 8), F(0))]
    inst = vectors_to_maxflow_instance(vecs, 3)
    asg, _opt = solve_constructed_integrally(inst, vecs)
    signs = signs_from_assignment(inst, asg, vecs)
    assert signs == [1, -1, 1]
    signs[1] = 1  # step 2's special job sits on machine 0, its negative side
    # machine 1 is 0 in step 2's vector, so either sign holds there
    assert slot_identity_violations(inst, asg, vecs, signs) == [
        "step 2 machine 0: load - 1 = 1/8 != -1/8",
        "step 2 machine 2: load - 1 = -1/2 != 1/2",
    ]


def test_sign_extraction_all_positive_side():
    vecs = [two_sparse(0, 1, F(1, 8), F(1, 8))] * 2
    inst = vectors_to_maxflow_instance(vecs, 2)
    assign = []
    for t in range(2):
        assign.append(0)  # special on its positive machine
        assign.extend(i for i in range(2))
    asg = MachineAssignment(tuple(assign))
    signs = signs_from_assignment(inst, asg, vecs)
    assert signs == [1, 1]


def test_extracted_discrepancy_bounded_by_opt():
    rng = random.Random(29)
    for trial in range(6):
        n = rng.randint(1, 3)
        vecs = []
        for _ in range(n):
            i1, i2 = rng.sample(range(2), 2)
            vecs.append(two_sparse(i1, i2, F(rng.randint(0, 4), 8), F(rng.randint(0, 4), 8)))
        rep = roundtrip_check(vecs, 2)
        assert rep.extracted_value <= rep.opt_value
        assert rep.brute_value <= rep.extracted_value


def test_roundtrip_zero_vectors():
    vecs = [two_sparse(0, 1, 0, 0)] * 2
    rep = roundtrip_check(vecs, 2)
    assert rep.brute_value == 0
    assert rep.extracted_value <= rep.opt_value


def test_integral_solution_respects_interval_constraints_at_opt():
    vecs = [two_sparse(0, 1, F(1, 2), F(1, 2))] * 3
    inst = vectors_to_maxflow_instance(vecs, 2)
    asg, opt = solve_constructed_integrally(inst, vecs)
    met = evaluate_max_flow(inst, asg)
    assert met.max_flow == opt
