import hashlib
import json
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from flowdisc import lp as lpmod
from flowdisc.coloring import (
    COLORERS,
    PREFIX,
    SignedVectorSequence,
    color_brute_force,
    color_greedy,
)
from flowdisc.core import (
    CARRY,
    Job,
    MachineAssignment,
    SchedulingInstance,
    add_carry_rows,
    evaluate_total_flow_srpt,
    gen_random_instance,
    make_instance,
    snap_pairs,
    worst_window,
)
from flowdisc import totalflow
from flowdisc.totalflow import (
    JobSplit,
    TimeIndexedSolution,
    _merge_split_solution,
    _pour,
    _require_integral,
    _split_solution,
    _slot_program,
    aux_cost,
    build_auxiliary_lp,
    build_time_indexed_lp,
    check_result,
    class_index,
    class_scale,
    class_table,
    default_horizon,
    dilate_instance,
    full_round_totalflow,
    integral_assignment,
    measure_alpha,
    normalize_consistent_order,
    pow2,
    quantize_dyadic_time,
    result_to_json,
    round_half_integral_totalflow,
    rounding_vectors,
    schedule_from_integral,
    slot_rate,
    solution_from_lp,
    solution_violations,
    split_jobs_instance,
    ti_cost,
)
from flowdisc.util import InternalCheckError, ValidationError, rat_from_str, rat_to_str


def brute(seq):
    return color_brute_force(seq, PREFIX)


def test_class_index_basics():
    assert [class_index(p) for p in (1, 2, 3, 4, 5, 8, 9, 16)] == [0, 1, 2, 2, 3, 3, 4, 4]
    assert class_index(F(1, 2)) == -1
    assert class_index(F(3, 2)) == 1
    with pytest.raises(ValidationError):
        class_index(0)

    def reference(p):  # the two-loop search the closed form replaced
        k = 0
        while F(2) ** k < p:
            k += 1
        while F(2) ** (k - 1) >= p:
            k -= 1
        return k

    for a in range(1, 301):
        for b in range(1, 41):
            assert class_index(F(a, b)) == reference(F(a, b)), (a, b)


def test_class_scale_and_aux_cost_are_exact():
    for p in (F(1, 2), F(3, 8), 1, 3):
        scale = class_scale(p)
        assert type(scale) in (int, F), (p, scale)
        assert scale == F(2) ** class_index(p)
        inst = make_instance(1, [(0, [p])])
        y = TimeIndexedSolution(horizon=2, entries={(0, 0, 1): F(p)})
        cost = aux_cost(inst, y)
        assert type(cost) is F, (p, cost)
        assert cost == (F(1) / scale + F(1, 2)) * p


def test_slot_rate_is_one_exact_fraction():
    # releases and scales with denominators, scales as ints and as Fractions
    for r in (0, 3, F(1, 3), F(7, 2)):
        for scale in (1, 4, F(3), F(1, 4), F(5, 6), class_scale(F(3, 8))):
            job = make_instance(1, [(r, [1])]).jobs[0]
            for t in range(6):
                rate = totalflow.slot_rate(job, t, scale)
                assert type(rate) is F and rate == (t - F(r)) / scale + F(1, 2), (r, scale, t)


def test_integral_assignment_reads_only_integral_solutions():
    inst = make_instance(2, [(0, [2, 3]), (1, [1, None])])
    y = TimeIndexedSolution(horizon=6, entries={(1, 0, 0): F(3), (0, 1, 2): F(1)})
    assert integral_assignment(inst, y) == MachineAssignment(assign=(1, 0))
    duplicated = {(1, 0, 0): F(3), (0, 0, 3): F(2), (0, 1, 2): F(1)}
    half = {(1, 0, 0): F(3, 2), (0, 1, 2): F(1)}
    missing = {(1, 0, 0): F(3)}
    for entries in (duplicated, half, missing):
        assert integral_assignment(inst, TimeIndexedSolution(horizon=6, entries=entries)) is None


def test_ti_lp_single_unit_job():
    inst = make_instance(1, [(0, [1])])
    lp, H = build_time_indexed_lp(inst)
    sol = lpmod.solve_lp(lp)
    assert sol.objective_value == F(1, 2)


def test_ti_lp_two_unit_jobs():
    inst = make_instance(1, [(0, [1]), (0, [1])])
    lp, _ = build_time_indexed_lp(inst)
    assert lpmod.solve_lp(lp).objective_value == 2


def test_ti_lp_lower_bounds_srpt_exhaustive():
    import itertools

    rng = random.Random(31)
    for trial in range(3):
        inst = gen_random_instance(rng.randint(2, 4), 2, (1, 3), (0, 3), 0.0,
                                   seed=300 + trial)
        lp, _ = build_time_indexed_lp(inst)
        opt = lpmod.solve_lp(lp).objective_value
        best = None
        for assign in itertools.product(range(inst.m), repeat=inst.n):
            met = evaluate_total_flow_srpt(inst, MachineAssignment(assign))
            best = met.total_flow if best is None else min(best, met.total_flow)
        assert opt <= best


def test_aux_lp_alpha_zero_single_job():
    inst = make_instance(1, [(0, [1])])
    lp, _ = build_auxiliary_lp(inst, 0)
    assert lpmod.solve_lp(lp).objective_value == F(1, 2)


def test_aux_objective_between_half_and_full():
    # grouped cost never exceeds the slot-indexed cost and never drops below half
    rng = random.Random(33)
    inst = gen_random_instance(4, 2, (1, 6), (0, 4), 0.0, seed=9)
    lp, H = build_time_indexed_lp(inst)
    sol = lpmod.solve_lp(lp)
    y = solution_from_lp(inst, lp, sol, H)
    assert aux_cost(inst, y) <= ti_cost(inst, y)
    assert aux_cost(inst, y) >= ti_cost(inst, y) / 2


def test_ti_feasible_solutions_fit_aux_at_alpha_zero():
    inst = gen_random_instance(4, 2, (1, 4), (0, 4), 0.0, seed=10)
    lp, H = build_time_indexed_lp(inst)
    y = solution_from_lp(inst, lp, lpmod.solve_lp(lp), H)
    aux, _ = build_auxiliary_lp(inst, 0, horizon=H)
    # each volume moves to the first slot of its event gap
    starts = sorted({0} | {int(job.release) for job in inst.jobs})
    moved = {}
    for (i, j, t), v in y.entries.items():
        key = (i, j, max(s for s in starts if s <= t))
        moved[key] = moved.get(key, F(0)) + v
    moved = TimeIndexedSolution(horizon=H, entries=moved)
    assert set(moved.entries) <= set(aux.variables)
    values = {c: moved.entries.get(label, F(0)) for c, label in enumerate(aux.variables)}
    assert lpmod.check_point(aux, values) == []
    assert aux_cost(inst, moved) <= aux_cost(inst, y)


@pytest.mark.parametrize("key,bad", [((0.7, 0, 2.9), 0.7), ((0, 0, 2.9), 2.9), ((True, 0, 0), True),
                                     ((0, False, 0), False), ((0, 0, "1"), "1")],
                         ids=["float-machine", "float-slot", "bool-machine", "bool-job", "str-slot"])
def test_solution_keys_are_ints_only(key, bad):
    # int() would move the volume: (0.7, 0, 2.9) to (0, 0, 2), (True, 0, 0) to (1, 0, 0)
    with pytest.raises(ValidationError, match=f"got {type(bad).__name__} {bad!r}"):
        TimeIndexedSolution(3, {key: 1})
    assert TimeIndexedSolution(3, {(1, 0, 2): 1}).vol == {(1, 0, 2): 1}


def test_measure_alpha_capacity_obeying_zero():
    inst = make_instance(1, [(0, [1]), (0, [1])])
    y = TimeIndexedSolution(horizon=4, entries={(0, 0, 0): F(1), (0, 1, 1): F(1)})
    assert measure_alpha(y, class_table(inst)).alpha == 0


def test_measure_alpha_forced_overlap():
    inst = make_instance(1, [(0, [1]), (0, [1])])
    y = TimeIndexedSolution(horizon=4, entries={(0, 0, 0): F(1), (0, 1, 0): F(1)})
    rep = measure_alpha(y, class_table(inst))
    assert rep.alpha == 1
    assert rep.witness == (0, 0, 0, 1)
    assert rep.reproduce(y, class_table(inst)) == 1


def test_measure_alpha_consistent_with_feasibility():
    # a solution feasible for the aux LP at alpha0 measures at most alpha0
    inst = gen_random_instance(3, 2, (1, 4), (0, 3), 0.0, seed=11)
    alpha0 = F(1, 2)
    lp, H = build_auxiliary_lp(inst, alpha0)
    sol = lpmod.solve_lp(lp)
    y = solution_from_lp(inst, lp, sol, H)
    assert measure_alpha(y, class_table(inst)).alpha <= alpha0


def _quadratic_auxiliary_lp(inst, alpha, H):
    """Reference auxiliary LP: one window row per (machine, class) and pair of event slots."""
    usable = [(i, j, class_index(job.proc[i])) for j, job in enumerate(inst.jobs)
              for i in range(inst.m) if job.proc[i] is not None]
    slots = {(i, j): range(int(inst.jobs[j].release), H) for i, j, _ in usable}
    lp = lpmod.LinearProgram()
    col = {(i, j, t): lp.add_variable((i, j, t)) for j in range(inst.n) for i in range(inst.m)
           if (i, j) in slots for t in slots[(i, j)]}
    for j, job in enumerate(inst.jobs):
        lp.constraints.append(lpmod.Constraint({col[i, j, t]: 1 / job.proc[i] for i in range(inst.m)
                                                if (i, j) in slots for t in slots[(i, j)]}, lpmod.EQ, 1))
        for i in range(inst.m):
            if (i, j) in slots:
                k = class_index(job.proc[i])
                for t in slots[(i, j)]:
                    lp.objective[col[i, j, t]] = (t - job.release) / F(2) ** k + F(1, 2)
    events = sorted({0, H} | {int(job.release) for job in inst.jobs})
    for i, k in sorted({(i, k) for i, _, k in usable}):
        for a, t1 in enumerate(events):
            for t2 in events[a + 1:]:
                coeffs = {col[i, j, t]: 1 for ii, j, kk in usable if ii == i and kk <= k
                          for t in range(max(t1, int(inst.jobs[j].release)), t2)}
                if coeffs:
                    lp.constraints.append(lpmod.Constraint(coeffs, lpmod.LE, t2 - t1 + alpha * F(2) ** k))
    return lp


def test_aux_carry_rows_match_quadratic_windows(complete_carries, relabel):
    # equal releases, forbidden entries, a third machine that no job can use,
    # and horizons too short for some instances
    from flowdisc.totalflow import default_horizon

    rng = random.Random(47)
    statuses = set()
    for trial in range(30):
        jobs = []
        for _ in range(rng.randint(1, 4)):
            release = jobs[-1][0] if jobs and rng.random() < 0.3 else rng.randint(0, 4)
            proc = [rng.randint(1, 5) if rng.random() < 0.75 else None for _ in range(2)]
            if proc == [None, None]:
                proc[rng.randrange(2)] = rng.randint(1, 5)
            jobs.append((release, proc + [None]))
        inst = make_instance(3, jobs)
        H = rng.choice([default_horizon(inst), max(r for r, _ in jobs) + rng.randint(1, 3)])
        for alpha in (F(0), F(1, 4), F(1)):
            lp, _ = build_auxiliary_lp(inst, alpha, horizon=H)
            ref_lp = _quadratic_auxiliary_lp(inst, alpha, H)
            sol, ref = lpmod.solve_lp(lp), lpmod.solve_lp(ref_lp)
            assert (sol.status, sol.objective_value) == (ref.status, ref.objective_value)
            statuses.add(sol.status)
            if sol.status == lpmod.OPTIMAL:
                # the event-slot optimum, lifted to every slot: 0 off the gap starts
                y = _y_part(lp, sol.values)
                assert set(y) <= set(ref_lp.variables)
                y = {c: y.get(label, F(0)) for c, label in enumerate(ref_lp.variables)}
                assert lpmod.check_point(ref_lp, y) == []
                assert lpmod.check_point(lp, complete_carries(lp, relabel(ref_lp, ref.values, lp))) == []
    assert statuses == {lpmod.OPTIMAL, lpmod.INFEASIBLE}
    with pytest.raises(ValidationError):
        build_auxiliary_lp(inst, F(-1, 4))


def _slot_auxiliary_lp(inst, alpha, horizon=None):
    """Reference auxiliary LP with one y column per (machine, job, slot in [r_j, H))."""
    _require_integral(inst)
    alpha = F(alpha)
    if alpha < 0:
        raise ValidationError(f"slack alpha must be nonnegative, got {alpha}")
    H = default_horizon(inst) if horizon is None else int(horizon)
    lp, col = _slot_program(inst, class_scale, range(H))
    classes = {(i, j): class_index(p) for j, i, p in inst.finite_procs()}
    events = sorted({0, H} | {int(job.release) for job in inst.jobs})
    for i in range(inst.m):
        ks = sorted({k for (ii, _), k in classes.items() if ii == i})
        for k in ks:
            group = [j for j in range(inst.n) if (i, j) in classes and classes[(i, j)] <= k]
            steps = []
            for t1, t2 in zip(events, events[1:]):
                coeffs = {col[i, j, t]: 1 for j in group
                          for t in range(max(t1, int(inst.jobs[j].release)), t2)}
                if coeffs or steps:  # gaps before the group's first release carry nothing
                    steps.append((coeffs, t2 - t1))
            for carry in add_carry_rows(lp, (i, k), steps):
                lp.constraints.append(lpmod.Constraint({carry: 1}, lpmod.LE, alpha * F(2) ** k))
    return lp, H


def _y_part(lp, values):
    """The nonzero y values of a point over `lp`'s columns, by label (i, j, t)."""
    return {lp.variables[c]: x for c, x in values.items() if lp.variables[c][0] != CARRY and x != 0}


def test_event_slot_lp_matches_slot_lp(complete_carries):
    # forbidden entries, equal releases, up to three machines, and horizons
    # too short for some instances
    rng = random.Random(59)
    statuses, same_y = [], 0
    for trial in range(150):
        m = rng.randint(1, 3)
        jobs = []
        for _ in range(rng.randint(1, 4)):
            release = jobs[-1][0] if jobs and rng.random() < 0.3 else rng.randint(0, 6)
            proc = [rng.randint(1, 5) if rng.random() < 0.75 else None for _ in range(m)]
            if all(p is None for p in proc):
                proc[rng.randrange(m)] = rng.randint(1, 5)
            jobs.append((release, proc))
        inst = make_instance(m, jobs)
        H = rng.choice([default_horizon(inst), max(r for r, _ in jobs) + rng.randint(1, 3)])
        starts = sorted({0} | {r for r, _ in jobs})
        for alpha in (F(0), F(1, 4), F(1)):
            lp, _ = build_auxiliary_lp(inst, alpha, horizon=H)
            ref_lp, _ = _slot_auxiliary_lp(inst, alpha, horizon=H)
            sol, ref = lpmod.solve_lp(lp), lpmod.solve_lp(ref_lp)
            assert (sol.status, sol.objective_value) == (ref.status, ref.objective_value)
            statuses.append(sol.status)
            if sol.status != lpmod.OPTIMAL:
                continue
            y, y_ref = _y_part(lp, sol.values), _y_part(ref_lp, ref.values)
            # the slot-LP optimum has no volume off the gap starts
            assert all(t in starts for _, _, t in y_ref)
            lifted = {c: y.get(label, F(0)) for c, label in enumerate(ref_lp.variables) if label[0] != CARRY}
            assert set(y) <= {ref_lp.variables[c] for c in lifted}
            assert lpmod.check_point(ref_lp, complete_carries(ref_lp, lifted)) == []
            lowered = {c: y_ref.get(label, F(0)) for c, label in enumerate(lp.variables) if label[0] != CARRY}
            assert lpmod.check_point(lp, complete_carries(lp, lowered)) == []
            assert y == y_ref
            same_y += 1
    assert set(statuses) == {lpmod.OPTIMAL, lpmod.INFEASIBLE}
    assert same_y == statuses.count(lpmod.OPTIMAL) > 300


def _carry_auxiliary_lp(inst, alpha, H):
    """Reference auxiliary LP in carry form at every alpha: event-gap columns,
    Lindley carry rows per (machine, class) and a cap alpha * 2^k per carry."""
    events = sorted({0, H} | {int(job.release) for job in inst.jobs if job.release < H})
    lp, col = _slot_program(inst, class_scale, events[:-1])
    classes = {(i, j): class_index(p) for j, i, p in inst.finite_procs()}
    for i, k in sorted(set((i, k) for (i, _), k in classes.items())):
        steps = []
        for t1, t2 in zip(events, events[1:]):
            coeffs = {col[i, j, t1]: 1 for (ii, j), kk in classes.items()
                      if ii == i and kk <= k and inst.jobs[j].release <= t1}
            if coeffs or steps:
                steps.append((coeffs, t2 - t1))
        for carry in add_carry_rows(lp, (i, k), steps):
            lp.constraints.append(lpmod.Constraint({carry: 1}, lpmod.LE, alpha * F(2) ** k))
    return lp


def _rows(lp):
    return [(con.coeffs, con.relation, con.rhs) for con in lp.constraints]


def test_aux_lp_at_alpha_zero_has_no_carries():
    # at alpha = 0 each carry row, with its carries pinned to 0 by the caps,
    # is the load of one (machine, class, gap) against the gap's width; at
    # alpha > 0 the carry form stays as it was
    rng = random.Random(83)
    for trial in range(40):
        m = rng.randint(1, 3)
        inst = gen_random_instance(rng.randint(1, 6), m, (1, 8), (0, 8), 0.3, seed=2100 + trial)
        H = rng.choice([default_horizon(inst), max(int(job.release) for job in inst.jobs) + 2])
        for alpha in (F(1, 4), F(1)):
            lp, _ = build_auxiliary_lp(inst, alpha, horizon=H)
            ref = _carry_auxiliary_lp(inst, alpha, H)
            assert lp.variables == ref.variables and lp.objective == ref.objective
            assert _rows(lp) == _rows(ref)
        lp, _ = build_auxiliary_lp(inst, 0, horizon=H)
        ref = _carry_auxiliary_lp(inst, 0, H)
        assert not any(v[0] == CARRY for v in lp.variables)
        assert lp.variables == [v for v in ref.variables if v[0] != CARRY]
        assert lp.objective == ref.objective
        pinned = [({c: x for c, x in coeffs.items() if ref.variables[c][0] != CARRY}, rel, rhs)
                  for coeffs, rel, rhs in _rows(ref)]
        assert _rows(lp) == [row for row in pinned if row[0]]  # the caps read 0 <= 0
        # n completion rows, then one row per (machine, class, gap holding a usable job)
        starts = sorted({0} | {int(job.release) for job in inst.jobs if job.release < H})
        usable = {(i, class_index(p), t) for j, i, p in inst.finite_procs()
                  for t in starts if inst.jobs[j].release <= t}
        groups = {(i, k) for i, k, _ in usable}
        gaps = {(i, k, t) for i, k in groups for ii, kk, t in usable if ii == i and kk <= k}
        assert [rel for _, rel, _ in _rows(lp)] == [lpmod.EQ] * inst.n + [lpmod.LE] * len(gaps)


def test_aux_lp_size_does_not_grow_with_the_horizon():
    inst = make_instance(2, [(0, [1, 2]), (10 ** 6, [3, None])])
    lp, H = build_auxiliary_lp(inst, 0)
    gaps = 2  # [0, 10^6) and [10^6, H)
    assert H > 10 ** 6
    assert sum(v[0] != CARRY for v in lp.variables) <= inst.m * inst.n * gaps
    y, trace = full_round_totalflow(inst, brute)
    assert integral_assignment(inst, y) is not None
    assert check_result(inst, result_to_json(trace)) == []


def test_horizon_at_or_below_a_release_is_infeasible():
    inst = make_instance(1, [(0, [1]), (5, [1]), (7, [1])])
    for H in (5, 6):
        lp, _ = build_auxiliary_lp(inst, 1, horizon=H)
        assert all(v[2] < H for v in lp.variables if v[0] != CARRY)
        assert lpmod.solve_lp(lp).status == lpmod.INFEASIBLE
        ti_lp, _ = build_time_indexed_lp(inst, horizon=H)
        assert lpmod.solve_lp(ti_lp).status == lpmod.INFEASIBLE


def test_full_round_at_roadmap_scale():
    # the auxiliary LP optimum is the same at every optimal vertex
    inst = gen_random_instance(24, 2, (1, 4), (0, 48), 0.2, seed=7)
    _y, trace = full_round_totalflow(inst, color_greedy)
    assert trace.lp_cost == 493
    assert check_result(inst, result_to_json(trace)) == []


def _random_solution(inst, rng, horizon=None):
    from flowdisc.totalflow import default_horizon

    H = horizon or (default_horizon(inst) + 2)
    entries = {}
    for j, job in enumerate(inst.jobs):
        finite = [i for i in range(inst.m) if job.proc[i] is not None]
        placements = rng.randint(1, 3)
        weights = [F(rng.randint(1, 5)) for _ in range(placements)]
        total = sum(weights)
        for w in weights:
            i = rng.choice(finite)
            t = rng.randint(int(job.release), H - 1)
            key = (i, j, t)
            entries[key] = entries.get(key, F(0)) + (w / total) * job.proc[i]
    return TimeIndexedSolution(horizon=H, entries=entries)


def test_measure_alpha_matches_all_slot_windows():
    rng = random.Random(29)
    positive = 0
    for trial in range(30):
        inst = gen_random_instance(rng.randint(1, 5), 2, (1, 6), (0, 4), 0.2, seed=700 + trial)
        y = _random_solution(inst, rng, horizon=rng.randint(6, 24))
        # thinning keeps some solutions within every window's capacity
        scale = rng.choice([F(1), F(1, 4)])
        y = TimeIndexedSolution(y.horizon, {key: v * scale for key, v in y.entries.items()})
        brute_alpha = F(0)
        for i in range(inst.m):
            for k in range(4):
                for t1 in range(y.horizon):
                    for t2 in range(t1 + 1, y.horizon + 1):
                        load = sum((v for (ii, j, t), v in y.entries.items()
                                    if ii == i and t1 <= t < t2 and inst.jobs[j].proc[i] <= 2 ** k),
                                   F(0))
                        brute_alpha = max(brute_alpha, (load - (t2 - t1)) / 2 ** k)
        classes = class_table(inst)
        rep = measure_alpha(y, classes)
        assert rep.alpha == brute_alpha
        assert rep.reproduce(y, classes) == brute_alpha
        positive += brute_alpha > 0
    assert 0 < positive < 30
    # ties: a carry of exactly 0 restarts the window, and a later window of
    # equal overload does not replace the first
    inst = make_instance(1, [(0, [1])] * 4)
    for entries, witness in [({(0, 0, 0): F(1), (0, 1, 1): F(1), (0, 2, 1): F(1)}, (0, 0, 1, 2)),
                             ({(0, 0, 0): F(1), (0, 1, 0): F(1), (0, 2, 5): F(1), (0, 3, 5): F(1)},
                              (0, 0, 0, 1))]:
        rep = measure_alpha(TimeIndexedSolution(horizon=8, entries=entries), class_table(inst))
        assert (rep.alpha, rep.witness) == (1, witness)


def _streams(y):
    """(machine, job) -> that pair's slot-ordered [(slot, volume), ...], the
    Fraction view of ``y.scaled_streams()``."""
    return {pair: [(t, F(x, y.den)) for t, x in stream] for pair, stream in y.scaled_streams().items()}


def test_streams_agree_with_entries():
    rng = random.Random(41)
    for trial in range(20):
        inst = gen_random_instance(rng.randint(1, 5), 3, (1, 6), (0, 4), 0.2, seed=800 + trial)
        y = _random_solution(inst, rng)
        streams = _streams(y)
        assert {(i, j, t): v for (i, j), stream in streams.items() for t, v in stream} == y.entries
        for (i, j), stream in streams.items():
            assert [t for t, _ in stream] == sorted({t for t, _ in stream})
        for i in range(inst.m):
            for j in range(inst.n):
                assert sum((v for _, v in streams.get((i, j), [])), F(0)) == y.job_machine_total(i, j)


def test_slot_objective_and_completion_rows():
    rng = random.Random(43)
    for trial in range(12):
        inst = gen_random_instance(rng.randint(1, 4), 2, (1, 9), (0, 4), 0.2, seed=900 + trial)
        ti_lp, H = build_time_indexed_lp(inst)
        aux_lp, _ = build_auxiliary_lp(inst, F(1, 2))
        gap_starts = sorted({0} | {int(job.release) for job in inst.jobs})
        for lp, scale, slots in [(ti_lp, lambda p: p, range(H)),
                                 (aux_lp, lambda p: 1 << (int(p) - 1).bit_length(), gap_starts)]:
            expected = {}  # y label -> (job, objective, completion coefficient)
            for j, job in enumerate(inst.jobs):
                for i, p in enumerate(job.proc):
                    if p is None:
                        continue
                    for t in slots:
                        if job.release <= t < H:
                            expected[i, j, t] = (j, (t - job.release) / scale(p) + F(1, 2), 1 / p)
            assert [label for label in lp.variables if label[0] != CARRY] == list(expected)
            assert {label: cost for label, (_, cost, _) in expected.items()} == {
                lp.variables[c]: cost for c, cost in lp.objective.items()}
            completion = [con for con in lp.constraints if con.relation == lpmod.EQ]
            assert [({lp.variables[c]: x for c, x in con.coeffs.items()}, con.rhs) for con in completion] == [
                ({name: c for name, (jj, _, c) in expected.items() if jj == j}, 1) for j in range(inst.n)
            ]


def test_normalize_exchange_example():
    inst = make_instance(1, [(0, [2]), (0, [2])])
    y = TimeIndexedSolution(horizon=8, entries={(0, 0, 5): F(2), (0, 1, 3): F(2)})
    z = normalize_consistent_order(JobSplit.whole(inst), y)
    assert z.entries == {(0, 0, 3): F(2), (0, 1, 5): F(2)}


def test_normalize_fixpoint():
    inst = make_instance(1, [(0, [2]), (0, [2])])
    y = TimeIndexedSolution(horizon=8, entries={(0, 0, 1): F(2), (0, 1, 4): F(2)})
    z = normalize_consistent_order(JobSplit.whole(inst), y)
    assert z.entries == y.entries


def test_normalize_preserves_everything_random():
    rng = random.Random(37)
    for trial in range(25):
        inst = gen_random_instance(rng.randint(1, 5), rng.randint(1, 3),
                                   (1, 6), (0, 5), 0.2, seed=400 + trial)
        y = _random_solution(inst, rng)
        assert solution_violations(inst, y) == []
        z = normalize_consistent_order(JobSplit.whole(inst), y)
        assert solution_violations(inst, z) == []
        assert aux_cost(inst, y) == aux_cost(inst, z)
        for i in range(inst.m):
            for j in range(inst.n):
                assert y.job_machine_total(i, j) == z.job_machine_total(i, j)
        classes = class_table(inst)
        assert measure_alpha(y, classes).alpha == measure_alpha(z, classes).alpha
        # consistent order: same-class volume respects the canonical order
        order_rank = {j: (inst.jobs[j].release, j) for j in range(inst.n)}
        by_group = {}
        for (i, j, t), v in z.entries.items():
            k = class_index(inst.jobs[j].proc[i])
            by_group.setdefault((i, k), []).append((t, order_rank[j]))
        for items in by_group.values():
            items.sort()
            ranks = [r for _, r in items]
            assert ranks == sorted(ranks)


def _reference_normalize(inst, y):
    """normalize_consistent_order with its own refill loop (reference)."""
    order = sorted(range(inst.n), key=lambda j: (inst.jobs[j].release, j))
    rank = {j: pos for pos, j in enumerate(order)}
    groups = {}
    for (i, j, t), v in y.entries.items():
        groups.setdefault((i, class_index(inst.jobs[j].proc[i])), []).append((j, t, v))
    entries = {}
    for (i, k), items in sorted(groups.items()):
        slot_vol, job_vol = {}, {}
        for j, t, v in items:
            slot_vol[t] = slot_vol.get(t, F(0)) + v
            job_vol[j] = job_vol.get(j, F(0)) + v
        slots = sorted(slot_vol)
        jobs = sorted(job_vol, key=lambda j: rank[j])
        si = 0
        room = slot_vol[slots[0]] if slots else F(0)
        for j in jobs:
            need = job_vol[j]
            while need > 0:
                if room == 0:
                    si += 1
                    if si >= len(slots):
                        raise InternalCheckError("group refill ran out of slot volume")
                    room = slot_vol[slots[si]]
                take = min(need, room)
                key = (i, j, slots[si])
                entries[key] = entries.get(key, F(0)) + take
                need -= take
                room -= take
    for (i, j, t) in entries:
        if t < inst.jobs[j].release:
            raise InternalCheckError("consistent-order refill placed volume before a release")
    return TimeIndexedSolution(horizon=y.horizon, entries=entries)


def _early_entry(inst, y, rng):
    """y with one entry of a job released after 0 moved to a slot before its
    release, or y itself when no job has such an entry."""
    movable = [(key, v) for key, v in sorted(y.entries.items()) if inst.jobs[key[1]].release > 0]
    if not movable:
        return y
    (i, j, t), v = rng.choice(movable)
    entries = dict(y.entries)
    del entries[i, j, t]
    early = (i, j, rng.randrange(int(inst.jobs[j].release)))
    entries[early] = entries.get(early, F(0)) + v
    return TimeIndexedSolution(y.horizon, entries)


def _reference_split_solution(inst, origin, y, level):
    """_split_solution with its own slicing loop (reference)."""
    scale = 2 ** level
    streams = _streams(y)
    pieces_of = {}
    for piece, j in enumerate(origin):
        pieces_of.setdefault(j, []).append(piece)
    entries = {}
    for j in range(inst.n):
        slots = []
        for i in range(inst.m):
            p = inst.jobs[j].proc[i]
            if p is not None:
                tot = sum((v for _, v in streams.get((i, j), [])), F(0))
                cnt = tot / (p / scale)
                if cnt.denominator != 1:
                    raise ValidationError(f"total on ({i},{j}) = {tot} is not a multiple of p/2^{level}")
                slots.extend([i] * int(cnt))
        if len(slots) != scale:
            raise InternalCheckError(f"job {j}: half-unit count {len(slots)} != {scale}")
        pieces = pieces_of[j]
        holders = {}
        for q in range(scale // 2):
            holders.setdefault(slots[q], []).append(pieces[q])
            holders.setdefault(slots[scale - 1 - q], []).append(pieces[q])
        for i, piece_list in sorted(holders.items()):
            chunk = inst.jobs[j].proc[i] / scale
            stream = streams[(i, j)]
            pos = 0
            t, avail = stream[0]
            for piece in piece_list:
                need = chunk
                while need > 0:
                    if avail == 0:
                        pos += 1
                        if pos >= len(stream):
                            raise InternalCheckError("volume stream exhausted mid-slice")
                        t, avail = stream[pos]
                    take = min(need, avail)
                    key = (i, piece, t)
                    entries[key] = entries.get(key, F(0)) + take
                    need -= take
                    avail -= take
    return TimeIndexedSolution(horizon=y.horizon, entries=entries)


def _random_dyadic_solution(inst, rng, level):
    """Per (machine, job) a multiple of p/2^level, spread over up to three
    slots in random fractional parts."""
    H = default_horizon(inst) + 2
    entries = {}
    for j, job in enumerate(inst.jobs):
        finite = [i for i in range(inst.m) if job.proc[i] is not None]
        counts = dict.fromkeys(finite, 0)
        for _ in range(2 ** level):
            counts[rng.choice(finite)] += 1
        for i, c in counts.items():
            parts = [F(rng.randint(1, 5)) for _ in range(rng.randint(1, 3))] if c else []
            for w in parts:
                key = (i, j, rng.randint(int(job.release), H - 1))
                entries[key] = entries.get(key, F(0)) + w / sum(parts) * c * job.proc[i] / 2 ** level
    return TimeIndexedSolution(horizon=H, entries=entries)


def _fractional_instance(rng):
    """Processing times a/b with b in {1, 2, 3, 4, 8}, so size classes go down
    to -3, and releases that are sometimes fractional."""
    m = rng.randint(1, 3)
    jobs = []
    for _ in range(rng.randint(1, 6)):
        proc = [F(rng.randint(1, 12), rng.choice([1, 2, 3, 4, 8])) if rng.random() < 0.8 else None
                for _ in range(m)]
        if all(p is None for p in proc):
            proc[rng.randrange(m)] = F(1, 2)
        jobs.append((F(rng.randint(0, 12), rng.choice([1, 1, 2, 3])), proc))
    return make_instance(m, jobs)


def _outcome(fn, *args):
    """fn's solution as its entries in order, or its error class and text."""
    try:
        out = fn(*args)
    except (ValidationError, InternalCheckError) as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):  # round_half_integral_totalflow: (solution, D)
        return list(out[0].entries.items()), out[1]
    return list(out.entries.items())


def _pipeline_calls(monkeypatch, name, instances, colorer=color_greedy):
    """The arguments of every call to totalflow.<name> while the pipeline
    runs on ``instances``."""
    calls = []
    real = getattr(totalflow, name)
    monkeypatch.setattr(totalflow, name, lambda *args: calls.append(args) or real(*args))
    for inst in instances:
        full_round_totalflow(inst, colorer)
    monkeypatch.undo()
    return calls


def _record_splits(monkeypatch):
    """A list that collects every `JobSplit` the pipeline makes from now on:
    the whole jobs each split_jobs_instance call reads, and the split it returns."""
    splits = []
    real = totalflow.split_jobs_instance
    monkeypatch.setattr(totalflow, "split_jobs_instance",
                        lambda whole, level: splits.extend([whole, real(whole, level)]) or splits[-1])
    return splits


def test_normalize_matches_reference_refill():
    rng = random.Random(41)
    fractional = early = 0
    for trial in range(90):
        if trial < 60:
            inst = gen_random_instance(rng.randint(1, 6), rng.randint(1, 3),
                                       (1, 9), (0, 6), 0.2, seed=900 + trial)
        else:  # negative size classes
            inst = _fractional_instance(rng)
            inst = make_instance(inst.m, [(int(job.release), job.proc) for job in inst.jobs])
        y = _random_solution(inst, rng)
        if trial % 3 == 2:  # the refill may follow the moved volume before a release
            y = _early_entry(inst, y, rng)
        fractional += any(v.denominator > 1 for v in y.entries.values())
        got = _outcome(normalize_consistent_order, JobSplit.whole(inst), y)
        assert got == _outcome(_reference_normalize, inst, y)
        early += isinstance(got, tuple)
    assert fractional > 30 and early > 5


def test_split_solution_matches_reference_slicing(monkeypatch):
    rng = random.Random(43)
    cases = []
    for trial in range(120):
        # fractional processing times from trial 60 on, so den lacks their denominators
        inst = (gen_random_instance(rng.randint(1, 6), rng.randint(1, 3), (1, 9), (0, 6), 0.2,
                                    seed=1000 + trial) if trial < 60 else _fractional_instance(rng))
        level = rng.randint(1, 3)
        y = _random_dyadic_solution(inst, rng, level)
        if trial % 3 == 1:  # split finer than the grid of y, so den lacks 2^level
            level += rng.randint(1, 2)
        elif trial % 3 == 2 and y.entries:  # one volume off its grid
            key = rng.choice(sorted(y.entries))
            y = TimeIndexedSolution(y.horizon, {**y.entries, key: y.entries[key] + F(1, 7)})
        origin = [j for j in range(inst.n) for _ in range(2 ** (level - 1))]
        cases.append((inst, origin, y, level))
    # and the pipeline's own level inputs
    cases += _pipeline_calls(monkeypatch, "_split_solution",
                             [gen_random_instance(5, 2, (1, 6), (0, 8), 0.2, seed=1100 + trial)
                              for trial in range(6)])
    assert len(cases) > 120 and any(v.denominator > 1 for *_, y, _ in cases for v in y.entries.values())
    lifted = errors = 0
    for inst, origin, y, level in cases:
        got = _outcome(_split_solution, inst, origin, y, level)
        assert got == _outcome(_reference_split_solution, inst, origin, y, level)
        if isinstance(got, list):
            y_split = _split_solution(inst, origin, y, level)
            lifted += y_split.den != y.den
            assert _outcome(_merge_split_solution, origin, y_split) == \
                _outcome(_reference_merge, origin, y_split)
        else:
            errors += 1
    assert lifted > 30 and errors > 20


def _reference_merge(origin, y_split):
    """_merge_split_solution on Fraction volumes (reference)."""
    entries = {}
    for (i, piece, t), v in y_split.entries.items():
        key = (i, origin[piece], t)
        entries[key] = entries.get(key, F(0)) + v
    return TimeIndexedSolution(horizon=y_split.horizon, entries=entries)


def _reference_measure_alpha(inst, y):
    """measure_alpha on Fraction volumes, as (alpha, witness) (reference)."""
    by_machine = {}
    for (i, j, t), v in y.entries.items():
        by_machine.setdefault(i, []).append((class_index(inst.jobs[j].proc[i]), t, v))
    best, best_wit = F(0), None
    for i, items in sorted(by_machine.items()):
        for k in sorted({kk for kk, _, _ in items}):
            excess, t1, t2 = worst_window((t, v) for kk, t, v in items if kk <= k)
            cand = (excess - 1) / F(2) ** k
            if cand > best:
                best, best_wit = cand, (i, k, t1, t2 + 1)
    return best, best_wit


def _reference_aux_cost(inst, y):
    """aux_cost on Fraction volumes, one term per entry (reference)."""
    return sum((((t - inst.jobs[j].release) / F(2) ** class_index(inst.jobs[j].proc[i]) + F(1, 2)) * v
                for (i, j, t), v in y.entries.items()), F(0))


def test_alpha_and_cost_match_fraction_references(monkeypatch):
    rng = random.Random(67)
    cases = []
    for trial in range(150):
        inst = (_fractional_instance(rng) if trial % 2 else
                gen_random_instance(rng.randint(1, 6), rng.randint(1, 3), (1, 9), (0, 6), 0.2,
                                    seed=1200 + trial))
        y = _random_solution(inst, rng, horizon=rng.randint(13, 20))
        scale = rng.choice([F(1), F(1, 4), F(2, 3), F(5)])  # some solutions within every window
        if trial % 4 == 1:  # every class below 0, with as much volume as before
            inst = make_instance(inst.m, [(job.release, [p and p / 16 for p in job.proc])
                                          for job in inst.jobs])
        cases.append((inst, TimeIndexedSolution(y.horizon, {key: v * scale for key, v in y.entries.items()})))
    cases.append((make_instance(1, [(0, [1])]), TimeIndexedSolution(horizon=3)))
    cases = [(inst, y, class_table(inst)) for inst, y in cases]
    # the pipeline's calls, each priced on the instance of the split whose table it reads
    splits = _record_splits(monkeypatch)
    calls = _pipeline_calls(monkeypatch, "measure_alpha",
                            [gen_random_instance(n, 2, (1, 6), (0, 2 * n), 0.2, seed=1300 + n)
                             for n in range(2, 9)])
    for y, classes in calls:
        cases.append((next(split for split in splits if split.classes is classes).instance, y, classes))
    levels = [classes for _, classes in calls if any(classes is split.classes for split in splits[1::2])]
    assert len(levels) > 20 and len(calls) - len(levels) > 20  # a level's pieces, and the whole jobs
    negative = positive = 0
    for inst, y, classes in cases:
        rep = measure_alpha(y, classes)
        assert (rep.alpha, rep.witness) == _reference_measure_alpha(inst, y)
        assert type(rep.alpha) is F
        cost = aux_cost(inst, y)
        assert cost == _reference_aux_cost(inst, y) and type(cost) is F
        negative += rep.witness is not None and rep.witness[1] < 0
        positive += rep.alpha > 0
    assert negative > 10 and positive > 30 and len(cases) - positive > 20


def _fraction_rounding_vectors(inst, split_jobs, half_of):
    """rounding_vectors on Fraction entries (reference): (dim, vectors, (i1, i2) per job)."""
    classes = class_table(inst)
    present = sorted(set(classes.values()))
    class_pos = {k: pos for pos, k in enumerate(present)}
    dim = inst.m * len(present)
    vectors, pos_side = [], []
    for j in split_jobs:
        _, i1, i2 = half_of[j]
        k1, k2 = classes[i1, j], classes[i2, j]
        v = [F(0)] * dim
        v[i1 * len(present) + class_pos[k1]] = inst.jobs[j].proc[i1] / pow2(k1 + 1)
        v[i2 * len(present) + class_pos[k2]] = -inst.jobs[j].proc[i2] / pow2(k2 + 1)
        vectors.append(v)
        pos_side.append((i1, i2))
    return dim, vectors, pos_side


def _reference_round_half(inst, y, colorer):
    """round_half_integral_totalflow on Fraction volumes (reference); D is
    measured by `totalflow.discrepancy`, which a test may patch."""
    ybar = _reference_normalize(inst, y)
    streams = {}
    for (i, j, t), v in sorted(ybar.entries.items()):
        streams.setdefault((i, j), []).append((t, v))
    order = sorted(range(inst.n), key=lambda j: (inst.jobs[j].release, j))
    full, half_of = {}, {}
    for j in range(inst.n):
        tot = [(i, sum((v for _, v in streams.get((i, j), [])), F(0))) for i in range(inst.m)]
        support = [(i, v) for i, v in tot if v != 0]
        p = inst.jobs[j].proc
        if len(support) == 1 and support[0][1] == p[support[0][0]]:
            full[j] = support[0][0]
        elif len(support) == 2 and all(v * 2 == p[i] for i, v in support):
            half_of[j] = (j, support[0][0], support[1][0])
        else:
            raise ValidationError(f"job {j}: totals {support} are not machine-half-integral")
    split_jobs = [j for j in order if j in half_of]
    dim, vectors, pos_side = _fraction_rounding_vectors(inst, split_jobs, half_of)
    signs, achieved = [], F(0)
    if vectors:
        seq = SignedVectorSequence(m=dim, vectors=vectors)
        signs = colorer(seq)
        achieved = totalflow.discrepancy(seq.with_signs(signs), PREFIX).value

    def build(flip):
        entries = {}
        for j, i in full.items():
            entries[(i, j, streams[(i, j)][0][0])] = inst.jobs[j].proc[i]
        for pos, j in enumerate(split_jobs):
            i = pos_side[pos][0] if signs[pos] * flip == 1 else pos_side[pos][1]
            entries[(i, j, streams[(i, j)][0][0])] = inst.jobs[j].proc[i]
        return TimeIndexedSolution(horizon=ybar.horizon, entries=entries)

    y_pos, y_neg = build(1), build(-1)
    chosen = y_pos if _reference_aux_cost(inst, y_pos) <= _reference_aux_cost(inst, y_neg) else y_neg
    alpha_in = _reference_measure_alpha(inst, ybar)[0]
    alpha_out = _reference_measure_alpha(inst, chosen)[0]
    if alpha_out > alpha_in + 4 * achieved + 4:
        raise InternalCheckError(f"rounded slack {alpha_out} exceeds {alpha_in} + 4*{achieved} + 4")
    return chosen, achieved


def _stacked_halves(n):
    """n unit jobs released at 0 on two machines, each half on both in slot 0:
    every piece sent to machine 0 overloads slot 0 by n - 1."""
    inst = make_instance(2, [(0, [1, 1])] * n)
    return inst, TimeIndexedSolution(4, {(i, j, 0): F(1, 2) for j in range(n) for i in range(2)})


def _to_first(seq):
    return [1] * seq.n


def test_round_half_integral_matches_fraction_reference(monkeypatch):
    # plain instances rounded as their level-1 splits (fractional times, so
    # classes below 0, and volumes off the half grid or before a release),
    # levels 1..4 of split dyadic solutions, and the pipeline's own calls:
    # the int level gives the reference's entries, D, alpha and error text,
    # and keeps the input's den; with D forced to 0 and every piece on its
    # first machine, the 4D + 4 slack check refuses the stacked halves
    rng = random.Random(71)
    cases = []
    for trial in range(120):
        inst = (gen_random_instance(rng.randint(1, 6), rng.randint(1, 3), (1, 8), (0, 5), 0.2,
                                    seed=1400 + trial) if trial % 2 else _fractional_instance(rng))
        inst = make_instance(inst.m, [(int(job.release), job.proc) for job in inst.jobs])
        y = (_random_solution(inst, rng) if trial % 4 == 0 else
             _random_half_integral_solution(inst, rng))
        if trial % 10 == 5:
            y = _early_entry(inst, y, rng)
        cases.append((JobSplit.whole(inst), y, brute if trial % 3 else color_greedy))
    for trial in range(80):
        level = 1 + trial % 4
        inst = (_divisible_instance(rng, level) if trial % 2 else
                gen_random_instance(rng.randint(1, 5), rng.randint(2, 3), (1, 4), (0, 5), 0.2, seed=1450 + trial))
        inst = make_instance(inst.m, [(job.release, [p and p * 2 ** (level - 1) for p in job.proc])
                                      for job in inst.jobs]) if trial % 2 == 0 else inst
        split = split_jobs_instance(JobSplit.whole(inst), level)
        y = _split_solution(inst, split.origin, _random_dyadic_solution(inst, rng, level), level)
        cases.append((split, y, color_greedy))
    cases += [args for args in _pipeline_calls(
        monkeypatch, "round_half_integral_totalflow",
        [gen_random_instance(n, 2, (1, 6), (0, 2 * n), 0.2, seed=1500 + n) for n in range(2, 10)])]
    seen = dict.fromkeys(["halves", "early", "split", "negative", "levels", "slack"], 0)
    for force_zero in (False, True):
        if force_zero:
            monkeypatch.setattr(totalflow, "discrepancy", lambda seq, mode: SimpleNamespace(value=F(0)))
            cases = [(JobSplit.whole(inst), y, _to_first) for inst, y in map(_stacked_halves, range(1, 14))]
        for split, y, colorer in cases:
            got = _outcome(round_half_integral_totalflow, split, y, colorer)
            assert got == _outcome(_reference_round_half, split.instance, y, colorer)
            if isinstance(got[0], type):
                seen["slack" if force_zero else "early" if "release" in got[1] else "halves"] += 1
                continue
            out, _ = round_half_integral_totalflow(split, y, colorer)
            assert out.den == y.den
            assert measure_alpha(out, split.classes).alpha == _reference_measure_alpha(split.instance, out)[0]
            seen["split"] += got[1] > 0
            seen["negative"] += min(split.classes.values()) < 0
            seen["levels"] += split.n > len(set(split.origin))
    monkeypatch.undo()
    assert min(seen.values()) >= 5 and seen["halves"] + seen["early"] > 10 and seen["split"] > 40, seen


def test_pipeline_hands_each_level_the_split_class_table(monkeypatch):
    # a piece of p/2^(h-1) is h - 1 classes below its job, so a split shifts
    # its whole jobs' table in place of building one per level: every split
    # the pipeline makes, seeded splits at levels 1..4 of integral and
    # fractional times (negative classes), and splits of splits carry the
    # table of their pieces' own instance
    rng = random.Random(89)
    instances = [gen_random_instance(rng.randint(2, 12), rng.randint(1, 3), (1, rng.randint(1, 8)),
                                     (0, 12), 0.3, seed=2200 + trial) for trial in range(40)]
    splits = _record_splits(monkeypatch)
    calls = _pipeline_calls(monkeypatch, "round_half_integral_totalflow", instances)
    assert len(calls) > 2 * len(instances)  # most instances round on more than one level
    assert {id(split) for split, *_ in calls} <= {id(split) for split in splits}
    seen = dict.fromkeys(["negative", "nested"], 0)
    for trial in range(120):
        level = 1 + trial % 4
        if trial % 2:  # pieces a/b at level + 1, for b odd
            inst = _divisible_instance(rng, level + 1)
        else:
            inst = gen_random_instance(rng.randint(1, 5), rng.randint(1, 3), (1, 4), (0, 6), 0.2, seed=2300 + trial)
            inst = make_instance(inst.m, [(job.release, [p and p * 2 ** level for p in job.proc]) for job in inst.jobs])
        split = split_jobs_instance(JobSplit.whole(inst), level)
        inner = split_jobs_instance(split, 2)  # pieces of pieces: level + 1 of the whole jobs
        assert inner == split_jobs_instance(JobSplit.whole(inst), level + 1)
        splits += [JobSplit.whole(inst), split, inner]
        seen["negative"] += min(inner.classes.values()) < 0
        seen["nested"] += 1
    for split in splits:
        assert split.classes == class_table(split.instance)
    assert min(seen.values()) >= 20, seen


def test_pipeline_builds_two_class_tables_per_run(monkeypatch):
    # one for the auxiliary LP and one for JobSplit.whole, each of an instance
    seen = []
    real = totalflow.class_table
    monkeypatch.setattr(totalflow, "class_table", lambda inst: seen.append(type(inst)) or real(inst))
    rng = random.Random(97)
    for trial in range(12):
        seen.clear()
        inst = gen_random_instance(rng.randint(1, 9), rng.randint(1, 3), (1, 6), (0, 10), 0.2, seed=2400 + trial)
        full_round_totalflow(inst, color_greedy)
        assert seen == [SchedulingInstance, SchedulingInstance], (trial, seen)


def test_pour_fills_in_order_and_rejects_a_short_supply():
    entries = {}
    _pour(entries, 1, [(0, F(1, 2)), (3, F(2))], [(7, F(1)), (4, F(1, 3))])
    assert entries == {(1, 7, 0): F(1, 2), (1, 7, 3): F(1, 2), (1, 4, 3): F(1, 3)}
    with pytest.raises(InternalCheckError, match="machine 1: volume supply ran out"):
        _pour({}, 1, [(0, F(1, 2)), (3, F(2))], [(7, F(1)), (4, F(5, 3))])
    with pytest.raises(InternalCheckError):
        _pour({}, 0, [], [(0, F(1, 4))])


def test_split_jobs_identity_level():
    inst = make_instance(2, [(0, [4, 6])])
    split = split_jobs_instance(JobSplit.whole(inst), 1)
    assert split.instance.jobs == inst.jobs and split.origin == [0]


def test_split_jobs_level_two():
    inst = make_instance(2, [(0, [4, 6])])
    split = split_jobs_instance(JobSplit.whole(inst), 2)
    assert split.n == 2 and split.origin == [0, 0] and split.procs == [[2, 3], [2, 3]]
    assert all(job.proc == (F(2), F(3)) for job in split.instance.jobs)


def test_split_jobs_class_shift():
    inst = make_instance(1, [(0, [8])])
    split = split_jobs_instance(JobSplit.whole(inst), 3)  # pieces of size 2
    assert class_index(inst.jobs[0].proc[0]) == 3
    assert all(class_index(job.proc[0]) == 1 for job in split.instance.jobs)
    assert split.classes == {(0, q): 1 for q in range(4)}


def test_split_jobs_divisibility():
    inst = make_instance(1, [(0, [6])])
    with pytest.raises(ValidationError, match="^processing time 6 not divisible by 4$"):
        split_jobs_instance(JobSplit.whole(inst), 3)


def _fraction_split(inst, level):
    """split_jobs_instance on Fraction times (reference): the pieces as an
    instance and their origins.  A piece p/2^(level-1) must be an int over
    S, the lcm of the processing-time denominators, which on integral times
    is p/2^(level-1) integral; and the releases must be ints."""
    if level < 1:
        raise ValidationError("level must be >= 1")
    for j, job in enumerate(inst.jobs):
        if job.release.denominator != 1:
            raise ValidationError(f"job {j}: integer release required, got {job.release}")
    pieces = 2 ** (level - 1)
    S = math.lcm(*(p.denominator for _, _, p in inst.finite_procs()))
    jobs, origin = [], []
    for j, job in enumerate(inst.jobs):
        proc = []
        for p in job.proc:
            if p is None:
                proc.append(None)
            else:
                q = p / pieces
                if (q * S).denominator != 1:
                    raise ValidationError(f"processing time {p} not divisible by {pieces}")
                proc.append(q)
        for _ in range(pieces):
            jobs.append(Job(release=job.release, proc=tuple(proc)))
            origin.append(j)
    return SchedulingInstance(m=inst.m, jobs=tuple(jobs)), origin


def _divisible_instance(rng, level):
    """Times a * 2^(level-1) / b with b odd, so the level's pieces are ints
    over S, S > 1 mostly, and pieces of p < 2^(level-1) fall in classes below 0."""
    m = rng.randint(1, 3)
    jobs = []
    for _ in range(rng.randint(1, 6)):
        proc = [F(rng.randint(1, 6) << (level - 1), rng.choice([1, 3, 5, 9])) if rng.random() < 0.8 else None
                for _ in range(m)]
        if all(p is None for p in proc):
            proc[rng.randrange(m)] = F(1 << (level - 1), 3)
        jobs.append((rng.randint(0, 8), proc))
    return make_instance(m, jobs)


def test_split_matches_fraction_reference():
    # integral and fractional times (S > 1), forbidden machines, m = 1..3 and
    # levels 1..4: the int split's view and origins are the Fraction split's,
    # its order is the pieces' (release, index) order, level 1 keeps the
    # whole jobs, and every refusal has the reference's text
    rng = random.Random(2801)
    seen = dict.fromkeys(["scaled", "split", "divisibility", "release"], 0)
    for trial in range(200):
        level = 1 + trial % 4
        inst = (gen_random_instance(rng.randint(1, 6), rng.randint(1, 3), (1, 9), (0, 6), 0.3, seed=2800 + trial)
                if trial % 3 == 0 else _fractional_instance(rng) if trial % 3 == 1 else _divisible_instance(rng, level))
        late = rng.randrange(inst.n) if trial % 6 == 5 else None  # one release moved off the int grid
        inst = make_instance(inst.m, [(int(job.release) + F(j == late, 2), job.proc)
                                      for j, job in enumerate(inst.jobs)])
        try:
            want = _fraction_split(inst, level)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                split_jobs_instance(JobSplit.whole(inst), level)
            assert str(err.value) == str(exc)
            seen["release" if "release" in str(exc) else "divisibility"] += 1
            continue
        split = split_jobs_instance(JobSplit.whole(inst), level)
        assert (split.instance, split.origin) == want
        assert split.order == sorted(range(split.n), key=lambda q: (want[0].jobs[q].release, q))
        assert level > 1 or split == JobSplit.whole(inst)
        assert split.scale == math.lcm(*(p.denominator for _, _, p in inst.finite_procs()))
        seen["split"] += 1
        seen["scaled"] += split.scale > 1
    assert min(seen.values()) >= 10, seen
    with pytest.raises(ValidationError, match="^level must be >= 1$"):
        split_jobs_instance(JobSplit.whole(make_instance(1, [(0, [1])])), 0)


def test_quantize_time_fixpoint():
    inst = make_instance(2, [(0, [2, 4])])
    y = TimeIndexedSolution(horizon=8, entries={(0, 0, 0): F(1), (1, 0, 3): F(2)})
    q = quantize_dyadic_time(inst, y, 1, class_table(inst))
    assert q.entries == y.entries


def test_quantize_time_two_placement_transfer():
    inst = make_instance(2, [(0, [2, 4])])
    y = TimeIndexedSolution(horizon=10, entries={(0, 0, 0): F(2, 3), (1, 0, 2): F(8, 3)})
    q = quantize_dyadic_time(inst, y, 1, class_table(inst))
    for i in range(2):
        frac = q.job_machine_total(i, 0) / inst.jobs[0].proc[i]
        assert frac % F(1, 2) == 0
    assert solution_violations(inst, q) == []
    assert aux_cost(inst, q) <= aux_cost(inst, y)  # non-increasing direction chosen


def test_quantize_time_alpha_increase_at_most_one():
    rng = random.Random(41)
    for trial in range(15):
        inst = gen_random_instance(rng.randint(1, 5), rng.randint(1, 3),
                                   (1, 6), (0, 5), 0.2, seed=600 + trial)
        y = _random_solution(inst, rng)
        level = max((inst.n - 1).bit_length(), 1)
        classes = class_table(inst)
        q = quantize_dyadic_time(inst, y, level, classes)
        assert solution_violations(inst, q) == []
        unit = F(1, 2 ** level)
        for j in range(inst.n):
            for i in range(inst.m):
                p = inst.jobs[j].proc[i]
                if p is not None:
                    assert (q.job_machine_total(i, j) / p) % unit == 0
        assert measure_alpha(q, classes).alpha <= measure_alpha(y, classes).alpha + 1
        assert aux_cost(inst, q) <= aux_cost(inst, y)


def _fraction_quantize(inst, y, level):
    """quantize_dyadic_time on Fraction streams and rates (reference)."""
    if level < 0:
        raise ValidationError("level must be nonnegative")
    unit = F(1, 2 ** level)
    streams = _streams(y)
    entries = dict(y.entries)
    for j, job in enumerate(inst.jobs):
        machines = [i for i, p in enumerate(job.proc) if p is not None]
        stream = {i: streams.get((i, j), []) for i in machines}
        frac = {i: sum((v for _, v in stream[i]), F(0)) / job.proc[i] for i in machines}
        first = {i: stream[i][0][0] if stream[i] else int(job.release) for i in machines}
        scale = {i: pow2(class_index(job.proc[i])) for i in machines}
        add = {i: slot_rate(job, first[i], scale[i]) * job.proc[i] for i in machines}
        cost = {i: sum((slot_rate(job, t, scale[i]) * v for t, v in stream[i]), F(0))
                for i in machines}
        target = snap_pairs(frac, unit, lambda gain, lose: add[gain] - cost[lose] / frac[lose])
        for i in machines:
            delta = target[i] - frac[i]
            if delta < 0:
                ratio = target[i] / frac[i]
                for t, v in stream[i]:
                    entries[(i, j, t)] = v * ratio
            elif delta > 0:
                key = (i, j, first[i])
                entries[key] = entries.get(key, F(0)) + delta * job.proc[i]
    return TimeIndexedSolution(horizon=y.horizon, entries=entries)


def test_quantize_matches_fraction_reference(monkeypatch):
    # integral and fractional times and releases, negative classes, levels
    # 0..4, a den that is not the lcm of the reduced denominators, totals off
    # the grid, and the pipeline's own calls: the same entries in the same
    # order, the same den, and the same error text
    rng = random.Random(2802)
    cases = []
    for trial in range(160):
        inst = (_fractional_instance(rng) if trial % 2 else
                gen_random_instance(rng.randint(1, 6), rng.randint(1, 3), (1, 9), (0, 6), 0.2, seed=2900 + trial))
        y = _random_solution(inst, rng)
        if trial % 4 == 1:  # the same volumes over a den three times too large
            y = TimeIndexedSolution.scaled(y.horizon, {key: 3 * x for key, x in y.vol.items()}, 3 * y.den)
        elif trial % 8 == 3 and y.entries:  # one volume off its job's grid
            key = rng.choice(sorted(y.entries))
            y = TimeIndexedSolution(y.horizon, {**y.entries, key: y.entries[key] + F(1, 7)})
        cases.append((inst, y, trial % 5, class_table(inst)))
    cases += _pipeline_calls(monkeypatch, "quantize_dyadic_time",
                             [gen_random_instance(n, 2, (1, 6), (0, 2 * n), 0.2, seed=3000 + n) for n in range(2, 12)])
    seen = dict.fromkeys(["changed", "reduced", "refused", "negative"], 0)
    for inst, y, level, classes in cases:
        try:
            want = _fraction_quantize(inst, y, level)
        except InternalCheckError as exc:
            with pytest.raises(InternalCheckError) as err:
                quantize_dyadic_time(inst, y, level, classes)
            assert str(err.value) == str(exc)
            seen["refused"] += 1
            continue
        got = quantize_dyadic_time(inst, y, level, classes)
        assert (list(got.entries.items()), got.den) == (list(want.entries.items()), want.den)
        seen["changed"] += got.entries != y.entries
        seen["reduced"] += got.den < y.den
        seen["negative"] += min(classes.values()) < 0
    assert min(seen.values()) >= 10, seen
    inst = make_instance(1, [(0, [1])])
    with pytest.raises(ValidationError, match="^level must be nonnegative$"):
        quantize_dyadic_time(inst, TimeIndexedSolution(1), -1, class_table(inst))


def _random_half_integral_solution(inst, rng):
    from flowdisc.totalflow import default_horizon

    H = default_horizon(inst) + 4
    entries = {}
    for j, job in enumerate(inst.jobs):
        finite = [i for i in range(inst.m) if job.proc[i] is not None]
        if len(finite) >= 2 and rng.random() < 0.6:
            a, b = rng.sample(finite, 2)
            for i in (a, b):
                t = rng.randint(int(job.release), H - 1)
                key = (i, j, t)
                entries[key] = entries.get(key, F(0)) + job.proc[i] / 2
        else:
            i = rng.choice(finite)
            t1 = rng.randint(int(job.release), H - 1)
            t2 = rng.randint(int(job.release), H - 1)
            entries[(i, j, t1)] = entries.get((i, j, t1), F(0)) + job.proc[i] / 2
            entries[(i, j, t2)] = entries.get((i, j, t2), F(0)) + job.proc[i] / 2
    return TimeIndexedSolution(horizon=H, entries=entries)


def test_rounding_vector_formula():
    # half on machine 0 (p=3, class 2) and machine 1 (p=5, class 3)
    split = JobSplit.whole(make_instance(2, [(0, [3, 5])]))
    seq = rounding_vectors(split, [(0, 0, 1)])
    assert seq.m == 4 and seq.vectors[0].count(F(0)) == seq.m - 2
    assert F(3, 8) in seq.vectors[0]
    assert F(-5, 16) in seq.vectors[0]
    assert sum(abs(x) for x in seq.vectors[0]) <= 1
    # every split of fractional times: the int entries are the Fraction ones
    rng = random.Random(2803)
    for trial in range(60):
        inst = _divisible_instance(rng, 1 + trial % 3)
        split = split_jobs_instance(JobSplit.whole(inst), 1 + trial % 3)
        halves = []  # every piece on two machines: its first and its last finite one
        for j, row in enumerate(split.procs):
            finite = [i for i, p in enumerate(row) if p is not None]
            if len(finite) >= 2:
                halves.append((j, finite[0], finite[-1]))
        seq = rounding_vectors(split, halves)
        _, vectors, _ = _fraction_rounding_vectors(split.instance, [h[0] for h in halves], {h[0]: h for h in halves})
        assert seq.vectors == [tuple(v) for v in vectors]


def test_round_half_integral_examples_and_bounds():
    rng = random.Random(47)
    for trial in range(25):
        inst = gen_random_instance(rng.randint(1, 6), rng.randint(1, 3),
                                   (1, 8), (0, 5), 0.2, seed=700 + trial)
        y = _random_half_integral_solution(inst, rng)
        assert solution_violations(inst, y) == []
        split = JobSplit.whole(inst)  # a plain instance is rounded as its whole jobs
        ybar = normalize_consistent_order(split, y)
        alpha_in = measure_alpha(ybar, split.classes).alpha
        out, d = round_half_integral_totalflow(split, y, brute)
        assert integral_assignment(inst, out) is not None
        assert solution_violations(inst, out) == []
        assert measure_alpha(out, split.classes).alpha <= alpha_in + 4 * d + 4
        # flip fallback: never worse than the earliest-slot compaction
        compact = {}
        for j in range(inst.n):
            for i in range(inst.m):
                tot = ybar.job_machine_total(i, j)
                if tot:
                    t0 = min(t for (ii, jj, t) in ybar.entries if ii == i and jj == j)
                    compact[(i, j, t0)] = tot
        ycomp = TimeIndexedSolution(horizon=y.horizon, entries=compact)
        assert aux_cost(inst, out) <= aux_cost(inst, ycomp)


def test_round_all_integral_compaction_only():
    inst = make_instance(1, [(0, [2]), (1, [2])])
    y = TimeIndexedSolution(horizon=9, entries={(0, 0, 3): F(1), (0, 0, 6): F(1),
                                                (0, 1, 2): F(2)})
    out, d = round_half_integral_totalflow(JobSplit.whole(inst), y, brute)
    assert d == 0
    assert integral_assignment(inst, out) is not None
    assert aux_cost(inst, out) <= aux_cost(inst, y)


def test_full_round_trace_bound_exact():
    rng = random.Random(53)
    inst = gen_random_instance(4, 2, (1, 4), (0, 4), 0.0, seed=77)
    y, trace = full_round_totalflow(inst, brute)
    dinst = dilate_instance(inst, trace.dilation)
    assert integral_assignment(dinst, y) is not None
    assert trace.alpha_quantized <= trace.alpha_initial + 1
    for rec in trace.levels:
        assert rec.alpha_after <= rec.alpha_before + rec.level_bound
    assert trace.alpha_final <= trace.bound_value
    assert measure_alpha(y, class_table(dinst)).alpha == trace.alpha_final
    data = result_to_json(trace)
    assert check_result(inst, data) == []


def _pipeline_result(n=5, seed=11):
    inst = gen_random_instance(n, 2, (1, 4), (0, 2 * n), 0.2, seed=seed)
    _y, trace = full_round_totalflow(inst, color_greedy)
    return inst, trace, result_to_json(trace)


def test_check_result_rejects_a_recorded_slack_above_its_bound():
    inst, _trace, data = _pipeline_result()
    last = data["alpha_levels"][-1]  # h = 1: no later level reads its alpha_after
    over = rat_from_str(last["alpha_before"]) + rat_from_str(last["bound"]) + 1
    last["alpha_after"] = rat_to_str(over)
    assert check_result(inst, data) == ["level 1: recorded slack violates its bound"]


def test_check_result_evaluates_the_instance_as_given():
    inst, trace, data = _pipeline_result()
    assert trace.dilation == 4
    assert trace.total_flow == evaluate_total_flow_srpt(inst, trace.assignment).total_flow
    assert trace.total_flow_dilated == trace.dilation * trace.total_flow
    assert check_result(inst, data) == []
    # the dilated copy's total is not the instance's
    data["total_flow"] = rat_to_str(trace.total_flow_dilated)
    assert check_result(inst, data) == [
        f"recorded total_flow {trace.total_flow_dilated} != evaluated {trace.total_flow}"]


def test_full_round_single_job():
    inst = make_instance(2, [(0, [2, 1])])
    y, trace = full_round_totalflow(inst, brute)
    assert trace.alpha_final == 0
    assert trace.levels == []  # n = 1 needs no levels


def test_schedule_from_integral_single_job():
    inst = make_instance(1, [(0, [4])])
    y = TimeIndexedSolution(horizon=6, entries={(0, 0, 0): F(4)})
    rep = schedule_from_integral(inst, y)
    assert rep.total_flow == 4
    assert rep.ratio >= 1 and rep.restricted_lp_cost > 0


def test_schedule_from_integral_report():
    inst = make_instance(1, [(0, [1]), (0, [1])])
    y = TimeIndexedSolution(horizon=4, entries={(0, 0, 0): F(1), (0, 1, 1): F(1)})
    rep = schedule_from_integral(inst, y)
    assert rep.total_flow == 3
    assert rep.total_flow >= rep.restricted_lp_cost
    assert rep.ratio >= 1


def test_schedule_from_integral_rejects_fractional():
    inst = make_instance(1, [(0, [2])])
    y = TimeIndexedSolution(horizon=4, entries={(0, 0, 0): F(1), (0, 0, 1): F(1)})
    with pytest.raises(ValidationError):
        schedule_from_integral(inst, y)


def _result_digest(cases) -> str:
    """SHA-256 over the pipeline's result files, or the error text a colorer
    ends in (the paired colorer takes +-1 entries only)."""
    digest = hashlib.sha256()
    for inst, name in cases:
        try:
            _y, trace = full_round_totalflow(inst, COLORERS[name])
            out = result_to_json(trace)
        except ValidationError as exc:
            out = {"error": str(exc)}
        digest.update(json.dumps(out, sort_keys=True).encode())
    return digest.hexdigest()


# Digests of the results of the Fraction-volume rounding loop: the int
# volumes must give the same LP costs, D values, slacks, flows and assignments.
def test_pipeline_results_are_pinned():
    cases = [(gen_random_instance(n, 2 + n % 2, (1, 4), (0, 2 * n), 0.2, seed=seed), name)
             for n in range(2, 13) for seed in (n, 100 + n) for name in sorted(COLORERS)]
    assert _result_digest(cases) == "d0106bc2d9e2f9a0b641b07fb94be949fd40b088c39e18d980039bc3f4fdf27c"


@pytest.mark.slow
def test_pipeline_result_is_pinned_at_n96():
    # about 10 s, so it runs only with -m slow
    inst = gen_random_instance(96, 2, (1, 4), (0, 192), 0.2, seed=7)
    assert _result_digest([(inst, "greedy")]) == \
        "c1f2d7d44aa4625eef432bffd122b5282b36f5bad66d600be2b8415fcf137379"
