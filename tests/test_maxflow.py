import dataclasses
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction as F
from math import lcm
from types import SimpleNamespace

import pytest

from flowdisc import lp as lpmod
from flowdisc import maxflow
from flowdisc.cli import main
from flowdisc.coloring import COLORERS, PREFIX, color_brute_force, color_greedy
from flowdisc.core import (
    Job,
    MachineAssignment,
    SchedulingInstance,
    evaluate_max_flow,
    gen_periodic_instance,
    gen_random_instance,
    instance_to_json,
    make_instance,
    p_max,
    worst_window,
)
from flowdisc.maxflow import (
    FractionalAssignment,
    build_assignment_lp,
    check_result,
    fractional_assignment_violations,
    full_round_maxflow,
    quantize_dyadic,
    quantized_bound,
    result_to_json,
    round_half_integral_maxflow,
    rounding_vectors,
    solve_min_T,
    split_to_pair_instance,
    var_name,
)
from flowdisc.util import InternalCheckError, ValidationError, rat_to_str, substream_seed


def brute(seq):
    return color_brute_force(seq, PREFIX)


def test_lp_single_job_feasibility_threshold():
    inst = make_instance(1, [(0, [2])])
    assert lpmod.solve_lp(build_assignment_lp(inst, 1)).status == lpmod.INFEASIBLE
    assert lpmod.solve_lp(build_assignment_lp(inst, 2)).status == lpmod.OPTIMAL


def test_lp_interval_constraint_count():
    inst = gen_random_instance(6, 2, (1, 3), (0, 9), 0.0, seed=2)
    lp = build_assignment_lp(inst, F(100))
    interval_rows = [c for c in lp.constraints if c.relation == lpmod.LE]
    # at most n^2 windows per machine
    assert len(interval_rows) <= inst.n ** 2 * inst.m


def test_lp_unassignable_job_infeasible():
    inst = make_instance(2, [(0, [5, 7])])
    assert lpmod.solve_lp(build_assignment_lp(inst, 3)).status == lpmod.INFEASIBLE


def test_solve_min_t_single_job():
    inst = make_instance(3, [(0, [4, 2, None])])
    search = solve_min_T(inst)
    assert search.t_star == 2
    assert fractional_assignment_violations(inst, search.assignment) == []


def _just_below(inst, t_star):
    """t_star - 1/(n L), L the lcm of the time denominators."""
    denoms = [job.release.denominator for job in inst.jobs]
    denoms += [p.denominator for _, _, p in inst.finite_procs()]
    return t_star - F(1, inst.n * lcm(*denoms))


def _ray_root(inst, search):
    """Check the search's ray on the LP rebuilt at its T; return its root,
    the bound below which the ray proves that LP infeasible."""
    T, w = search.ray
    lp = build_assignment_lp(inst, T)
    assert lpmod.farkas_violations(lp, w) == []
    # the cap rows: right-hand side T and no carry-out coefficient -1
    slope = sum(wk for wk, con in zip(w, lp.constraints)
                if con.relation == lpmod.LE and con.rhs == T and -1 not in con.coeffs.values())
    wb = sum(wk * con.rhs for wk, con in zip(w, lp.constraints))
    return T - wb / slope


def test_solve_min_t_three_unit_jobs():
    inst = make_instance(2, [(0, [1, 1])] * 3)
    search = solve_min_T(inst)
    assert search.t_star == F(3, 2)
    # certificate: a checked ray whose root is t_star, and infeasible just below
    assert _ray_root(inst, search) == search.t_star
    below = _just_below(inst, search.t_star)
    assert search.ray[0] <= below < search.t_star
    lp = build_assignment_lp(inst, below)
    assert lpmod.solve_lp(lp).status == lpmod.INFEASIBLE
    assert lpmod.farkas_violations(lp, search.ray[1]) == []


def test_feasibility_monotone_in_bound():
    rng = random.Random(6)
    for trial in range(5):
        inst = gen_random_instance(4, 2, (1, 4), (0, 6), 0.2, seed=40 + trial)
        search = solve_min_T(inst)
        for bump in (F(1, 3), 1, 7):
            bigger = build_assignment_lp(inst, search.t_star + bump)
            assert lpmod.solve_lp(bigger).status == lpmod.OPTIMAL


def test_quantize_example_row():
    fa = FractionalAssignment(x=[[F(3, 10), F(7, 10)]], T=F(5))
    q = quantize_dyadic(fa, 2)
    assert q.x[0] == [F(1, 4), F(3, 4)]


def test_quantize_fixpoint():
    fa = FractionalAssignment(x=[[F(1, 4), F(3, 4)]], T=F(5))
    q = quantize_dyadic(fa, 2)
    assert q.x == fa.x


def test_quantize_preserves_row_sums_and_cells():
    rng = random.Random(10)
    for trial in range(20):
        m = rng.randint(2, 4)
        weights = [F(rng.randint(1, 9)) for _ in range(m)]
        total = sum(weights)
        row = [w / total for w in weights]
        level = rng.randint(2, 5)
        fa = FractionalAssignment(x=[row], T=F(3))
        q = quantize_dyadic(fa, level)
        unit = F(1, 2 ** level)
        assert sum(q.x[0], F(0)) == 1
        for before, after in zip(row, q.x[0]):
            assert after % unit == 0
            assert abs(after - before) < unit  # stays inside its grid cell


def test_quantize_window_increase_bound():
    rng = random.Random(11)
    for trial in range(8):
        inst = gen_random_instance(5, 2, (1, 4), (0, 6), 0.0, seed=60 + trial)
        search = solve_min_T(inst)
        level = 3
        q = quantize_dyadic(search.assignment, level)
        bound = quantized_bound(inst, search.assignment, level)
        assert bound <= search.t_star + p_max(inst)
        fa2 = FractionalAssignment(x=q.x, T=bound)
        assert fractional_assignment_violations(inst, fa2) == []


def test_split_identity_level():
    inst = make_instance(2, [(0, [4, 6])])
    fa = FractionalAssignment(x=[[F(1, 2), F(1, 2)]], T=F(6))
    sp = split_to_pair_instance(inst, fa, 1)
    assert sp.pairs == [(0, 1)]
    assert sp.instance.jobs[0].proc == (F(4), F(6))  # p' = p at level 1


def test_split_level_two_pairing():
    inst = make_instance(2, [(0, [4, 8])])
    fa = FractionalAssignment(x=[[F(3, 4), F(1, 4)]], T=F(8))
    sp = split_to_pair_instance(inst, fa, 2)
    # the pieces are (0, 1), a half-job, and (0, 0), an integral piece
    assert sp.pairs == [(0, 1)]
    assert sp.integral_counts == [[1, 0]]
    assert sp.instance.jobs[0].proc == (F(2), F(4))  # p / 2
    assert sp.fixed_load == [{F(0): F(2)}, {}]  # the integral piece's p / 2


def test_split_integral_job_degenerate_pair():
    inst = make_instance(2, [(0, [4, 8])])
    fa = FractionalAssignment(x=[[F(1), F(0)]], T=F(8))
    sp = split_to_pair_instance(inst, fa, 1)
    # the one piece is the degenerate pair (0, 0), wholly on machine 0
    assert sp.pairs == [] and sp.instance.n == 0
    assert sp.integral_counts == [[1, 0]]
    assert sp.fixed_load == [{F(0): F(4)}, {}]


def test_split_backmap_reproduces_fractions():
    rng = random.Random(14)
    for trial in range(10):
        inst = gen_random_instance(4, 3, (1, 4), (0, 5), 0.0, seed=80 + trial)
        level = 3
        denom = 2 ** level
        x = []
        for j in range(inst.n):
            cuts = sorted(rng.sample(range(1, denom), 2)) if denom > 2 else [1]
            parts = [cuts[0], cuts[1] - cuts[0], denom - cuts[1]]
            x.append([F(parts[i], denom) if i < len(parts) else F(0) for i in range(inst.m)])
        fa = FractionalAssignment(x=x, T=F(50))
        sp = split_to_pair_instance(inst, fa, level)
        # folding the canonical half-assignment back, with each integral piece
        # as two slots on its machine, gives the original fractions
        counts = [[F(2 * c, 2 ** level) for c in row] for row in sp.integral_counts]
        for jp, (i1, i2) in enumerate(sp.pairs):
            assert i1 != i2
            j = sp.origin[jp]
            counts[j][i1] += F(1, 2 ** level)
            counts[j][i2] += F(1, 2 ** level)
        assert counts == fa.x


def test_split_rejects_non_dyadic():
    inst = make_instance(2, [(0, [4, 8])])
    fa = FractionalAssignment(x=[[F(1, 3), F(2, 3)]], T=F(8))
    with pytest.raises(ValidationError):
        split_to_pair_instance(inst, fa, 2)


def _reference_split(inst, fa, level):
    """The split before half-jobs: one job per piece, integral pieces included.

    Returns (instance, canonical half-integral assignment, origin, pairs).
    """
    scale = 2 ** level
    jobs, origin, pairs, x_rows = [], [], [], []
    for j in range(inst.n):
        slots = []
        for i in range(inst.m):
            cnt = fa.x[j][i] * scale
            if cnt.denominator != 1:
                raise ValidationError(f"x[{j},{i}] = {fa.x[j][i]} is not a multiple of 1/{scale}")
            slots.extend([i] * int(cnt))
        if len(slots) != scale:
            raise ValidationError(f"job {j}: assignment row does not sum to 1")
        for q in range(scale // 2):
            i1, i2 = slots[q], slots[scale - 1 - q]
            proc = [None] * inst.m
            proc[i1] = inst.jobs[j].proc[i1] / 2 ** (level - 1)
            proc[i2] = inst.jobs[j].proc[i2] / 2 ** (level - 1)
            jobs.append(Job(release=inst.jobs[j].release, proc=tuple(proc)))
            origin.append(j)
            pairs.append((i1, i2))
            row = [F(0)] * inst.m
            if i1 == i2:
                row[i1] = F(1)
            else:
                row[i1] = F(1, 2)
                row[i2] = F(1, 2)
            x_rows.append(row)
    return (SchedulingInstance(m=inst.m, jobs=tuple(jobs)), FractionalAssignment(x=x_rows, T=fa.T),
            origin, pairs)


def _reference_merge(origin, level, asg, n, m):
    """The merged level h-1 rows, counting every piece of the reference split."""
    counts = [[0] * m for _ in range(n)]
    for jp, machine in enumerate(asg.assign):
        counts[origin[jp]][machine] += 1
    return [[F(c, 2 ** (level - 1)) for c in row] for row in counts]


def _random_dyadic(inst, level, rng):
    """A row per job with entries on multiples of 1/2^level, on allowed machines only."""
    units = 2 ** level
    x = []
    for job in inst.jobs:
        allowed = [i for i, p in enumerate(job.proc) if p is not None]
        chosen = rng.sample(allowed, rng.randint(1, len(allowed)))
        cuts = sorted(rng.choices(range(units + 1), k=len(chosen) - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [units])]
        row = [F(0)] * inst.m
        for i, c in zip(chosen, parts):
            row[i] = F(c, units)
        x.append(row)
    return x


def test_split_matches_reference_split():
    # m = 2..4, fractional and repeated releases, forbidden machines, levels 1..5
    rng = random.Random(47)
    seen = {"overloaded": 0, "feasible": 0, "halves_below_pmax": 0, "no_halves": 0}
    for trial in range(80):
        m = rng.randint(2, 4)
        jobs = []
        for _ in range(rng.randint(1, 5)):
            if jobs and rng.random() < 0.3:
                release = jobs[-1][0]
            else:
                release = F(rng.randint(0, 6), rng.choice([1, 2, 3]))
            proc = [F(rng.randint(1, 6), rng.choice([1, 2])) if rng.random() < 0.7 else None
                    for _ in range(m)]
            if proc.count(None) == m:
                proc[rng.randrange(m)] = F(rng.randint(1, 6))
            jobs.append((release, proc))
        inst = make_instance(m, jobs)
        level = rng.randint(1, 5)
        fa = FractionalAssignment(x=_random_dyadic(inst, level, rng), T=F(0))
        sp = split_to_pair_instance(inst, fa, level)
        ref_inst, ref_fa, ref_origin, ref_pairs = _reference_split(inst, fa, level)

        keep = [k for k, (i1, i2) in enumerate(ref_pairs) if i1 != i2]
        assert sp.pairs == [ref_pairs[k] for k in keep]
        assert sp.origin == [ref_origin[k] for k in keep]
        assert sp.instance.m == m and list(sp.instance.jobs) == [ref_inst.jobs[k] for k in keep]
        assert sp.assignment.x == [ref_fa.x[k] for k in keep]
        fixed = [{} for _ in range(m)]
        counts = [[0] * m for _ in range(inst.n)]
        for k, (i1, i2) in enumerate(ref_pairs):
            if i1 == i2:
                release = ref_inst.jobs[k].release
                fixed[i1][release] = fixed[i1].get(release, 0) + ref_inst.jobs[k].proc[i1]
                counts[ref_origin[k]][i1] += 1
        assert sp.fixed_load == fixed
        assert sp.integral_counts == counts
        assert sp.p_max_level == p_max(ref_inst)
        if not keep:
            seen["no_halves"] += 1
        elif p_max(sp.instance) < sp.p_max_level:
            seen["halves_below_pmax"] += 1

        # the tightest bound, then an overloaded one whenever a window (not a
        # single piece's processing time) sets it
        loads = _window_loads(ref_inst, ref_fa.x)
        tight = max([sp.p_max_level] + [load - (t2 - t1) for (i, t1, t2), load in loads.items()])
        bounds = [tight] + ([tight - F(1, 4)] if tight - F(1, 4) >= sp.p_max_level else [])
        for T in bounds:
            ref_args = (ref_inst, FractionalAssignment(x=ref_fa.x, T=T))
            args = (sp.instance, FractionalAssignment(x=sp.assignment.x, T=T))
            lines = fractional_assignment_violations(*args, sp.fixed_load)
            assert lines == fractional_assignment_violations(*ref_args)
            seen["overloaded" if lines else "feasible"] += 1
            for colorer in [color_greedy] + ([brute] if len(keep) <= 10 else []):
                if lines:
                    with pytest.raises(ValidationError) as ref_err:
                        round_half_integral_maxflow(*ref_args, colorer)
                    with pytest.raises(ValidationError) as err:
                        round_half_integral_maxflow(*args, colorer, sp.fixed_load, sp.p_max_level)
                    assert str(err.value) == str(ref_err.value)
                    continue
                ref_asg, ref_d = round_half_integral_maxflow(*ref_args, colorer)
                asg, d = round_half_integral_maxflow(*args, colorer, sp.fixed_load, sp.p_max_level)
                assert d == ref_d
                assert asg.assign == tuple(ref_asg.assign[k] for k in keep)
                merged = sp.merge_assignment(asg)
                assert merged.x == _reference_merge(ref_origin, level, ref_asg, inst.n, m)
    assert all(seen.values()), seen


def test_leftover_check_sees_fixed_load(monkeypatch):
    # x = (3/4, 1/4) at level 2: half-job (0, 1) with p' = (2, 2) and one
    # integral piece on machine 0, a fixed load of 2; machine 0 carries 3 = T.
    # With the achieved discrepancy forced to 0 the bound stays T, so sending
    # the half-job to machine 0 (load 4) must trip the leftover check, which
    # only sees that overload through the fixed load.
    inst = make_instance(2, [(0, [4, 4])])
    fa = FractionalAssignment(x=[[F(3, 4), F(1, 4)]], T=F(3))
    sp = split_to_pair_instance(inst, fa, 2)
    ref_inst, ref_fa, _, _ = _reference_split(inst, fa, 2)
    monkeypatch.setattr(maxflow, "discrepancy", lambda seq, mode: SimpleNamespace(value=F(0)))
    to_first = lambda seq: [1] * len(seq.vectors)  # noqa: E731
    with pytest.raises(InternalCheckError, match="machine 0 window"):
        round_half_integral_maxflow(ref_inst, ref_fa, to_first)
    with pytest.raises(InternalCheckError, match="machine 0 window"):
        round_half_integral_maxflow(sp.instance, sp.assignment, to_first, sp.fixed_load, sp.p_max_level)


def test_full_round_records_reference_levels(monkeypatch):
    # every level's p_max_level and D are those of the whole-piece split
    calls = []
    real_split = maxflow.split_to_pair_instance

    def spy(inst, fa, level):
        calls.append((fa, level))
        return real_split(inst, fa, level)

    monkeypatch.setattr(maxflow, "split_to_pair_instance", spy)
    narrower = 0
    for seed in range(6):
        inst = gen_random_instance(7 + seed, 2 + seed % 2, (1, 9), (0, 12), 0.2, seed=1200 + seed)
        calls.clear()
        asg, trace = full_round_maxflow(inst, color_greedy)
        assert [h for _, h in calls] == [rec.h for rec in trace.levels]
        for (fa, h), rec in zip(calls, trace.levels):
            ref_inst, ref_fa, _, ref_pairs = _reference_split(inst, fa, h)
            assert rec.p_max_level == p_max(ref_inst)
            assert rec.discrepancy == round_half_integral_maxflow(ref_inst, ref_fa, color_greedy)[1]
            halves = [p for k, (i1, i2) in enumerate(ref_pairs) if i1 != i2
                      for p in ref_inst.jobs[k].proc if p is not None]
            narrower += 0 < max(halves, default=0) < rec.p_max_level
    assert narrower  # some level's half-jobs alone have a smaller p_max


def test_rounding_vector_formula():
    # half split between machines 2 and 5 with p = 3 and p = 4, p_max = 4
    proc = [None] * 6
    proc[2], proc[5] = 3, 4
    inst = make_instance(6, [(0, proc), (0, [4, None, None, None, None, None])])
    x = [[F(0)] * 6 for _ in range(2)]
    x[0][2] = x[0][5] = F(1, 2)
    x[1][0] = F(1)
    fa = FractionalAssignment(x=x, T=F(10))
    halves, vectors = rounding_vectors(inst, fa)
    assert halves == [(0, 2, 5)]
    assert vectors[0][2] == F(3, 8)
    assert vectors[0][5] == F(-1, 2)
    assert sum(abs(v) for v in vectors[0]) <= 1


def test_round_all_integral_passthrough():
    inst = make_instance(2, [(0, [2, 3]), (1, [1, 1])])
    fa = FractionalAssignment(x=[[1, 0], [0, 1]], T=F(3))
    asg, d = round_half_integral_maxflow(inst, fa, brute)
    assert asg.assign == (0, 1) and d == 0


def test_round_symmetric_two_jobs_opposite_machines():
    inst = make_instance(2, [(0, [2, 2]), (0, [2, 2])])
    fa = FractionalAssignment(x=[[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], T=F(2))
    asg, d = round_half_integral_maxflow(inst, fa, brute)
    assert set(asg.assign) == {0, 1}


def _window_loads(inst, x_matrix):
    times = sorted({job.release for job in inst.jobs})
    out = {}
    for i in range(inst.m):
        for a in range(len(times)):
            for b in range(a, len(times)):
                load = F(0)
                for j, job in enumerate(inst.jobs):
                    if times[a] <= job.release <= times[b] and job.proc[i] is not None:
                        load += x_matrix[j][i] * job.proc[i]
                out[(i, times[a], times[b])] = load
    return out


def _random_half_integral(inst, rng):
    x = []
    for j in range(inst.n):
        finite = [i for i in range(inst.m) if inst.jobs[j].proc[i] is not None]
        if len(finite) >= 2 and rng.random() < 0.6:
            a, b = rng.sample(finite, 2)
            row = [F(0)] * inst.m
            row[a] = row[b] = F(1, 2)
        else:
            row = [F(0)] * inst.m
            row[rng.choice(finite)] = F(1)
        x.append(row)
    # tightest feasible bound for this fractional matrix
    T = max(p for _, _, p in inst.finite_procs())
    loads = _window_loads(inst, x)
    for (i, t1, t2), load in loads.items():
        T = max(T, load - (t2 - t1))
    return FractionalAssignment(x=x, T=T)


def test_window_checker_matches_window_oracle():
    # fractional releases and processing times, forbidden entries, and a
    # third machine that no job can use
    rng = random.Random(41)
    line = re.compile(r"machine (\d+) window \[([^,]+),([^\]]+)\]: load (\S+) > (\S+)$")
    verdicts = set()
    for trial in range(60):
        jobs = []
        for _ in range(rng.randint(1, 6)):
            release = F(rng.randint(0, 12), rng.choice([1, 2, 3]))
            proc = [F(rng.randint(1, 6), rng.choice([1, 2])) if rng.random() < 0.7 else None
                    for _ in range(2)]
            if proc == [None, None]:
                proc[rng.randrange(2)] = F(rng.randint(1, 6))
            jobs.append((release, proc + [None]))
        inst = make_instance(3, jobs)
        x = []
        for job in inst.jobs:
            finite = [i for i in range(inst.m) if job.proc[i] is not None]
            weights = [F(rng.randint(0, 4)) for _ in finite]
            weights[0] += 1
            row = [F(0)] * inst.m
            for i, w in zip(finite, weights):
                row[i] = w / sum(weights)
            x.append(row)
        T = max(job.proc[i] for job in inst.jobs for i in range(inst.m)
                if job.proc[i] is not None) + F(rng.randint(0, 8), 4)
        loads = _window_loads(inst, x)
        reported = {}
        for text in fractional_assignment_violations(inst, FractionalAssignment(x=x, T=T)):
            match = line.match(text)
            assert match, text
            i, t1, t2, load, cap = match.groups()
            assert int(i) not in reported
            reported[int(i)] = (F(t1), F(t2), F(load), F(cap))
        for i in range(inst.m):
            windows = {(t1, t2): load for (ii, t1, t2), load in loads.items() if ii == i}
            worst = max(load - (t2 - t1) for (t1, t2), load in windows.items())
            verdicts.add(worst > T)
            assert (i in reported) == (worst > T)
            if i in reported:
                t1, t2, load, cap = reported[i]
                assert load == windows[(t1, t2)] and load - (t2 - t1) == worst
                assert cap == t2 - t1 + T
    assert verdicts == {True, False}


def _quadratic_assignment_lp(inst, T):
    """Reference assignment LP at bound T: one window row per machine and pair of release times."""
    usable = [[p is not None and p <= T for p in job.proc] for job in inst.jobs]
    lp = lpmod.LinearProgram()
    lp.variables = [var_name(j, i) for j in range(inst.n) for i in range(inst.m) if usable[j][i]]
    for j in range(inst.n):
        lp.add_constraint({var_name(j, i): 1 for i in range(inst.m) if usable[j][i]}, lpmod.EQ, 1)
    times = sorted({job.release for job in inst.jobs})
    for i in range(inst.m):
        for a, t1 in enumerate(times):
            for t2 in times[a:]:
                coeffs = {var_name(j, i): job.proc[i] for j, job in enumerate(inst.jobs)
                          if t1 <= job.release <= t2 and usable[j][i]}
                if coeffs:
                    lp.add_constraint(coeffs, lpmod.LE, t2 - t1 + T)
    return lp


def test_carry_rows_match_quadratic_windows(complete_carries):
    # fractional releases and processing times, equal releases, forbidden
    # entries, and a third machine that no job can use
    rng = random.Random(43)
    statuses = set()
    for trial in range(40):
        jobs = []
        for _ in range(rng.randint(1, 7)):
            if jobs and rng.random() < 0.3:
                release = jobs[-1][0]
            else:
                release = F(rng.randint(0, 9), rng.choice([1, 2, 3]))
            proc = [F(rng.randint(1, 6), rng.choice([1, 2])) if rng.random() < 0.7 else None
                    for _ in range(2)]
            if proc == [None, None]:
                proc[rng.randrange(2)] = F(rng.randint(1, 6))
            jobs.append((release, proc + [None]))
        inst = make_instance(3, jobs)
        releases = len({job.release for job in inst.jobs})
        search = solve_min_T(inst)
        for T in (search.t_star, _just_below(inst, search.t_star),
                  search.t_star + F(1, 3), search.t_star + 2):
            lp, ref_lp = build_assignment_lp(inst, T), _quadratic_assignment_lp(inst, T)
            assert sum(c.relation == lpmod.LE for c in lp.constraints) <= (2 * releases - 1) * inst.m
            sol, ref = lpmod.solve_lp(lp), lpmod.solve_lp(ref_lp)
            assert sol.status == ref.status
            statuses.add(sol.status)
            if sol.status == lpmod.OPTIMAL:
                x = {v: sol.values[v] for v in ref_lp.variables}
                assert lpmod.check_point(ref_lp, x) == []
                assert lpmod.check_point(lp, complete_carries(lp, ref.values)) == []
    assert statuses == {lpmod.OPTIMAL, lpmod.INFEASIBLE}


def test_round_load_identity_and_bound():
    rng = random.Random(17)
    for trial in range(10):
        inst = gen_random_instance(rng.randint(2, 7), rng.randint(2, 4),
                                   (1, 5), (0, 8), 0.2, seed=900 + trial)
        fa = _random_half_integral(inst, rng)
        assert fractional_assignment_violations(inst, fa) == []
        asg, d = round_half_integral_maxflow(inst, fa, brute)
        pmax = p_max(inst)
        # exact identity: every window's load moves by p_max times the signed
        # difference of two coloring prefix sums
        halves, vectors = rounding_vectors(inst, fa)
        signs_of = {}
        for pos, (j, i1, i2) in enumerate(halves):
            signs_of[j] = 1 if asg.assign[j] == i1 else -1
        x_int = [[F(1) if i == asg.assign[j] else F(0) for i in range(inst.m)]
                 for j in range(inst.n)]
        before = _window_loads(inst, fa.x)
        after = _window_loads(inst, x_int)
        for (i, t1, t2), load in after.items():
            shift = F(0)
            for pos, (j, i1, i2) in enumerate(halves):
                if t1 <= inst.jobs[j].release <= t2:
                    shift += signs_of[j] * vectors[pos][i]
            assert load - before[(i, t1, t2)] == pmax * shift
            assert load - before[(i, t1, t2)] <= 2 * d * pmax
        met = evaluate_max_flow(inst, asg)
        assert met.max_flow <= fa.T + 2 * d * pmax


def test_full_round_bound_and_result_roundtrip():
    rng = random.Random(19)
    for trial in range(4):
        inst = gen_random_instance(6, 2, (1, 4), (0, 8), 0.15, seed=500 + trial)
        asg, trace = full_round_maxflow(inst, brute)
        pmax = p_max(inst)
        bound = trace.t_star + pmax + sum(
            (2 * rec.discrepancy * pmax / F(2 ** (rec.h - 1)) for rec in trace.levels), F(0))
        assert trace.final_value <= bound
        data = result_to_json(trace, asg)
        assert check_result(inst, data) == []


def test_check_result_rejects_an_assignment_above_the_telescoped_bound():
    # the instance of `flowdisc gen instance --n 6 --m 2 --seed 0` and its worst
    # assignment, with that assignment's own max_flow and the pipeline's real D values
    inst = gen_random_instance(6, 2, (1, 4), (0, 10), 0.2, substream_seed(0, "instance-gen"))
    asg, trace = full_round_maxflow(inst, color_greedy)
    data = result_to_json(trace, asg)
    options = [[i for i, p in enumerate(job.proc) if p is not None] for job in inst.jobs]
    worst, assign = max((evaluate_max_flow(inst, MachineAssignment(a)).max_flow, a)
                        for a in itertools.product(*options))
    data.update(assignment=list(assign), max_flow=rat_to_str(worst))
    assert check_result(inst, data) == ["max_flow 9 violates bound 6"]


def test_full_round_integral_optimum_zero_error():
    # pinned jobs: the LP optimum is already integral
    inst = make_instance(2, [(0, [2, None]), (0, [None, 2]), (3, [1, None])])
    asg, trace = full_round_maxflow(inst, brute)
    assert trace.final_additive_error == 0


def test_periodic_balanced_base_keeps_t_star():
    # balanced base (every machine loaded to exactly the makespan): the
    # released copies keep the minimal bound equal to the base makespan
    base = make_instance(2, [(0, [1, None]), (0, [None, 1])])
    inst = gen_periodic_instance(base, 3, period=F(1))
    assert solve_min_T(inst).t_star == 1


def test_periodic_additive_error_behaviour():
    base = make_instance(2, [(0, [1, 1])] * 3)
    errors = []
    for copies in (2, 4, 8):
        inst = gen_periodic_instance(base, copies, period=F(2))
        asg, trace = full_round_maxflow(inst, color_greedy)
        errors.append(trace.final_additive_error)
    assert all(e2 <= e1 for e1, e2 in zip(errors, errors[1:])), errors


def test_t_star_lower_bounds_integral_optimum_exhaustive():
    rng = random.Random(23)
    for trial in range(4):
        inst = gen_random_instance(rng.randint(2, 5), rng.randint(2, 3),
                                   (1, 4), (0, 6), 0.2, seed=700 + trial)
        search = solve_min_T(inst)
        best = None
        options = [
            [i for i in range(inst.m) if inst.jobs[j].proc[i] is not None]
            for j in range(inst.n)
        ]
        for assign in itertools.product(*options):
            met = evaluate_max_flow(inst, MachineAssignment(assign))
            best = met.max_flow if best is None else min(best, met.max_flow)
        assert search.t_star <= best


def test_full_round_at_roadmap_scale():
    inst = gen_random_instance(60, 2, (1, 4), (0, 120), 0.2, seed=7)
    asg, trace = full_round_maxflow(inst, color_greedy)
    assert trace.t_star == 7 and trace.final_value == 10
    assert check_result(inst, result_to_json(trace, asg)) == []


def _fraction_violations(inst, fa, fixed_load=None):
    """fractional_assignment_violations on Fraction loads (reference)."""
    problems = []
    for j in range(inst.n):
        total = sum(fa.x[j], F(0))
        if total != 1:
            problems.append(f"job {j}: row sum {total} != 1")
        for i, p in enumerate(inst.jobs[j].proc):
            v = fa.x[j][i]
            if v < 0:
                problems.append(f"x[{j},{i}] = {v} negative")
            if v > 0 and (p is None or p > fa.T):
                problems.append(f"x[{j},{i}] positive but processing time exceeds bound {fa.T}")
    for i in range(inst.m):
        fixed = fixed_load[i].items() if fixed_load is not None else ()
        worst = worst_window(itertools.chain(fixed, ((job.release, fa.x[j][i] * job.proc[i])
                                                     for j, job in enumerate(inst.jobs)
                                                     if job.proc[i] is not None)))
        if worst is not None and worst[0] > fa.T:
            excess, t1, t2 = worst
            problems.append(
                f"machine {i} window [{t1},{t2}]: load {excess + t2 - t1} > {t2 - t1 + fa.T}"
            )
    return problems


def _fractional_instance(rng, m=3, max_jobs=6):
    """Fractional releases and processing times, repeated releases, forbidden
    entries, and a last machine that no job can use."""
    jobs = []
    for _ in range(rng.randint(1, max_jobs)):
        if jobs and rng.random() < 0.3:
            release = jobs[-1][0]
        else:
            release = F(rng.randint(0, 9), rng.choice([1, 2, 3]))
        proc = [F(rng.randint(1, 6), rng.choice([1, 2, 3])) if rng.random() < 0.7 else None
                for _ in range(m - 1)]
        if proc.count(None) == m - 1:
            proc[rng.randrange(m - 1)] = F(rng.randint(1, 6))
        jobs.append((release, proc + [None]))
    return make_instance(m, jobs)


def test_integer_checker_matches_fraction_reference():
    rng = random.Random(73)
    kinds = {"overloaded": 0, "entry": 0, "fixed": 0, "clean": 0}
    for trial in range(300):
        inst = _fractional_instance(rng)
        x = []
        for job in inst.jobs:
            weights = [F(rng.randint(0, 4)) if p is not None or rng.random() < 0.1 else F(0)
                       for p in job.proc]
            if rng.random() < 0.1:
                weights[rng.randrange(inst.m)] = F(-1)
            total = sum(weights)
            x.append([w / total if total else w for w in weights])
        T = F(rng.randint(-2, 14), rng.choice([1, 2, 3, 4]))
        fixed = None
        if rng.random() < 0.5:
            fixed = [{F(rng.randint(0, 9), rng.choice([1, 2, 5])): F(rng.randint(0, 6), rng.choice([1, 3]))
                      for _ in range(rng.randint(0, 3))} for _ in range(inst.m)]
            kinds["fixed"] += 1
        fa = FractionalAssignment(x=x, T=T)
        lines = fractional_assignment_violations(inst, fa, fixed)
        assert lines == _fraction_violations(inst, fa, fixed)
        kinds["overloaded"] += any("window" in line for line in lines)
        kinds["entry"] += any("window" not in line for line in lines)
        kinds["clean"] += not lines
    assert all(kinds.values()), kinds


def _fraction_rounding_vectors(inst, fa, pmax):
    """rounding_vectors on Fraction entries (reference)."""
    halves = []
    for j in range(inst.n):
        support = [(i, v) for i, v in enumerate(fa.x[j]) if v != 0]
        if len(support) == 2 and support[0][1] == support[1][1] == F(1, 2):
            halves.append((j, support[0][0], support[1][0]))
    halves.sort(key=lambda h: (inst.jobs[h[0]].release, h[0]))
    vectors = []
    for j, i1, i2 in halves:
        v = [F(0)] * inst.m
        v[i1] = inst.jobs[j].proc[i1] / (2 * pmax)
        v[i2] = -inst.jobs[j].proc[i2] / (2 * pmax)
        vectors.append(v)
    return halves, vectors


def test_rounding_vectors_match_fraction_reference():
    rng = random.Random(74)
    for trial in range(100):
        inst = _fractional_instance(rng, m=rng.randint(2, 4), max_jobs=8)
        fa = FractionalAssignment(x=_random_half_integral(inst, rng).x, T=F(0))
        pmax = p_max(inst) + F(rng.randint(0, 2), rng.choice([1, 3]))
        halves, vectors = rounding_vectors(inst, fa, pmax)
        assert (halves, [list(v) for v in vectors]) == _fraction_rounding_vectors(inst, fa, pmax)


def _levels_of(monkeypatch, inst):
    """Run full_round_maxflow; return every level's input (fa, h) and split."""
    splits = []
    real_split = maxflow.split_to_pair_instance

    def split(inst, fa, level):
        splits.append((fa, level, real_split(inst, fa, level)))
        return splits[-1][2]

    monkeypatch.setattr(maxflow, "split_to_pair_instance", split)
    full_round_maxflow(inst, color_greedy)
    monkeypatch.undo()
    return splits


def _tampered_merges(inst, fa, h, sp, rng):
    """The split of ``fa`` with one count moved, with one fixed load raised,
    or with a lower T."""
    unit = F(1, 2 ** h)
    for j in rng.sample(range(inst.n), min(inst.n, 3)):
        src = [i for i in range(inst.m) if fa.x[j][i] > 0]
        dst = [i for i in range(inst.m) if inst.jobs[j].proc[i] is not None]
        a, b = rng.choice(src), rng.choice(dst)
        if a != b:
            x = [row[:] for row in fa.x]
            x[j][a] -= unit
            x[j][b] += unit
            yield split_to_pair_instance(inst, FractionalAssignment(x=x, T=fa.T), h)
    pieces = [(j, i) for j, row in enumerate(sp.integral_counts) for i, c in enumerate(row) if c]
    for j, i in rng.sample(pieces, min(len(pieces), 2)):
        # as if job j had more integral pieces on machine i
        fixed = [dict(loads) for loads in sp.fixed_load]
        r = inst.jobs[j].release
        fixed[i][r] += rng.randint(1, 2 ** (h - 1)) * inst.jobs[j].proc[i] / 2 ** (h - 1)
        yield dataclasses.replace(sp, fixed_load=fixed)
    ref_inst, ref_fa, _, _ = _reference_split(inst, fa, h)
    # the worst window's excess: at it the windows pass, just below it they fail
    tight = max(load - (t2 - t1) for (i, t1, t2), load in _window_loads(ref_inst, ref_fa.x).items())
    for T in (fa.T - F(1, 2 ** h), tight, tight - F(1, 2 ** h)):
        if T < fa.T:
            yield split_to_pair_instance(inst, FractionalAssignment(x=fa.x, T=T), h)


def _trial_instance(rng, trial):
    if trial % 2:
        return gen_random_instance(rng.randint(5, 9), rng.randint(2, 3), (1, 5), (0, 10),
                                   0.2, seed=1500 + trial)
    return _fractional_instance(rng, m=3, max_jobs=7)


def test_level_check_rejects_exactly_what_the_full_scan_rejects(monkeypatch):
    # every level's rounding call runs the full input scan, so it refuses a
    # split exactly when that scan reports a line
    rng = random.Random(75)
    seen = {"levels": 0, "tampered": 0, "rejected": 0}
    for trial in range(24):
        inst = _trial_instance(rng, trial)
        for fa, h, sp in _levels_of(monkeypatch, inst):
            splits = [sp] + list(_tampered_merges(inst, fa, h, sp, rng))
            for k, bad in enumerate(splits):
                args = bad.instance, bad.assignment, color_greedy, bad.fixed_load, bad.p_max_level
                full = fractional_assignment_violations(bad.instance, bad.assignment, bad.fixed_load)
                if full:
                    with pytest.raises(ValidationError, match="input assignment infeasible"):
                        round_half_integral_maxflow(*args)
                else:
                    round_half_integral_maxflow(*args)
                assert k or not full  # the real level passes
                seen["tampered" if k else "levels"] += 1
                seen["rejected"] += bool(full)
    assert seen["tampered"] > seen["rejected"] > 20, seen


def test_full_round_checks_every_level_twice(monkeypatch):
    # one input and one leftover check per level, none skipped
    rng = random.Random(77)
    for trial in range(12):
        inst = _trial_instance(rng, trial)
        calls = []
        real = maxflow.fractional_assignment_violations

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(maxflow, "fractional_assignment_violations", counted)
        _, trace = full_round_maxflow(inst, color_greedy)
        monkeypatch.undo()
        assert len(trace.levels) >= 1
        assert len(calls) == 2 * len(trace.levels)


def _lp_key(lp):
    return (tuple(lp.variables), tuple(sorted(lp.objective.items())),
            tuple((tuple(c.coeffs.items()), c.relation, c.rhs) for c in lp.constraints))


def test_min_T_search_solves_no_lp_twice(monkeypatch):
    rng = random.Random(76)
    cached = 0
    for trial in range(16):
        inst = gen_random_instance(rng.randint(2, 8), rng.randint(2, 3), (1, 6), (0, 8),
                                   0.2, seed=1700 + trial)
        solved = []
        real = lpmod.solve_lp
        monkeypatch.setattr(lpmod, "solve_lp", lambda lp: solved.append(_lp_key(lp)) or real(lp))
        search = solve_min_T(inst)
        monkeypatch.undo()
        assert len(solved) == len(set(solved))
        assert all(objective == () for _, objective, _ in solved)  # feasibility LPs only
        witness = lpmod.solve_lp(build_assignment_lp(inst, search.t_star))
        assert search.assignment == maxflow.assignment_from_solution(inst, search.t_star, witness)
        cached += search.t_star in {p for _, _, p in inst.finite_procs()}
    assert cached  # some t_star was a breakpoint, so its witness came from the cache


@pytest.mark.parametrize("branch,seed,t_star,below", [
    ("first-breakpoint", 0, 4, F(11, 3)),    # the first breakpoint is feasible
    ("below-cap", 3, 3, F(8, 3)),            # a Newton step lands below the cap
    ("reaches-cap", 12, 5, F(14, 3)),        # the ray's root reaches the cap, which is T*
    ("above-breakpoints", 15, 8, F(23, 3)),  # infeasible at every breakpoint: no cap
], ids=["first-breakpoint", "below-cap", "reaches-cap", "above-breakpoints"])
def test_min_T_search_branches_keep_their_values(branch, seed, t_star, below):
    inst = gen_random_instance(3, 2, (1, 6), (0, 6), 0.2, seed=seed)
    search = solve_min_T(inst)
    assert search.t_star == t_star
    assert _just_below(inst, t_star) == below
    assert lpmod.solve_lp(build_assignment_lp(inst, below)).status == lpmod.INFEASIBLE
    assert fractional_assignment_violations(inst, search.assignment) == []
    procs = sorted({p for _, _, p in inst.finite_procs()})
    if branch == "first-breakpoint":
        # some job has no machine below the largest per-job minimum
        assert search.ray is None
        assert t_star == max(min(p for p in job.proc if p is not None) for job in inst.jobs)
        return
    root = _ray_root(inst, search)
    assert search.ray[0] < t_star <= root
    if branch == "below-cap":
        assert root == t_star and t_star not in procs and t_star < procs[-1]
    elif branch == "reaches-cap":
        assert t_star in procs
    else:
        assert t_star > procs[-1]


def test_min_T_search_rejects_a_ray_that_fails_its_check(monkeypatch, tmp_path, capsys):
    # a ray with its signs flipped must stop the search, not move T
    inst = gen_random_instance(3, 2, (1, 6), (0, 6), 0.2, seed=3)
    real = lpmod.solve_lp

    def flipped(lp):
        sol = real(lp)
        return dataclasses.replace(sol, ray=[-w for w in sol.ray]) if sol.ray else sol

    monkeypatch.setattr(lpmod, "solve_lp", flipped)
    with pytest.raises(InternalCheckError, match="Farkas ray at bound 2: .* w.b = 1/2 >= 0"):
        solve_min_T(inst)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    assert main(["maxflow", "--instance", str(path), "--out", str(tmp_path / "res.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Farkas ray at bound 2" in err[0]


# Digests of the results with T* from the minimize-T LP: the search for T*
# must give the same T*, assignments, D values and flows.
def test_pipeline_results_are_pinned():
    digest = hashlib.sha256()
    for n in range(2, 13):
        for seed in (n, 100 + n):
            inst = gen_random_instance(n, 2 + n % 2, (1, 4), (0, 2 * n), 0.2, seed=seed)
            for name in ("brute", "floating", "greedy"):
                asg, trace = full_round_maxflow(inst, COLORERS[name])
                digest.update(json.dumps(result_to_json(trace, asg), sort_keys=True).encode())
    assert digest.hexdigest() == "c3cab976eff27336660f8385217338c6b935b3362b2d5e631cc5c6fa3d258eca"
