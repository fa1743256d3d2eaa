import dataclasses
import hashlib
import itertools
import json
import random
import re
import sys
from fractions import Fraction as F
from math import lcm
from types import SimpleNamespace

import pytest

from flowdisc import core
from flowdisc import lp as lpmod
from flowdisc import maxflow
from flowdisc.cli import main
from flowdisc.coloring import COLORERS, PREFIX, SignedVectorSequence, color_brute_force, color_greedy
from flowdisc.core import (
    Job,
    MachineAssignment,
    SchedulingInstance,
    add_carry_rows,
    evaluate_max_flow,
    gen_periodic_instance,
    gen_random_instance,
    instance_to_json,
    integer_times,
    make_instance,
    p_max,
    rounding_level,
    snap_pairs,
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
    telescoped_bound,
)
from flowdisc.util import InternalCheckError, ValidationError, rat_to_str, scaled, substream_seed


def brute(seq):
    return color_brute_force(seq, PREFIX)


def test_lp_single_job_feasibility_threshold():
    inst = make_instance(1, [(0, [2])])
    assert lpmod.solve_lp(build_assignment_lp(integer_times(inst), 1)).status == lpmod.INFEASIBLE
    assert lpmod.solve_lp(build_assignment_lp(integer_times(inst), 2)).status == lpmod.OPTIMAL


def test_lp_interval_constraint_count():
    inst = gen_random_instance(6, 2, (1, 3), (0, 9), 0.0, seed=2)
    lp = build_assignment_lp(integer_times(inst), F(100))
    interval_rows = [c for c in lp.constraints if c.relation == lpmod.LE]
    # at most n^2 windows per machine
    assert len(interval_rows) <= inst.n ** 2 * inst.m


def test_lp_unassignable_job_infeasible():
    inst = make_instance(2, [(0, [5, 7])])
    assert lpmod.solve_lp(build_assignment_lp(integer_times(inst), 3)).status == lpmod.INFEASIBLE


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
    lp = build_assignment_lp(integer_times(inst), T)
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
    lp = build_assignment_lp(integer_times(inst), below)
    assert lpmod.solve_lp(lp).status == lpmod.INFEASIBLE
    assert lpmod.farkas_violations(lp, search.ray[1]) == []


def test_feasibility_monotone_in_bound():
    rng = random.Random(6)
    for trial in range(5):
        inst = gen_random_instance(4, 2, (1, 4), (0, 6), 0.2, seed=40 + trial)
        search = solve_min_T(inst)
        for bump in (F(1, 3), 1, 7):
            bigger = build_assignment_lp(integer_times(inst), search.t_star + bump)
            assert lpmod.solve_lp(bigger).status == lpmod.OPTIMAL


def test_quantize_example_row():
    fa = FractionalAssignment(x=[[F(3, 10), F(7, 10)]], T=F(5))
    assert quantize_dyadic(fa, 2) == [[1, 3]]  # x' = (1/4, 3/4)


def test_quantize_fixpoint():
    fa = FractionalAssignment(x=[[F(1, 4), F(3, 4)]], T=F(5))
    q = quantize_dyadic(fa, 2)
    assert q == _slot_counts(fa.x, 2) == [[1, 3]]


def test_quantize_preserves_row_sums_and_cells():
    rng = random.Random(10)
    for trial in range(20):
        m = rng.randint(2, 4)
        weights = [F(rng.randint(1, 9)) for _ in range(m)]
        total = sum(weights)
        row = [w / total for w in weights]
        level = rng.randint(2, 5)
        fa = FractionalAssignment(x=[row], T=F(3))
        (counts,) = quantize_dyadic(fa, level)
        unit = F(1, 2 ** level)
        assert all(type(c) is int for c in counts) and sum(counts) == 2 ** level
        for before, after in zip(row, _fractions([counts], level)[0]):
            assert abs(after - before) < unit  # stays inside its grid cell


def test_quantize_window_increase_bound():
    rng = random.Random(11)
    for trial in range(8):
        inst = gen_random_instance(5, 2, (1, 4), (0, 6), 0.0, seed=60 + trial)
        search = solve_min_T(inst)
        level = 3
        q = quantize_dyadic(search.assignment, level)
        bound = quantized_bound(search.assignment, p_max(inst), level)
        assert bound <= search.t_star + p_max(inst)
        fa2 = FractionalAssignment(x=_fractions(q, level), T=bound)
        assert fractional_assignment_violations(inst, fa2) == []


def _slot_counts(x, level):
    """A matrix on the 1/2^level grid as its integer slot counts 2^level x_ij."""
    counts = [[v * 2 ** level for v in row] for row in x]
    assert all(c.denominator == 1 for row in counts for c in row)
    return [[int(c) for c in row] for row in counts]


def _fractions(counts, level):
    """The matrix that a level's slot counts stand for."""
    return [[F(c, 2 ** level) for c in row] for row in counts]


def _round_plain(inst, fa, colorer):
    """Round a half-integral assignment of a plain instance as its level-1
    split of 2x: (the assignment of every job, D, the split's p_max_level)."""
    sp = split_to_pair_instance(integer_times(inst), _slot_counts(fa.x, 1), 1, fa.T)
    asg, d = round_half_integral_maxflow(sp, colorer)
    return MachineAssignment(tuple(row.index(1) for row in sp.merge_assignment(asg))), d, sp.p_max_level


def test_split_identity_level():
    inst = make_instance(2, [(0, [4, 6])])
    sp = split_to_pair_instance(integer_times(inst), [[1, 1]], 1, F(6))  # x = (1/2, 1/2)
    assert sp.pairs == [(0, 1)]
    assert sp.instance.jobs[0].proc == (F(4), F(6))  # p' = p at level 1


def test_split_level_two_pairing():
    inst = make_instance(2, [(0, [4, 8])])
    sp = split_to_pair_instance(integer_times(inst), [[3, 1]], 2, F(8))  # x = (3/4, 1/4)
    # the pieces are (0, 1), a half-job, and (0, 0), an integral piece
    assert sp.pairs == [(0, 1)]
    assert sp.integral_counts == [[1, 0]]
    assert sp.instance.jobs[0].proc == (F(2), F(4))  # p / 2
    assert sp.fixed_load == [{F(0): F(2)}, {}]  # the integral piece's p / 2


def test_split_integral_job_degenerate_pair():
    inst = make_instance(2, [(0, [4, 8])])
    sp = split_to_pair_instance(integer_times(inst), [[2, 0]], 1, F(8))  # x = (1, 0)
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
        sp = split_to_pair_instance(integer_times(inst), _slot_counts(x, level), level, F(50))
        # folding the canonical half-assignment back, with each integral piece
        # as two slots on its machine, gives the original fractions
        counts = [[F(2 * c, 2 ** level) for c in row] for row in sp.integral_counts]
        for jp, (i1, i2) in enumerate(sp.pairs):
            assert i1 != i2
            j = sp.origin[jp]
            counts[j][i1] += F(1, 2 ** level)
            counts[j][i2] += F(1, 2 ** level)
        assert counts == x


def test_split_rejects_bad_counts():
    # job 1 cannot use machine 1; at level 2 every row must sum to 4
    inst = make_instance(2, [(0, [4, 8]), (1, [2, None])])
    for counts, message in [
        ([[F(3, 2), F(5, 2)], [4, 0]], "count[0][0] = Fraction(3, 2) is not a nonnegative int"),
        ([[3.0, 1], [4, 0]], "count[0][0] = 3.0 is not a nonnegative int"),
        ([[True, 3], [4, 0]], "count[0][0] = True is not a nonnegative int"),
        ([[5, -1], [4, 0]], "count[0][1] = -1 is not a nonnegative int"),
        ([[3, 2], [4, 0]], "job 0: counts sum to 5, not 2^2"),
        ([[3, 1], [3, 1]], "count[1][1] = 1 on a forbidden machine"),
        ([[3, 1]], "counts must be 2 rows of 2"),
        ([[3, 1, 0], [4, 0]], "counts must be 2 rows of 2"),
    ]:
        with pytest.raises(ValidationError) as info:
            split_to_pair_instance(integer_times(inst), counts, 2, F(8))
        assert str(info.value) == message
    assert split_to_pair_instance(integer_times(inst), [[3, 1], [4, 0]], 2, F(8)).pairs == [(0, 1)]


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


def _reference_merge(origin, asg, n, m):
    """The merged level h-1 slot counts, counting every piece of the reference split."""
    counts = [[0] * m for _ in range(n)]
    for jp, machine in enumerate(asg.assign):
        counts[origin[jp]][machine] += 1
    return counts


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
        sp = split_to_pair_instance(integer_times(inst), _slot_counts(fa.x, level), level, fa.T)
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
            at_T = dataclasses.replace(sp, T=T)
            lines = _fraction_violations(at_T.instance, at_T.assignment, at_T.fixed_load)
            assert lines == fractional_assignment_violations(*ref_args)
            seen["overloaded" if lines else "feasible"] += 1
            for colorer in [color_greedy] + ([brute] if len(keep) <= 10 else []):
                if lines:
                    with pytest.raises(ValidationError) as ref_err:
                        _round_plain(*ref_args, colorer)
                    with pytest.raises(ValidationError) as err:
                        round_half_integral_maxflow(at_T, colorer)
                    assert str(err.value) == str(ref_err.value)
                    continue
                ref_asg, ref_d, _ = _round_plain(*ref_args, colorer)
                asg, d = round_half_integral_maxflow(at_T, colorer)
                assert d == ref_d
                assert asg.assign == tuple(ref_asg.assign[k] for k in keep)
                merged = sp.merge_assignment(asg)
                assert merged == _reference_merge(ref_origin, ref_asg, inst.n, m)
                assert all(type(c) is int for row in merged for c in row)
                assert all(sum(row) == 2 ** (level - 1) for row in merged)
    assert all(seen.values()), seen


def test_leftover_check_sees_fixed_load(monkeypatch):
    # x = (3/4, 1/4) at level 2: half-job (0, 1) with p' = (2, 2) and one
    # integral piece on machine 0, a fixed load of 2; machine 0 carries 3 = T.
    # With the achieved discrepancy forced to 0 the bound stays T, so sending
    # the half-job to machine 0 (load 4) must trip the leftover check, which
    # only sees that overload through the fixed load.
    inst = make_instance(2, [(0, [4, 4])])
    fa = FractionalAssignment(x=[[F(3, 4), F(1, 4)]], T=F(3))
    sp = split_to_pair_instance(integer_times(inst), [[3, 1]], 2, fa.T)
    ref_inst, ref_fa, _, _ = _reference_split(inst, fa, 2)
    monkeypatch.setattr(maxflow, "discrepancy", lambda seq, mode: SimpleNamespace(value=F(0)))
    to_first = lambda seq: [1] * len(seq.vectors)  # noqa: E731
    with pytest.raises(InternalCheckError, match="machine 0 window"):
        _round_plain(ref_inst, ref_fa, to_first)
    with pytest.raises(InternalCheckError, match="machine 0 window"):
        round_half_integral_maxflow(sp, to_first)


def test_full_round_records_reference_levels(monkeypatch):
    # every level's p_max_level and D are those of the whole-piece split
    calls = []
    real_split = maxflow.split_to_pair_instance

    def spy(times, counts, level, T):
        calls.append((FractionalAssignment(x=_fractions(counts, level), T=T), level))
        return real_split(times, counts, level, T)

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
            assert rec.discrepancy == _round_plain(ref_inst, ref_fa, color_greedy)[1]
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
    asg, d, _ = _round_plain(inst, fa, brute)
    assert asg.assign == (0, 1) and d == 0


def test_round_symmetric_two_jobs_opposite_machines():
    inst = make_instance(2, [(0, [2, 2]), (0, [2, 2])])
    fa = FractionalAssignment(x=[[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], T=F(2))
    asg, d, _ = _round_plain(inst, fa, brute)
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
    col = {(j, i): lp.add_variable((j, i)) for j in range(inst.n) for i in range(inst.m) if usable[j][i]}
    for j in range(inst.n):
        lp.constraints.append(lpmod.Constraint({col[j, i]: 1 for i in range(inst.m) if usable[j][i]},
                                               lpmod.EQ, 1))
    times = sorted({job.release for job in inst.jobs})
    for i in range(inst.m):
        for a, t1 in enumerate(times):
            for t2 in times[a:]:
                coeffs = {col[j, i]: job.proc[i] for j, job in enumerate(inst.jobs)
                          if t1 <= job.release <= t2 and usable[j][i]}
                if coeffs:
                    lp.constraints.append(lpmod.Constraint(coeffs, lpmod.LE, t2 - t1 + T))
    return lp


def test_carry_rows_match_quadratic_windows(complete_carries, relabel):
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
            lp, ref_lp = build_assignment_lp(integer_times(inst), T), _quadratic_assignment_lp(inst, T)
            assert sum(c.relation == lpmod.LE for c in lp.constraints) <= (2 * releases - 1) * inst.m
            sol, ref = lpmod.solve_lp(lp), lpmod.solve_lp(ref_lp)
            assert sol.status == ref.status
            statuses.add(sol.status)
            if sol.status == lpmod.OPTIMAL:
                x = relabel(lp, sol.values, ref_lp)
                assert lpmod.check_point(ref_lp, x) == []
                assert lpmod.check_point(lp, complete_carries(lp, relabel(ref_lp, ref.values, lp))) == []
    assert statuses == {lpmod.OPTIMAL, lpmod.INFEASIBLE}


def test_round_load_identity_and_bound():
    rng = random.Random(17)
    for trial in range(10):
        inst = gen_random_instance(rng.randint(2, 7), rng.randint(2, 4),
                                   (1, 5), (0, 8), 0.2, seed=900 + trial)
        fa = _random_half_integral(inst, rng)
        assert fractional_assignment_violations(inst, fa) == []
        asg, d, pmax = _round_plain(inst, fa, brute)
        # exact identity: every window's load moves by p_max times the signed
        # difference of two coloring prefix sums
        halves, vectors = rounding_vectors(inst, fa, pmax)
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
    kinds = {"overloaded": 0, "entry": 0, "clean": 0}
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
        fa = FractionalAssignment(x=x, T=T)
        lines = fractional_assignment_violations(inst, fa)
        assert lines == _fraction_violations(inst, fa)
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

    def split(times, counts, level, T):
        fa = FractionalAssignment(x=_fractions(counts, level), T=T)
        splits.append((fa, level, real_split(times, counts, level, T)))
        return splits[-1][2]

    monkeypatch.setattr(maxflow, "split_to_pair_instance", split)
    full_round_maxflow(inst, color_greedy)
    monkeypatch.undo()
    return splits


def _tampered_merges(inst, fa, h, sp, rng):
    """The split of ``fa`` with one count moved, with one int fixed load
    raised, or with a lower T, each as (what changed, split)."""
    unit = F(1, 2 ** h)
    for j in rng.sample(range(inst.n), min(inst.n, 3)):
        src = [i for i in range(inst.m) if fa.x[j][i] > 0]
        dst = [i for i in range(inst.m) if inst.jobs[j].proc[i] is not None]
        a, b = rng.choice(src), rng.choice(dst)
        if a != b:
            x = [row[:] for row in fa.x]
            x[j][a] -= unit
            x[j][b] += unit
            yield "count", split_to_pair_instance(integer_times(inst), _slot_counts(x, h), h, fa.T)
    pieces = [(j, i) for j, row in enumerate(sp.integral_counts) for i, c in enumerate(row) if c]
    for j, i in rng.sample(pieces, min(len(pieces), 2)):
        # as if job j had more integral pieces on machine i
        fixed = [dict(loads) for loads in sp.fixed]
        load = rng.randint(1, 2 ** (h - 1)) * inst.jobs[j].proc[i] / 2 ** (h - 1)
        fixed[i][scaled(inst.jobs[j].release, sp.scale)] += scaled(load, sp.scale)
        yield "fixed", dataclasses.replace(sp, fixed=fixed)
    ref_inst, ref_fa, _, _ = _reference_split(inst, fa, h)
    # the worst window's excess: at it the windows pass, just below it they fail
    tight = max(load - (t2 - t1) for (i, t1, t2), load in _window_loads(ref_inst, ref_fa.x).items())
    for T in (fa.T - F(1, 2 ** h), tight, tight - F(1, 2 ** h)):
        if T < fa.T:
            yield "T", split_to_pair_instance(integer_times(inst), _slot_counts(fa.x, h), h, T)


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
            splits = [sp] + [bad for _, bad in _tampered_merges(inst, fa, h, sp, rng)]
            for k, bad in enumerate(splits):
                full = _fraction_violations(bad.instance, bad.assignment, bad.fixed_load)
                if full:
                    with pytest.raises(ValidationError) as err:
                        round_half_integral_maxflow(bad, color_greedy)
                    assert str(err.value) == "input assignment infeasible: " + "; ".join(full)
                else:
                    round_half_integral_maxflow(bad, color_greedy)
                assert k or not full  # the real level passes
                seen["tampered" if k else "levels"] += 1
                seen["rejected"] += bool(full)
    assert seen["tampered"] > seen["rejected"] > 20, seen


def _fraction_split(inst, counts, level, T):
    """split_to_pair_instance on Fraction times (reference): the half-job
    instance, its 1/2 assignment, the fixed loads and p_max_level as
    Fractions, with the pairs, origins and integral counts."""
    half = 2 ** (level - 1)
    jobs, origin, pairs = [], [], []
    fixed = [{} for _ in range(inst.m)]
    integral_counts = [[0] * inst.m for _ in range(inst.n)]
    top = F(0)
    for j, (job, row) in enumerate(zip(inst.jobs, counts)):
        top = max([top, *(p for cnt, p in zip(row, job.proc) if cnt)])
        slots = [i for i, cnt in enumerate(row) for _ in range(cnt)]
        q = 0
        while q < half and slots[q] != slots[2 * half - 1 - q]:
            pair = slots[q], slots[2 * half - 1 - q]
            proc = [None] * inst.m
            for i in pair:
                proc[i] = job.proc[i] / half
            jobs.append(Job(release=job.release, proc=tuple(proc)))
            origin.append(j)
            pairs.append(pair)
            q += 1
        if q < half:
            i = slots[q]
            integral_counts[j][i] = half - q
            fixed[i][job.release] = fixed[i].get(job.release, 0) + (half - q) * job.proc[i] / half
    x = [[F(1, 2) if i in pair else F(0) for i in range(inst.m)] for pair in pairs]
    return SimpleNamespace(instance=SchedulingInstance(m=inst.m, jobs=tuple(jobs)),
                           assignment=FractionalAssignment(x=x, T=T), fixed_load=fixed,
                           p_max_level=top / half, pairs=pairs, origin=origin,
                           integral_counts=integral_counts)


def _fraction_round(inst, fa, colorer, fixed_load, pmax):
    """round_half_integral_maxflow on a Fraction instance of half-jobs, its
    1/2 assignment and fixed loads (reference); D is measured by
    `maxflow.discrepancy`, which a test may patch."""
    bad = _fraction_violations(inst, fa, fixed_load)
    if bad:
        raise ValidationError("input assignment infeasible: " + "; ".join(bad))
    halves, vectors = _fraction_rounding_vectors(inst, fa, pmax or 1)  # p_max = 0: zero vectors
    seq = SignedVectorSequence(m=inst.m, vectors=vectors)
    signs = colorer(seq) if halves else []
    achieved = maxflow.discrepancy(seq.with_signs(signs), PREFIX).value if halves else F(0)
    assign = [None] * inst.n
    for (j, i1, i2), sign in zip(halves, signs):
        assign[j] = i1 if sign == 1 else i2
    x = [[F(i == a) for i in range(inst.m)] for a in assign]
    leftover = _fraction_violations(inst, FractionalAssignment(x=x, T=fa.T + 2 * achieved * pmax), fixed_load)
    if leftover:
        raise InternalCheckError("rounded assignment violates its discrepancy bound: " + "; ".join(leftover))
    return MachineAssignment(assign=tuple(assign)), achieved


def _split_counts(sp):
    """The slot counts that ``sp`` splits: two per integral piece, one on
    each machine of a half-job."""
    counts = [[2 * c for c in row] for row in sp.integral_counts]
    for j, (i1, i2) in zip(sp.origin, sp.pairs):
        counts[j][i1] += 1
        counts[j][i2] += 1
    return counts


def _outcome(round_level, *args):
    """What a rounding call returns, or the type and text of what it raises."""
    try:
        return round_level(*args)
    except (ValidationError, InternalCheckError) as exc:
        return type(exc), str(exc)


def _round_both(inst, level, sp, monkeypatch, raised=False):
    """Round ``sp`` on its ints and the reference split of its counts on
    Fractions, with the coloring's D and with D forced to 0; require the
    same views, merged counts, D and error text, and return both outcomes'
    kinds.  With ``raised`` (a test raised sp's int fixed loads) the
    reference takes sp's fixed-load view."""
    ref = _fraction_split(inst, _split_counts(sp), level, sp.T)
    assert (sp.pairs, sp.origin, sp.integral_counts) == (ref.pairs, ref.origin, ref.integral_counts)
    assert (sp.instance, sp.assignment, sp.p_max_level) == (ref.instance, ref.assignment, ref.p_max_level)
    assert raised or sp.fixed_load == ref.fixed_load
    fixed = sp.fixed_load if raised else ref.fixed_load
    kinds = []
    for zero_d in (False, True):
        if zero_d:
            monkeypatch.setattr(maxflow, "discrepancy", lambda seq, mode: SimpleNamespace(value=F(0)))
        got = _outcome(round_half_integral_maxflow, sp, color_greedy)
        want = _outcome(_fraction_round, ref.instance, ref.assignment, color_greedy, fixed, ref.p_max_level)
        monkeypatch.undo()
        assert got == want
        if isinstance(got[0], MachineAssignment):
            merged = [row[:] for row in ref.integral_counts]
            for j, machine in zip(ref.origin, want[0].assign):
                merged[j][machine] += 1
            assert sp.merge_assignment(got[0]) == merged
            kinds.append("rounded")
        else:
            kinds.append("leftover" if got[0] is InternalCheckError else
                         "entry" if "processing time exceeds" in got[1] else "window")
    return kinds


def test_int_level_matches_fraction_reference(times_instance, monkeypatch):
    # fractional times (a scale above 1), forbidden machines, p = 0, m = 2
    # and 3, levels 1..5 on random slot counts, then every level of the
    # pipeline and its tampered splits: the int level gives the Fraction
    # level's views, counts and D, and the text of every input and leftover error
    rng = random.Random(2707)
    seen = dict.fromkeys(["scaled", "levels", "rounded", "entry", "window", "leftover"], 0)
    for trial in range(60):
        inst = times_instance(rng, rng.choice([2, 3]))
        seen["scaled"] += integer_times(inst)[0] > 1
        level = 1 + trial % 5
        counts = _slot_counts(_random_dyadic(inst, level, rng), level)
        ref_inst, ref_fa, _, _ = _reference_split(inst, FractionalAssignment(x=_fractions(counts, level), T=0),
                                                  level)
        tight = max(load - (t2 - t1) for (i, t1, t2), load in _window_loads(ref_inst, ref_fa.x).items())
        times = integer_times(inst)
        pml = split_to_pair_instance(times, counts, level, tight).p_max_level
        for T in sorted({tight, tight - F(1, 2 ** level), pml - F(1, 3), max(tight, pml) + F(1, 3)}):
            for kind in _round_both(inst, level, split_to_pair_instance(times, counts, level, T), monkeypatch):
                seen[kind] += 1
    for trial in range(16):
        inst = _trial_instance(rng, trial)
        for fa, h, sp in _levels_of(monkeypatch, inst):
            seen["levels"] += 1
            for kind in _round_both(inst, h, sp, monkeypatch):
                seen[kind] += 1
            for change, bad in _tampered_merges(inst, fa, h, sp, rng):
                for kind in _round_both(inst, h, bad, monkeypatch, raised=change == "fixed"):
                    seen[kind] += 1
    assert min(seen.values()) >= 10, seen


def test_full_round_checks_every_level_twice(monkeypatch):
    # one window scan per check: the LP's x at T*, then every level's input
    # and leftover, none skipped
    rng = random.Random(77)
    for trial in range(12):
        inst = _trial_instance(rng, trial)
        calls = []
        real = maxflow._window_lines

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(maxflow, "_window_lines", counted)
        _, trace = full_round_maxflow(inst, color_greedy)
        monkeypatch.undo()
        assert len(trace.levels) >= 1
        assert len(calls) == 2 * len(trace.levels) + 1


def test_full_round_checks_the_lp_assignment_at_t_star(monkeypatch):
    # an x that puts both jobs on machine 0 overloads its window [0,0] at T* = 2
    inst = make_instance(2, [(0, [2, 2]), (0, [2, 2])])
    overloaded = FractionalAssignment(x=[[1, 0], [1, 0]], T=2)
    monkeypatch.setattr(maxflow, "solve_min_T",
                        lambda inst: maxflow.MinTSearch(t_star=F(2), assignment=overloaded, ray=None))
    with pytest.raises(InternalCheckError) as err:
        full_round_maxflow(inst, color_greedy)
    assert str(err.value) == "LP assignment at T* = 2 infeasible: machine 0 window [0,0]: load 4 > 2"


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
        lp = build_assignment_lp(integer_times(inst), search.t_star)
        witness = lpmod.solve_lp(lp)
        assert search.assignment == maxflow.assignment_from_solution(inst, search.t_star, lp, witness)
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
    assert lpmod.solve_lp(build_assignment_lp(integer_times(inst), below)).status == lpmod.INFEASIBLE
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


def _fraction_build_assignment_lp(inst, T):
    """build_assignment_lp on Fraction times (reference)."""
    T = F(T)
    lp = lpmod.LinearProgram()
    allowed = [[p is not None and p <= T for p in job.proc] for job in inst.jobs]
    col = {(j, i): lp.add_variable((j, i)) for j in range(inst.n) for i in range(inst.m) if allowed[j][i]}
    for j in range(inst.n):
        lp.constraints.append(lpmod.Constraint({col[j, i]: F(1) for i in range(inst.m) if allowed[j][i]},
                                               lpmod.EQ, 1))
    for i in range(inst.m):
        loads = {}
        for j, job in enumerate(inst.jobs):
            if allowed[j][i]:
                loads.setdefault(job.release, {})[col[j, i]] = job.proc[i]
        times = sorted(loads)
        carries = add_carry_rows(lp, (i,), [(loads[t], u - t) for t, u in zip(times, times[1:])])
        for t, carry_in in zip(times, [{}] + [{c: 1} for c in carries]):
            lp.constraints.append(lpmod.Constraint({**loads[t], **carry_in}, lpmod.LE, T))
    return lp


def test_assignment_lp_matches_fraction_reference(times_instance):
    rng = random.Random(2303)
    seen = {"scaled": 0, "int": 0, "pruned": 0}
    for trial in range(150):
        inst = times_instance(rng, rng.randint(1, 3), (1,) if trial % 3 == 0 else (1, 1, 2, 3, 4))
        scale = integer_times(inst)[0]
        points = sorted({p for _, _, p in inst.finite_procs()})
        bounds = {*points, *((a + b) / 2 for a, b in zip(points, points[1:])),
                  points[-1] + 1, points[-1] + F(1, 7), F(7, 3)}
        for T in sorted(bounds):
            lp, ref = build_assignment_lp(integer_times(inst), T), _fraction_build_assignment_lp(inst, T)
            # the same variables, and rows with equal coefficients in the same
            # order, relations and right-hand sides
            assert _lp_key(lp) == _lp_key(ref)
            values = [v for c in lp.constraints for v in (c.rhs, *c.coeffs.values())]
            if scale == 1 and T.denominator == 1:
                assert all(type(v) is int for v in values)  # the simplex takes them as they are
                seen["int"] += 1
            seen["scaled"] += scale > 1
            seen["pruned"] += len(lp.variables) < sum(1 for _ in inst.finite_procs())
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("value", [0.1, True], ids=["float", "bool"])
def test_bounds_and_assignments_reject_inexact_numbers(value):
    inst = make_instance(2, [(0, [1, 2])])
    match = f"got {type(value).__name__} {value!r}"
    with pytest.raises(ValidationError, match=match):
        build_assignment_lp(integer_times(inst), value)
    with pytest.raises(ValidationError, match=match):
        FractionalAssignment(x=[[value, 0]], T=2)
    with pytest.raises(ValidationError, match=match):
        FractionalAssignment(x=[[1, 0]], T=value)
    lp = build_assignment_lp(integer_times(inst), 2)
    sol = lpmod.solve_lp(lp)
    with pytest.raises(ValidationError, match=match):
        maxflow.assignment_from_solution(inst, value, lp, sol)
    assert maxflow.assignment_from_solution(inst, "2", lp, sol) == FractionalAssignment(x=[[1, 0]], T=2)


def _scaled_down(inst, k):
    return SchedulingInstance(m=inst.m, jobs=tuple(
        Job(release=job.release / k, proc=tuple(None if p is None else p / k for p in job.proc))
        for job in inst.jobs))


# Digests recorded with the Fraction LP builder, FIFO evaluator and simplex
# rows: the integer view must give the same T*, assignments, D values and
# flows past the sizes the other pins reach, and at a time scale of 3 with a
# Newton step to a fractional T*.
@pytest.mark.parametrize("inst,digest", [
    (gen_random_instance(96, 2, (1, 4), (0, 192), 0.2, seed=7),
     "547b69cb95143643bbfa67091cabc3a8518ae0a59d04f2e51b48f779f1038a1f"),
    (gen_random_instance(200, 2, (1, 4), (0, 400), 0.2, seed=7),
     "647256f581f58dc2a863155032df15943e4ea20223e51b4103679feace16be73"),
    (_scaled_down(gen_random_instance(24, 3, (1, 6), (0, 48), 0.2, seed=57), 3),
     "761e2b3a0f6cefc4a2829d2a06e2c3554c02cd833583866a14d610e232a9afbd"),
], ids=["n96", "n200", "n24-thirds"])
def test_larger_results_are_pinned(inst, digest):
    asg, trace = full_round_maxflow(inst, COLORERS["greedy"])
    out = json.dumps(result_to_json(trace, asg), sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if inst.n == 24:
        assert integer_times(inst)[0] == 3 and trace.t_star == F(7, 3)
        assert trace.t_star not in {p for _, _, p in inst.finite_procs()}


def _fraction_quantize(fa, level):
    """quantize_dyadic's snap on Fraction rows at unit 1/2^level, as slot counts (reference)."""
    unit = F(1, 2 ** level)
    return _slot_counts([list(snap_pairs(dict(enumerate(row)), unit).values()) for row in fa.x], level)


def _fraction_quantized_bound(inst, fa, level):
    """quantized_bound on Fractions (reference)."""
    return fa.T + p_max(inst) * F(inst.n, 2 ** level)


def _fraction_telescoped_bound(t_star, pmax, levels):
    """telescoped_bound on Fractions (reference)."""
    return t_star + pmax + sum((2 * d * pmax / F(2 ** (h - 1)) for h, d in levels), F(0))


def _fraction_search(inst):
    """solve_min_T on Fraction breakpoints, Fraction LPs and Fraction Newton
    roots (reference); returns (t_star, ray, assignment, the LPs it solves in order)."""
    t_floor = max(min(p for p in job.proc if p is not None) for job in inst.jobs)
    breakpoints = sorted({p for _, _, p in inst.finite_procs() if p >= t_floor})
    solved, order = {}, []

    def feasible(T):
        if T not in solved:
            lp = _fraction_build_assignment_lp(inst, T)
            solved[T] = lp, lpmod.solve_lp(lp)
            order.append(_lp_key(lp))
        return solved[T][1].status == lpmod.OPTIMAL

    lo, hi, first = 0, len(breakpoints) - 1, None
    if feasible(breakpoints[-1]):
        while lo <= hi:
            mid = (lo + hi) // 2
            if feasible(breakpoints[mid]):
                first, hi = mid, mid - 1
            else:
                lo = mid + 1
    ray = None
    if first == 0:
        T = breakpoints[0]
    else:
        cap = None if first is None else breakpoints[first]
        T = breakpoints[-1 if first is None else first - 1]
        while not feasible(T):
            lp, sol = solved[T]
            ray = T, sol.ray
            wb = sum(w * con.rhs for w, con in zip(sol.ray, lp.constraints))
            slope = sum(w for w, con in zip(sol.ray, lp.constraints)
                        if con.relation == lpmod.LE and min(con.coeffs.values()) >= 0)
            if cap is not None and -wb >= (cap - T) * slope:
                T = cap
            else:
                T -= wb / slope
    return T, ray, maxflow.assignment_from_solution(inst, T, *solved[T]), order


def _all_zero_instance(rng, m):
    """Every processing time 0 (p_max = 0), some forbidden; every job keeps a machine."""
    jobs = []
    for _ in range(rng.randint(1, 5)):
        row = [0 if rng.random() < 0.7 else None for _ in range(m)]
        jobs.append((rng.randint(0, 4), [0] + row[1:] if row == [None] * m else row))
    return make_instance(m, jobs)


def test_int_search_quantize_and_bounds_match_fraction_references(times_instance, monkeypatch):
    # fractional times (a scale above 1), forbidden machines, all-zero times
    # (p_max = 0), n = 1 (level 0, no rounding level), m = 1..3 and levels
    # 0..5: the search solves the same LPs in the same order and gives the
    # same T*, ray and x; the snap gives the reference's slot counts; both
    # bounds equal the Fraction formulas, in the pipeline too
    rng = random.Random(2909)
    seen = dict.fromkeys(["scaled", "forbidden", "zero", "single", "m1", "m3", "ray", "levels"], 0)
    for trial in range(120):
        m = 1 + trial % 3
        inst = _all_zero_instance(rng, m) if trial % 10 == 0 else times_instance(rng, m)
        pmax = p_max(inst)
        seen["scaled"] += integer_times(inst)[0] > 1
        seen["forbidden"] += any(p is None for job in inst.jobs for p in job.proc)
        seen["zero"] += pmax == 0
        seen["single"] += inst.n == 1
        seen["m1"] += m == 1
        seen["m3"] += m == 3
        t_star, ray, x, ref_order = _fraction_search(inst)
        order = []
        real = lpmod.solve_lp
        monkeypatch.setattr(lpmod, "solve_lp", lambda lp: order.append(_lp_key(lp)) or real(lp))
        search = solve_min_T(inst)
        monkeypatch.undo()
        assert order == ref_order
        assert (search.t_star, search.ray, search.assignment) == (t_star, ray, x)
        seen["ray"] += ray is not None
        for level in range(6):
            counts = quantize_dyadic(search.assignment, level)
            assert counts == _fraction_quantize(search.assignment, level)
            assert all(type(c) is int for row in counts for c in row)
            assert quantized_bound(search.assignment, pmax, level) == \
                _fraction_quantized_bound(inst, search.assignment, level)
        asg, trace = full_round_maxflow(inst, color_greedy)
        levels = [(rec.h, rec.discrepancy) for rec in trace.levels]
        seen["levels"] += len(levels)
        assert trace.t_quantized == _fraction_quantized_bound(inst, search.assignment, rounding_level(inst.n))
        assert trace.bound_value == _fraction_telescoped_bound(t_star, pmax, levels)
        assert check_result(inst, result_to_json(trace, asg)) == []
    assert min(seen.values()) >= 5, seen


def test_quantize_matches_fraction_snap_on_any_denominators():
    rng = random.Random(2910)
    for trial in range(300):
        weights = [rng.choice([0, 0, 1, 2, 3, 5, 7]) for _ in range(rng.randint(1, 4))]
        weights[rng.randrange(len(weights))] += 1
        den = rng.choice([1, 3, 10, 12, 64, 96])
        rows = [[F(w, sum(weights)) for w in weights]]
        rows.append([F(round(v * den), den) for v in rows[0][:-1]])
        rows[1].append(1 - sum(rows[1], F(0)))
        fa = FractionalAssignment(x=rows, T=F(rng.randint(0, 9), rng.choice([1, 2, 5])))
        level = rng.randint(0, 5)
        assert quantize_dyadic(fa, level) == _fraction_quantize(fa, level)


def test_quantize_refuses_a_lone_off_grid_entry():
    # a row summing to 5/8 leaves one entry off the 1/4 grid; the text names the
    # grid over the matrix's ints: 1/4 of the lcm 8 is 2, and of the lcm 24 is 6
    fa = FractionalAssignment(x=[[F(1, 8), F(1, 2)]], T=1)
    with pytest.raises(InternalCheckError, match=r"^0 alone is off the grid of 2, so the total is too$"):
        quantize_dyadic(fa, 2)
    with pytest.raises(InternalCheckError, match=r"^0 alone is off the grid of 6, so the total is too$"):
        quantize_dyadic(FractionalAssignment(x=[[F(1, 24), F(23, 24)], *fa.x], T=1), 2)
    with pytest.raises(ValidationError, match="level must be nonnegative"):
        quantize_dyadic(fa, -1)


def test_telescoped_bound_matches_fraction_reference():
    rng = random.Random(2911)
    for trial in range(300):
        t_star = F(rng.randint(0, 40), rng.choice([1, 2, 3, 7]))
        pmax = rng.choice([0, 1, 4, F(5, 3), F(7, 12)])
        top = rng.randint(0, 6)
        levels = [(h, F(rng.randint(0, 9), rng.choice([1, 2, 3, 4, 6, 8]))) for h in range(top, 0, -1)]
        assert telescoped_bound(t_star, pmax, levels) == _fraction_telescoped_bound(t_star, pmax, levels)
        assert type(telescoped_bound(t_star, pmax, levels)) is F


def test_each_search_and_run_builds_one_integer_view(monkeypatch):
    # one view in solve_min_T, one in full_round_maxflow and one per
    # evaluate_max_flow call, however many LPs the search solves
    calls, solves = [], []
    real_view, real_solve = core.integer_times, lpmod.solve_lp

    def counted(inst):
        calls.append(sys._getframe(1).f_code.co_name)
        return real_view(inst)

    monkeypatch.setattr(core, "integer_times", counted)
    monkeypatch.setattr(maxflow, "integer_times", counted)
    monkeypatch.setattr(lpmod, "solve_lp", lambda lp: solves.append(lp) or real_solve(lp))
    most = 0
    for seed in range(8):
        inst = gen_random_instance(8, 2, (1, 4), (0, 16), 0.2, seed=seed)
        calls.clear()
        solves.clear()
        solve_min_T(inst)
        assert calls == ["solve_min_T"]
        most = max(most, len(solves))
        calls.clear()
        asg, trace = full_round_maxflow(inst, color_greedy)
        assert sorted(calls) == ["evaluate_max_flow", "full_round_maxflow", "solve_min_T"]
        calls.clear()
        assert check_result(inst, result_to_json(trace, asg)) == []
        assert calls == ["evaluate_max_flow"]
    assert most >= 3
