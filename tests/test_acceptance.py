"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test records a PASS/FAIL line in the terminal summary (see conftest).
Bounds are asserted with tolerance zero: rational comparisons only.
"""

import itertools
import random
from fractions import Fraction as F

from flowdisc import lp as lpmod
from flowdisc.coloring import (
    INTERVAL,
    ONE_SIDED,
    PREFIX,
    SignedVectorSequence,
    color_brute_force,
    color_floating,
    color_greedy,
    color_two_sparse_paired,
    discrepancy,
)
from flowdisc.core import (
    MachineAssignment,
    evaluate_max_flow,
    evaluate_total_flow_srpt,
    gen_periodic_instance,
    gen_random_instance,
    integer_times,
    make_instance,
    p_max,
)
from flowdisc.equivalence import (
    roundtrip_check,
    signs_from_assignment,
    slot_identity_violations,
    solve_constructed_integrally,
    two_sparse,
    vectors_to_maxflow_instance,
)
from flowdisc.game import (
    BREAKER,
    MAKER,
    GreedyMaker,
    PairingMaker,
    TreeBreaker,
    breaker_hard_instance,
    color_two_permutation,
    exhaustive_breaker_value,
    permutation_prefix_peaks,
    play_game,
)
from flowdisc.maxflow import (
    FractionalAssignment,
    fractional_assignment_violations,
    full_round_maxflow,
    round_half_integral_maxflow,
    solve_min_T,
    split_to_pair_instance,
)
from flowdisc.sdp import (
    build_block_instance,
    choose_r,
    gaussian_measure_mc,
    group_prefixes_in_K,
    sdp_prefix_discrepancy,
    signs_to_sdp_vectors,
)
from flowdisc.totalflow import (
    JobSplit,
    TimeIndexedSolution,
    aux_cost,
    build_time_indexed_lp,
    class_table,
    default_horizon,
    integral_assignment,
    measure_alpha,
    normalize_consistent_order,
    round_half_integral_totalflow,
    solution_violations,
)


def brute(seq):
    return color_brute_force(seq, PREFIX)


# --- shared seeded batch for criteria 1 and 2 --------------------------------

_SIZES = [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3),
          (7, 3), (7, 4), (8, 3), (9, 4), (10, 4)]


def _batch_instances():
    out = []
    for idx in range(25):
        n, m = _SIZES[idx % len(_SIZES)]
        out.append(gen_random_instance(n, m, (1, 5), (0, 2 * n), 0.2, seed=2000 + idx))
    return out


def _half_integral_for(inst, seed):
    """A feasible half-integral assignment at its tightest exact bound."""
    rng = random.Random(seed)
    x = []
    for j in range(inst.n):
        finite = [i for i in range(inst.m) if inst.jobs[j].proc[i] is not None]
        row = [F(0)] * inst.m
        if len(finite) >= 2 and rng.random() < 0.6:
            a, b = rng.sample(finite, 2)
            row[a] = row[b] = F(1, 2)
        else:
            row[rng.choice(finite)] = F(1)
        x.append(row)
    T = max(p for _, _, p in inst.finite_procs())
    times = sorted({job.release for job in inst.jobs})
    for i in range(inst.m):
        for a in range(len(times)):
            for b in range(a, len(times)):
                load = F(0)
                for j, job in enumerate(inst.jobs):
                    if times[a] <= job.release <= times[b] and job.proc[i] is not None:
                        load += x[j][i] * job.proc[i]
                T = max(T, load - (times[b] - times[a]))
    return FractionalAssignment(x=x, T=T)


def test_criterion_1_half_integral_rounding_bound(record):
    checked = 0
    for idx, inst in enumerate(_batch_instances()):
        fa = _half_integral_for(inst, seed=3000 + idx)
        assert fractional_assignment_violations(inst, fa) == []
        # rounded as its level-1 split of the slot counts 2x
        sp = split_to_pair_instance(integer_times(inst), [[int(2 * v) for v in row] for row in fa.x], 1, fa.T)
        halves, d = round_half_integral_maxflow(sp, brute)
        asg = MachineAssignment(tuple(row.index(1) for row in sp.merge_assignment(halves)))
        met = evaluate_max_flow(inst, asg)
        assert met.max_flow <= fa.T + 2 * d * sp.p_max_level, (idx, met.max_flow)
        checked += 1
    record("1 (half-integral rounding bound)", True, f"{checked} instances, exact")


def test_criterion_2_full_pipeline_telescoped_bound(record):
    checked = 0
    for inst in _batch_instances():
        asg, trace = full_round_maxflow(inst, color_greedy)
        pmax = p_max(inst)
        bound = trace.t_star + pmax + sum(
            (2 * rec.discrepancy * pmax / F(2 ** (rec.h - 1)) for rec in trace.levels),
            F(0),
        )
        assert trace.final_value <= bound
        checked += 1
    base = make_instance(2, [(0, [1, 1])] * 3)
    errors = []
    for copies in (2, 4, 8):
        inst = gen_periodic_instance(base, copies, period=F(2))
        _asg, trace = full_round_maxflow(inst, color_greedy)
        errors.append(trace.final_additive_error)
    monotone = all(b <= a for a, b in zip(errors, errors[1:]))
    assert monotone, errors
    record("2 (telescoped pipeline bound)", True,
           f"{checked} instances; periodic errors {[str(e) for e in errors]}")


def test_criterion_3_lp_lower_bounds_exhaustive(record):
    rng = random.Random(61)
    # assignment LP lower-bounds the best integral max flow
    for trial in range(5):
        n = rng.randint(3, 7)
        m = rng.randint(2, 3)
        inst = gen_random_instance(n, m, (1, 4), (0, 6), 0.2, seed=4000 + trial)
        t_star = solve_min_T(inst).t_star
        options = [[i for i in range(inst.m) if inst.jobs[j].proc[i] is not None]
                   for j in range(inst.n)]
        best = min(
            evaluate_max_flow(inst, MachineAssignment(assign)).max_flow
            for assign in itertools.product(*options)
        )
        assert t_star <= best
    # time-indexed LP lower-bounds the best integral SRPT total flow
    for trial in range(4):
        n = rng.randint(2, 5)
        inst = gen_random_instance(n, 2, (1, 3), (0, 3), 0.0, seed=4100 + trial)
        lp, _ = build_time_indexed_lp(inst)
        opt = lpmod.solve_lp(lp).objective_value
        best = min(
            evaluate_total_flow_srpt(inst, MachineAssignment(assign)).total_flow
            for assign in itertools.product(range(inst.m), repeat=inst.n)
        )
        assert opt <= best
    record("3 (LP lower bounds, exhaustive)", True, "9 instances enumerated")


def _random_ti_solution(inst, rng):
    H = default_horizon(inst) + 3
    entries = {}
    for j, job in enumerate(inst.jobs):
        finite = [i for i in range(inst.m) if job.proc[i] is not None]
        weights = [F(rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        total = sum(weights)
        for w in weights:
            i = rng.choice(finite)
            t = rng.randint(int(job.release), H - 1)
            key = (i, j, t)
            entries[key] = entries.get(key, F(0)) + (w / total) * job.proc[i]
    return TimeIndexedSolution(horizon=H, entries=entries)


def test_criterion_4_consistent_order_preservation(record):
    rng = random.Random(67)
    for trial in range(25):
        inst = gen_random_instance(rng.randint(1, 6), rng.randint(1, 3),
                                   (1, 6), (0, 5), 0.2, seed=5000 + trial)
        y = _random_ti_solution(inst, rng)
        assert solution_violations(inst, y) == []
        z = normalize_consistent_order(JobSplit.whole(inst), y)
        assert aux_cost(inst, y) == aux_cost(inst, z)
        for i in range(inst.m):
            for j in range(inst.n):
                assert y.job_machine_total(i, j) == z.job_machine_total(i, j)
        classes = class_table(inst)
        assert measure_alpha(y, classes).alpha == measure_alpha(z, classes).alpha
    record("4 (consistent order preservation)", True, "25 solutions, exact")


def _random_half_integral_ti(inst, rng):
    H = default_horizon(inst) + 4
    entries = {}
    for j, job in enumerate(inst.jobs):
        finite = [i for i in range(inst.m) if job.proc[i] is not None]
        if len(finite) >= 2 and rng.random() < 0.6:
            for i in rng.sample(finite, 2):
                t = rng.randint(int(job.release), H - 1)
                key = (i, j, t)
                entries[key] = entries.get(key, F(0)) + job.proc[i] / 2
        else:
            i = rng.choice(finite)
            for _ in range(2):
                t = rng.randint(int(job.release), H - 1)
                key = (i, j, t)
                entries[key] = entries.get(key, F(0)) + job.proc[i] / 2
    return TimeIndexedSolution(horizon=H, entries=entries)


def test_criterion_5_totalflow_rounding_bounds(record):
    rng = random.Random(71)
    for trial in range(25):
        inst = gen_random_instance(rng.randint(1, 6), rng.randint(1, 3),
                                   (1, 8), (0, 5), 0.2, seed=6000 + trial)
        y = _random_half_integral_ti(inst, rng)
        assert solution_violations(inst, y) == []
        split = JobSplit.whole(inst)  # a plain instance is rounded as its whole jobs
        ybar = normalize_consistent_order(split, y)
        alpha_in = measure_alpha(ybar, split.classes).alpha
        out, d = round_half_integral_totalflow(split, y, brute)
        assert integral_assignment(inst, out) is not None
        assert measure_alpha(out, split.classes).alpha <= alpha_in + 4 * d + 4
        compact = {}
        for j in range(inst.n):
            for i in range(inst.m):
                tot = ybar.job_machine_total(i, j)
                if tot:
                    t0 = min(t for (ii, jj, t) in ybar.entries if ii == i and jj == j)
                    compact[(i, j, t0)] = tot
        ycomp = TimeIndexedSolution(horizon=y.horizon, entries=compact)
        assert aux_cost(inst, out) <= aux_cost(inst, ycomp)
    record("5 (half-integral rounding, slack + cost)", True, "25 solutions, exact")


def test_criterion_6_equivalence(record):
    grid = [F(0), F(1, 4), F(3, 8), F(1, 2)]
    rng = random.Random(73)
    cases = 0
    for n in (1, 2, 3):
        for _ in range(4):
            vecs = []
            for _ in range(n):
                i1, i2 = rng.sample(range(2), 2)
                vecs.append(two_sparse(i1, i2, rng.choice(grid), rng.choice(grid)))
            inst = vectors_to_maxflow_instance(vecs, 2)
            assert solve_min_T(inst).t_star == 1
            asg, opt = solve_constructed_integrally(inst, vecs)
            signs = signs_from_assignment(inst, asg, vecs)
            assert slot_identity_violations(inst, asg, vecs, signs) == []
            seq = SignedVectorSequence(m=2, vectors=[v.to_vector(2) for v in vecs])
            extracted = discrepancy(seq.with_signs(signs), ONE_SIDED).value
            assert extracted <= opt
            rep = roundtrip_check(vecs, 2)
            assert rep.brute_value <= rep.extracted_value <= rep.opt_value
            cases += 1
    record("6 (equivalence, LP optimum exactly 1)", True, f"{cases} sequences")


def test_criterion_7_maker_bound_certified(record):
    for n in range(1, 11):
        for starter in (MAKER, BREAKER):
            for waits in (True, False):
                val = exhaustive_breaker_value([1] * n, PairingMaker(),
                                               starter=starter, allow_wait=waits)
                assert val <= 4, (n, starter, waits, val)
    record("7 (pairing maker bound 4, certified)", True,
           "n <= 10, both starters, waits on/off")


def test_criterion_8_two_sparse_and_two_permutation(record):
    rng = random.Random(79)
    for trial in range(100):
        n = rng.randint(1, 24)
        m = rng.randint(2, 4)
        vs = []
        for _ in range(n):
            row = [0] * m
            for coord in rng.sample(range(m), rng.randint(0, 2)):
                row[coord] = rng.choice([-1, 1])
            vs.append(row)
        seq = SignedVectorSequence(m, vs)
        signs = color_two_sparse_paired(seq)
        assert discrepancy(seq.with_signs(signs), PREFIX).value <= 8
        values = [rng.choice([-1, 0, 1]) for _ in range(n)]
        sigma = list(range(n))
        rng.shuffle(sigma)
        cols = color_two_permutation(values, sigma)
        a, b = permutation_prefix_peaks(values, sigma, cols)
        assert a <= 4 and b <= 4
    record("8 (paired <= 8, two-permutation <= 4)", True, "100 seeded inputs")


def test_criterion_9_breaker_structure_and_payoffs(record):
    payoffs = {"pairing": [], "greedy": []}
    for k in (2, 4, 6):
        values = breaker_hard_instance(k)
        for name, make_maker in (("pairing", lambda: PairingMaker(allow_fractional=True)),
                                 ("greedy", GreedyMaker)):
            tb = TreeBreaker(k)
            state, trace = play_game(values, make_maker(), tb, starter=BREAKER)
            # every build-phase breaker move passed the five-property check
            # (violations raise InternalCheckError inside the strategy)
            if k > 2:
                assert tb.checked_moves >= 1
            payoffs[name].append(max(trace))
    for name, series in payoffs.items():
        assert series == sorted(series), (name, series)
    detail = "; ".join(
        f"{name}: " + ", ".join(f"k={k}:{v}" for k, v in zip((2, 4, 6), series))
        for name, series in payoffs.items()
    )
    record("9 (breaker invariants + monotone payoffs)", True, detail)


def test_criterion_10_block_identity_and_mc_tail(record):
    rng = random.Random(83)
    for trial in range(20):
        m, n, r = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 4)
        vs = []
        for _ in range(n):
            row = [F(rng.randint(-4, 4), 4) for _ in range(m)]
            if sum(x * x for x in row) > 1:
                row = [x / 2 for x in row]
            vs.append(row)
        seq = SignedVectorSequence(m, vs)
        block = build_block_instance(seq, r)
        signs = [rng.choice([-1, 1]) for _ in range(n * r)]
        delta = F(rng.randint(1, 4), 4)
        in_k = group_prefixes_in_K(block, signs, delta)
        folded = sdp_prefix_discrepancy(seq, signs_to_sdp_vectors(signs, r))
        assert in_k == (folded.value_sq <= (1 + delta) ** 2)
    r = choose_r(F(1, 2), 4, 2)
    assert r == 34
    rep = gaussian_measure_mc(r, F(1, 2), 4, 2, 10 ** 5, seed=424242)
    assert rep.fraction <= rep.target + rep.slack
    record("10 (block identity + MC tail)", True,
           f"20 colorings; tail {rep.fraction:.2e} <= {rep.target:.2e} + {rep.slack:.2e}")


def _independent_enumerator(seq, mode):
    best = None
    for signs in itertools.product((-1, 1), repeat=seq.n):
        val = discrepancy(seq.with_signs(list(signs)), mode).value
        if best is None or val < best:
            best = val
    return best


def test_criterion_11_colorer_oracle_equivalence(record):
    rng = random.Random(89)
    for mode in (PREFIX, INTERVAL, ONE_SIDED):
        for seed in range(10):
            n = rng.randint(1, 12)
            m = rng.randint(1, 3)
            vs = [[F(rng.randint(-4, 4), 4) for _ in range(m)] for _ in range(n)]
            seq = SignedVectorSequence(m, vs)
            signs = color_brute_force(seq, mode)
            val = discrepancy(seq.with_signs(signs), mode).value
            assert val == _independent_enumerator(seq, mode), (mode, seed)
    for trial in range(20):
        n, m = rng.randint(1, 25), rng.randint(1, 3)
        vs = []
        for _ in range(n):
            row = [F(rng.randint(-9, 9)) for _ in range(m)]
            norm = sum(abs(x) for x in row)
            vs.append([x / norm for x in row] if norm > 1 else row)
        seq = SignedVectorSequence(m, vs)
        signs = color_floating(seq)
        assert discrepancy(seq.with_signs(signs), PREFIX).value <= 2 * m
    record("11 (brute force vs independent oracle; floating <= 2m)", True,
           "30 exhaustive comparisons, 20 floating runs")
