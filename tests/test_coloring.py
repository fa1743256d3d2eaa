import itertools
import json
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdisc import coloring
from flowdisc.coloring import (
    COLORERS,
    INTERVAL,
    ONE_SIDED,
    PREFIX,
    SignedVectorSequence,
    color_brute_force,
    color_floating,
    color_greedy,
    color_two_sparse_paired,
    discrepancy,
    seq_from_json,
    seq_to_json,
)
from flowdisc.util import ValidationError


def signed(m, vectors, signs):
    return SignedVectorSequence(m=m, vectors=vectors, signs=signs)


def test_discrepancy_hand_sums():
    s = signed(1, [[1], [1]], [1, -1])
    assert discrepancy(s, PREFIX).value == 1
    assert discrepancy(s, INTERVAL).value == 1
    s = signed(1, [[1], [1]], [1, 1])
    rep = discrepancy(s, PREFIX)
    assert rep.value == 2 and rep.witness == (0, 0, 1)
    s = signed(2, [[F(1, 2), F(-1, 2)]], [1])
    assert discrepancy(s, PREFIX).value == F(1, 2)
    assert discrepancy(s, ONE_SIDED).value == F(1, 2)


def test_discrepancy_one_sided_is_signed():
    # all-negative contributions: the one-sided value may be negative
    s = signed(1, [[1]], [-1])
    assert discrepancy(s, ONE_SIDED).value == -1
    assert discrepancy(s, PREFIX).value == 1


def test_discrepancy_uncolored_rejected():
    s = SignedVectorSequence(1, [[1], [1]], [1, 0])
    with pytest.raises(ValidationError):
        discrepancy(s, PREFIX)


def test_witness_reproduces_value():
    rng = random.Random(12)
    for trial in range(60):
        n, m = rng.randint(1, 7), rng.randint(1, 3)
        vs = [[F(rng.randint(-6, 6), 6) for _ in range(m)] for _ in range(n)]
        sg = [rng.choice([-1, 1]) for _ in range(n)]
        s = signed(m, vs, sg)
        for mode in (PREFIX, INTERVAL, ONE_SIDED):
            rep = discrepancy(s, mode)
            assert rep.reproduce(s) == rep.value


def _fraction_discrepancy(seq, mode):
    """Value and witness from Fraction prefix sums S_0 = 0, S_1, ..., S_n.

    Ties go to the first candidate in scan order (coordinate, then index), and
    each extreme prefix is the first one reaching it, as in `discrepancy`.
    """
    cands = []  # (value, witness) in scan order
    for i in range(seq.m):
        sums = [F(0)]
        for v, s in zip(seq.vectors, seq.signs):
            sums.append(sums[-1] + s * v[i])

        def first_min(stop):  # prefix index -1..stop-1 of the first smallest S
            return min(range(-1, stop), key=lambda k: sums[k + 1])

        if mode == PREFIX:
            cands += [(abs(sums[k + 1]), (i, 0, k)) for k in range(seq.n)]
        elif mode == INTERVAL:
            lo = first_min(seq.n)
            hi = max(range(-1, seq.n), key=lambda k: sums[k + 1])
            cands.append((sums[hi + 1] - sums[lo + 1], (i, min(lo, hi) + 1, max(lo, hi))))
        else:
            for k in range(seq.n):
                q = first_min(k)
                cands.append((sums[k + 1] - sums[q + 1], (i, q + 1, k)))
    return max(cands, key=lambda c: c[0])


def test_discrepancy_matches_fraction_reference():
    rng = random.Random(31)
    for trial in range(400):
        n, m = rng.randint(1, 12), rng.randint(1, 4)
        # each coordinate draws from its own denominators, so the common scale
        # differs from every coordinate's own one
        dens = [rng.sample((1, 2, 3, 4, 5, 6, 7, 9, 11), 2) for _ in range(m)]
        vs = [[F(rng.randint(-4, 4), rng.choice(dens[i])) for i in range(m)] for _ in range(n)]
        s = signed(m, vs, [rng.choice((-1, 1)) for _ in range(n)])
        for mode in (PREFIX, INTERVAL, ONE_SIDED):
            rep = discrepancy(s, mode)
            assert (rep.value, rep.witness) == _fraction_discrepancy(s, mode), (mode, vs)
            assert type(rep.value) is F


def _enumerate_optimum(seq, mode):
    """Independent exhaustive oracle: plain product loop, no pruning."""
    best = None
    for signs in itertools.product((-1, 1), repeat=seq.n):
        val = discrepancy(seq.with_signs(list(signs)), mode).value
        if best is None or val < best:
            best = val
    return best


def test_brute_force_examples():
    s = SignedVectorSequence(1, [[1], [1], [1]])
    signs = color_brute_force(s, PREFIX)
    assert discrepancy(s.with_signs(signs), PREFIX).value == 1
    s = SignedVectorSequence(1, [[F(3, 5)]] * 3)
    signs = color_brute_force(s, PREFIX)
    assert discrepancy(s.with_signs(signs), PREFIX).value == F(3, 5)
    s = SignedVectorSequence(2, [[F(1, 3), F(1, 2)]])
    signs = color_brute_force(s, PREFIX)
    assert discrepancy(s.with_signs(signs), PREFIX).value == F(1, 2)


def test_brute_force_is_global_optimum():
    rng = random.Random(8)
    for trial in range(12):
        n, m = rng.randint(1, 7), rng.randint(1, 3)
        vs = [[F(rng.randint(-4, 4), 4) for _ in range(m)] for _ in range(n)]
        s = SignedVectorSequence(m, vs)
        for mode in (PREFIX, INTERVAL, ONE_SIDED):
            signs = color_brute_force(s, mode)
            val = discrepancy(s.with_signs(signs), mode).value
            assert val == _enumerate_optimum(s, mode), (mode, vs)


def _pattern_value(cols, signs, mode) -> F:
    """Value of one sign pattern, per-coordinate scales (the former colorer's scorer)."""
    best = None
    for ints, scale in cols:
        run = 0
        if mode == PREFIX:
            peak = 0
            for k, s in enumerate(signs):
                run += s * ints[k]
                a = -run if run < 0 else run
                if a > peak:
                    peak = a
            val = F(peak, scale)
        elif mode == INTERVAL:
            lo = hi = 0
            for k, s in enumerate(signs):
                run += s * ints[k]
                if run < lo:
                    lo = run
                elif run > hi:
                    hi = run
            val = F(hi - lo, scale)
        else:
            mn = 0
            peak = None
            for k, s in enumerate(signs):
                run += s * ints[k]
                d = run - mn
                if peak is None or d > peak:
                    peak = d
                if run < mn:
                    mn = run
            val = F(peak, scale)
        if best is None or val > best:
            best = val
    return best


def _product_brute_force(seq, mode):
    """The former exhaustive colorer: every pattern in product order, rescored
    from scratch, strict `<` update (the reference for the depth-first search)."""
    cols = []
    for i in range(seq.m):
        scale = math.lcm(*(v[i].denominator for v in seq.vectors))
        cols.append(([int(v[i] * scale) for v in seq.vectors], scale))
    if mode == ONE_SIDED:
        candidates = itertools.product((-1, 1), repeat=seq.n)
    else:
        candidates = ((1,) + rest for rest in itertools.product((-1, 1), repeat=seq.n - 1))
    best_val = best_signs = None
    for signs in candidates:
        val = _pattern_value(cols, signs, mode)
        if best_val is None or val < best_val:
            best_val, best_signs = val, signs
    return list(best_signs), best_val


def _seeded_vectors(rng, kind, n, m):
    if kind == "ties":
        return [[rng.choice((-1, 0, 1)) for _ in range(m)] for _ in range(n)]
    if kind == "zero":
        return [[0] * m for _ in range(n)]
    if kind == "mixed":
        return [[F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5, 7))) for _ in range(m)]
                for _ in range(n)]
    # "negative": one-sided optimum below zero when every entry is <= 0
    return [[F(-rng.randint(0, 3), 3) for _ in range(m)] for _ in range(n)]


def test_brute_force_signs_match_product_enumeration():
    rng = random.Random(20)
    kinds = ("ties", "zero", "mixed", "negative")
    negative_optima = 0
    cases = 0
    for trial in range(1200):
        kind = kinds[trial % len(kinds)]
        n, m = trial % 10 + 1, rng.randint(1, 3)
        s = SignedVectorSequence(m, _seeded_vectors(rng, kind, n, m))
        for mode in (PREFIX, INTERVAL, ONE_SIDED):
            want, val = _product_brute_force(s, mode)
            assert color_brute_force(s, mode) == want, (kind, mode, s.vectors)
            negative_optima += mode == ONE_SIDED and val < 0
            cases += 1
    assert cases == 3600 and negative_optima > 100


def _unseeded_brute_force(seq, mode):
    """The exhaustive colorer with no walk bound: the same depth-first search,
    which takes its first leaf with no incumbent (the reference for the
    walk-bounded search).  The step functions are read from the module at
    call time, so a test can count their calls."""
    vecs = seq._ints
    n, m = seq.n, seq.m
    if mode == PREFIX:
        step, root, root_value = coloring._prefix_step, (0,) * m, 0
    elif mode == INTERVAL:
        step, root, root_value = coloring._interval_step, ((0, 0, 0),) * m, 0
    else:
        step, root, root_value = coloring._one_sided_step, ((0, 0),) * m, None
    first_signs = (-1, 1) if mode == ONE_SIDED else (1,)
    signs = [0] * n
    best_val = best_signs = None
    stack = [(0, s, root, root_value) for s in reversed(first_signs)]
    while stack:
        k, s, state, value = stack.pop()
        state, value = step(state, vecs[k], s, value)
        if best_val is None or value < best_val:
            signs[k] = s
            if k + 1 == n:
                best_val, best_signs = value, list(signs)
            else:
                stack += ((k + 1, 1, state, value), (k + 1, -1, state, value))
    return best_signs


def _two_sparse_eighths(rng, n, m):
    """2-sparse vectors on the 1/8 grid with l1 norm at most 1."""
    out = []
    for _ in range(n):
        a = rng.randint(-8, 8)
        b = rng.randint(abs(a) - 8, 8 - abs(a))
        v = [F(0)] * m
        for i, x in zip(rng.sample(range(m), 2), (a, b)):
            v[i] = F(x, 8)
        out.append(v)
    return out


def _long_vectors(rng, kind, n, m):
    if kind == "two_sparse":
        return _two_sparse_eighths(rng, n, m)
    if kind == "repeats":
        pool = [[F(rng.randint(-4, 4), 4) for _ in range(m)] for _ in range(rng.randint(1, 3))]
        return [rng.choice(pool) for _ in range(n)]
    return _seeded_vectors(rng, kind, n, m)  # "ties" or "negative"


def test_walk_bounded_search_matches_unseeded_reference_past_n10():
    rng = random.Random(22)
    negative_optima = 0
    cases = 0
    for kind in ("two_sparse", "ties", "repeats", "negative"):
        for n in range(11, 41):
            m = rng.randint(2, 3) if kind == "two_sparse" else rng.randint(1, 3)
            s = SignedVectorSequence(m, _long_vectors(rng, kind, n, m))
            for mode in (PREFIX, INTERVAL, ONE_SIDED):
                want = _unseeded_brute_force(s, mode)
                assert color_brute_force(s, mode, limit=n) == want, (kind, mode, s.vectors)
                if mode == ONE_SIDED:
                    negative_optima += discrepancy(s.with_signs(want), mode).value < 0
                cases += 1
    assert cases == 360 and negative_optima > 10


def test_walk_bound_cuts_step_calls(monkeypatch):
    calls = [0]
    for name in ("_prefix_step", "_interval_step", "_one_sided_step"):
        def counted(*args, step=getattr(coloring, name)):
            calls[0] += 1
            return step(*args)
        monkeypatch.setattr(coloring, name, counted)
    seeded = reference = 0
    for draw in range(5):
        s = SignedVectorSequence(3, _two_sparse_eighths(random.Random(640 + draw), 64, 3))
        calls[0] = 0
        want = _unseeded_brute_force(s, PREFIX)
        reference += calls[0]
        calls[0] = 0
        assert color_brute_force(s, PREFIX, limit=64) == want
        seeded += calls[0]  # the walk's 2n calls included
    assert seeded <= 0.6 * reference, (seeded, reference)


def test_brute_force_limit():
    s = SignedVectorSequence(1, [[1]] * 25)
    with pytest.raises(ValidationError):
        color_brute_force(s, PREFIX)


def test_greedy_examples():
    s = SignedVectorSequence(1, [[1]] * 4)
    assert color_greedy(s) == [1, -1, 1, -1]
    s = SignedVectorSequence(1, [[0], [0]])
    assert color_greedy(s) == [1, 1]
    s = SignedVectorSequence(1, [[1], [F(1, 2)]])
    g = color_greedy(s)
    assert g == [1, -1]
    assert discrepancy(s.with_signs(g), PREFIX).value == 1


def test_floating_two_opposing():
    s = SignedVectorSequence(1, [[1], [1]])
    signs = color_floating(s)
    assert sorted(signs) == [-1, 1]
    assert discrepancy(s.with_signs(signs), PREFIX).value <= 2


def test_floating_single_vector():
    s = SignedVectorSequence(3, [[F(1, 3), F(1, 3), F(-1, 3)]])
    signs = color_floating(s)
    assert signs[0] in (-1, 1)
    assert discrepancy(s.with_signs(signs), PREFIX).value <= 2 * 3


def test_floating_norm_precondition():
    s = SignedVectorSequence(2, [[1, 1]])
    with pytest.raises(ValidationError):
        color_floating(s)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_floating_bound_2m(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 30))
    vs = []
    for _ in range(n):
        row = [F(data.draw(st.integers(-10, 10)), 1) for _ in range(m)]
        norm = sum(abs(x) for x in row)
        vs.append([x / norm for x in row] if norm > 1 else row)
    s = SignedVectorSequence(m, vs)
    signs = color_floating(s)
    assert discrepancy(s.with_signs(signs), PREFIX).value <= 2 * m


def test_floating_beck_fiala_n30_m3():
    rng = random.Random(77)
    vs = []
    for _ in range(30):
        row = [F(rng.randint(-12, 12), 1) for _ in range(3)]
        norm = sum(abs(x) for x in row)
        vs.append([x / max(norm, 1) for x in row])
    s = SignedVectorSequence(3, vs)
    signs = color_floating(s)
    assert discrepancy(s.with_signs(signs), PREFIX).value <= 6


def test_paired_uniform_two_sparse():
    s = SignedVectorSequence(2, [[1, -1]] * 16)
    signs = color_two_sparse_paired(s)
    val = discrepancy(s.with_signs(signs), PREFIX).value
    assert val <= 2  # the guaranteed 8 is far from tight here
    brute = color_brute_force(s, PREFIX, limit=16)
    assert discrepancy(s.with_signs(brute), PREFIX).value <= val


def test_paired_one_sparse_reduces_to_single_game():
    rng = random.Random(5)
    vs = []
    for _ in range(18):
        coord = rng.randrange(3)
        row = [0, 0, 0]
        row[coord] = rng.choice([-1, 1])
        vs.append(row)
    s = SignedVectorSequence(3, vs)
    signs = color_two_sparse_paired(s)
    assert discrepancy(s.with_signs(signs), PREFIX).value <= 4


def test_paired_single_vector():
    s = SignedVectorSequence(2, [[1, -1]])
    signs = color_two_sparse_paired(s)
    assert discrepancy(s.with_signs(signs), PREFIX).value == 1


def test_paired_rejects_bad_entries():
    with pytest.raises(ValidationError):
        color_two_sparse_paired(SignedVectorSequence(2, [[F(1, 2), F(1, 2)]]))
    with pytest.raises(ValidationError):
        color_two_sparse_paired(SignedVectorSequence(3, [[1, 1, 1]]))


def test_paired_bound_eight_random():
    rng = random.Random(13)
    for trial in range(30):
        n, m = rng.randint(1, 20), rng.randint(2, 4)
        vs = []
        for _ in range(n):
            row = [0] * m
            for coord in rng.sample(range(m), rng.randint(0, 2)):
                row[coord] = rng.choice([-1, 1])
            vs.append(row)
        s = SignedVectorSequence(m, vs)
        signs = color_two_sparse_paired(s)
        assert discrepancy(s.with_signs(signs), PREFIX).value <= 8


def test_colorer_self_report_consistency():
    # every colorer's output must evaluate to what discrepancy() reports
    rng = random.Random(3)
    vs = [[F(rng.randint(-3, 3), 4) for _ in range(2)] for _ in range(8)]
    s = SignedVectorSequence(2, vs)
    for colorer in (lambda q: color_brute_force(q, PREFIX), color_greedy, color_floating):
        signs = colorer(s)
        assert all(x in (-1, 1) for x in signs)
        rep = discrepancy(s.with_signs(signs), PREFIX)
        assert rep.reproduce(s.with_signs(signs)) == rep.value


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_negation_invariance(data):
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 3))
    vs = [[F(data.draw(st.integers(-5, 5)), 5) for _ in range(m)] for _ in range(n)]
    sg = [data.draw(st.sampled_from([-1, 1])) for _ in range(n)]
    s = signed(m, vs, sg)
    neg = signed(m, [[-x for x in v] for v in vs], sg)
    for mode in (PREFIX, INTERVAL):
        assert discrepancy(s, mode).value == discrepancy(neg, mode).value


def test_seq_json_roundtrip():
    s = signed(2, [[F(1, 3), F(-1, 2)], [0, 1]], [1, -1])
    blob = json.dumps(seq_to_json(s), sort_keys=True)
    again = seq_from_json(json.loads(blob))
    assert again.vectors == s.vectors and again.signs == s.signs and again.m == s.m
    assert json.dumps(seq_to_json(again), sort_keys=True) == blob


def test_sequence_keeps_fractions_and_converts_the_rest():
    half = F(1, 2)
    s = SignedVectorSequence(2, [[half, 1], ("1/3", F(-1))])
    assert s.vectors == [(F(1, 2), F(1)), (F(1, 3), F(-1))]
    assert s.vectors[0][0] is half
    assert all(type(x) is F for v in s.vectors for x in v)
    t = s.with_signs([1, -1])
    assert t.signs == [1, -1] and s.signs == [0, 0]
    assert t.vectors == s.vectors and t.vectors is not s.vectors
    assert all(a is b for a, b in zip(t.vectors, s.vectors))  # the tuples are shared
    assert s.with_signs([]).signs == [0, 0]


@pytest.mark.parametrize("build", [
    lambda: SignedVectorSequence(0, []),
    lambda: SignedVectorSequence(2, [[1, 0], [1]]),
    lambda: SignedVectorSequence(1, [[1], [1]], [1]),
    lambda: SignedVectorSequence(1, [[1]], [2]),
    lambda: SignedVectorSequence(1, [[1], [1]]).with_signs([1, 0, -1]),
    lambda: SignedVectorSequence(1, [[1], [1]]).with_signs([1, 3]),
    lambda: SignedVectorSequence(1, [[1]]).with_signs(["+"]),
], ids=[f"<lambda>{k}" for k in range(7)])  # unique ids in pytest's own form, as strict mode needs
def test_sequence_checks_still_fire(build):
    with pytest.raises(ValidationError):
        build()


def _fraction_greedy(seq):
    """The greedy colorer on Fraction prefix sums (reference)."""
    sums = [F(0)] * seq.m
    signs = []
    for v in seq.vectors:
        plus = max(abs(s + x) for s, x in zip(sums, v))
        minus = max(abs(s - x) for s, x in zip(sums, v))
        eps = 1 if plus <= minus else -1
        signs.append(eps)
        sums = [s + eps * x for s, x in zip(sums, v)]
    return signs


def _seeded_sequences(rng, count):
    """Sequences with mixed denominators, zero vectors and exact ties."""
    for _ in range(count):
        n, m = rng.randint(0, 14), rng.randint(1, 4)
        dens = [rng.sample((1, 2, 3, 4, 5, 7, 9), 2) for _ in range(m)]
        vs = [[F(rng.randint(-3, 3), rng.choice(dens[i])) for i in range(m)] for _ in range(n)]
        if vs and rng.random() < 0.3:
            vs[rng.randrange(n)] = [F(0)] * m
        if n >= 2 and rng.random() < 0.3:
            vs[1] = [-x for x in vs[0]]  # a later tie between +1 and -1
        yield m, vs


def test_greedy_matches_fraction_reference():
    rng = random.Random(61)
    ties = 0
    for m, vs in _seeded_sequences(rng, 300):
        s = SignedVectorSequence(m, vs)
        assert color_greedy(s) == _fraction_greedy(s), vs
        ties += any(max(abs(x) for x in v) == 0 for v in s.vectors)
    assert ties  # the +1 tie rule was exercised


def test_scaled_integer_input_is_the_same_sequence():
    rng = random.Random(62)
    for m, vs in _seeded_sequences(rng, 120):
        s = SignedVectorSequence(m, vs)
        scale = math.lcm(*(x.denominator for v in s.vectors for x in v))
        ints = [[int(x * scale) for x in v] for v in s.vectors]
        t = SignedVectorSequence(m, ints, scale=scale)
        assert t == s and t.vectors == s.vectors
        assert all(type(x) is F for v in t.vectors for x in v)
        for name, colorer in COLORERS.items():
            try:
                expected = colorer(s)
            except ValidationError as exc:  # the paired colorer takes +-1 entries only
                with pytest.raises(ValidationError, match=re.escape(str(exc))):
                    colorer(t)
                continue
            assert colorer(t) == expected, name
            if s.n:
                for mode in (PREFIX, INTERVAL, ONE_SIDED):
                    assert discrepancy(t.with_signs(expected), mode) == \
                        discrepancy(s.with_signs(expected), mode)


def test_scaled_input_builds_its_fraction_view_on_first_read():
    rng = random.Random(63)
    for m, vs in _seeded_sequences(rng, 60):
        s = SignedVectorSequence(m, vs)
        scale = math.lcm(*(x.denominator for v in s.vectors for x in v))
        t = SignedVectorSequence(m, [[int(x * scale) for x in v] for v in s.vectors], scale=scale)
        signs = color_greedy(t)
        if 0 < t.n <= 8:
            assert color_brute_force(t, PREFIX) == color_brute_force(s, PREFIX)
        signed = t.with_signs(signs)
        if t.n:
            assert discrepancy(signed, PREFIX) == discrepancy(s.with_signs(signs), PREFIX)
        assert t._view is None and signed._view is None  # colored and measured on ints alone
        assert signed.vectors == s.vectors and t._view is None  # the copy built its own view
        assert t.vectors == s.vectors and t.vectors is t.vectors  # built once, then cached
        assert all(a is b for a, b in zip(t.vectors, t.vectors[1:]) if a == b)  # equal ones share a tuple


@pytest.mark.parametrize("ints, scale", [([[F(1, 2)]], 2), ([[True]], 1), ([[1]], 0), ([[1]], -2)])
def test_scaled_input_must_be_ints_over_a_positive_scale(ints, scale):
    with pytest.raises(ValidationError):
        SignedVectorSequence(1, ints, scale=scale)
