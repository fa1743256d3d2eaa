import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

from flowdisc import sdp
from flowdisc.coloring import SignedVectorSequence
from flowdisc.sdp import (
    build_block_instance,
    choose_r,
    gaussian_measure_mc,
    group_prefix_sums,
    group_prefixes_in_K,
    in_body_K,
    sdp_prefix_discrepancy,
    search_block_coloring,
    signs_to_sdp_vectors,
)
from flowdisc.util import ValidationError


def test_block_construction_m1():
    seq = SignedVectorSequence(1, [[1]])
    block = build_block_instance(seq, 2)
    assert block.vector(0, 0) == [F(1), F(0)]
    assert block.vector(0, 1) == [F(0), F(1)]


def test_block_layout_m2_r3():
    seq = SignedVectorSequence(2, [[F(1, 2), F(-1, 3)]])
    block = build_block_instance(seq, 3)
    assert block.dim == 6
    v = block.vector(0, 2)
    assert v[2] == F(1, 2) and v[5] == F(-1, 3)
    assert all(v[c] == 0 for c in (0, 1, 3, 4))


def test_block_norm_preservation():
    rng = random.Random(3)
    for _ in range(10):
        m, n, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        vs = [[F(rng.randint(-5, 5), 5) for _ in range(m)] for _ in range(n)]
        seq = SignedVectorSequence(m, vs)
        block = build_block_instance(seq, r)
        for j in range(n):
            base_sq = sum(x * x for x in vs[j])
            for slot in range(r):
                v = block.vector(j, slot)
                assert sum(x * x for x in v) == base_sq


def test_choose_r_reference_point():
    assert choose_r(F(1, 2), 4, 2) == 34


def test_choose_r_monotonicity():
    assert choose_r(1, 4, 2) < choose_r(F(1, 2), 4, 2)
    assert choose_r(F(1, 2), 8, 2) >= choose_r(F(1, 2), 4, 2)
    assert choose_r(F(1, 2), 4, 4) >= choose_r(F(1, 2), 4, 2)


def test_choose_r_inverse_square_scaling():
    ratio = choose_r(F(1, 4), 4, 2) / choose_r(F(1, 2), 4, 2)
    assert 3 <= ratio <= 5


def test_in_body_origin_and_negation():
    inside, sums = in_body_K([F(0)] * 6, 3, F(1, 2))
    assert inside and sums == [F(0), F(0)]
    point = [F(1), F(-1), F(1, 2), F(0), F(2), F(0)]
    ok, _ = in_body_K(point, 3, F(1, 2))
    ok_neg, _ = in_body_K([-x for x in point], 3, F(1, 2))
    assert ok == ok_neg


def test_in_body_boundary_is_inside():
    # one block exactly at (1+delta)^2 r = 27/4 for delta = 1/2, r = 3
    point = [F(3, 2), F(3, 2), F(3, 2)]
    ok, sums = in_body_K(point, 3, F(1, 2))
    assert ok and sums == [F(27, 4)]
    worse = [F(3, 2), F(3, 2), F(8, 5)]
    assert not in_body_K(worse, 3, F(1, 2))[0]


def test_in_body_dimension_mismatch():
    with pytest.raises(ValidationError):
        in_body_K([F(1)] * 5, 3, F(1, 2))


def test_signs_to_vectors_unit_norm_exact():
    sol = signs_to_sdp_vectors([1, 1, -1, 1, -1, -1], 3)
    assert sol.n == 2
    assert sol.norm_sq(0) == 1 and sol.norm_sq(1) == 1


def test_signs_to_vectors_example():
    sol = signs_to_sdp_vectors([1, 1], 2)
    assert sol.signs == [[1, 1]]  # w = (1/sqrt 2, 1/sqrt 2) as sign matrix


def test_flip_all_signs_keeps_value():
    rng = random.Random(7)
    seq = SignedVectorSequence(2, [[F(1, 2), F(1, 3)], [F(-1, 4), F(1, 5)]])
    signs = [rng.choice([-1, 1]) for _ in range(4)]
    a = sdp_prefix_discrepancy(seq, signs_to_sdp_vectors(signs, 2))
    b = sdp_prefix_discrepancy(seq, signs_to_sdp_vectors([-s for s in signs], 2))
    assert a.value_sq == b.value_sq


def test_single_vector_value_one():
    seq = SignedVectorSequence(1, [[1]])
    for signs in ([1, 1], [1, -1], [-1, 1]):
        rep = sdp_prefix_discrepancy(seq, signs_to_sdp_vectors(signs, 2))
        assert rep.value_sq == 1


def test_body_membership_matches_folded_value():
    # value^2 = max block prefix squared sum / r, cross-checked via in_body_K
    rng = random.Random(13)
    for trial in range(30):
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
        delta = F(rng.randint(1, 3), 3)
        folded = sdp_prefix_discrepancy(seq, signs_to_sdp_vectors(signs, r))
        lhs = group_prefixes_in_K(block, signs, delta)
        rhs = folded.value_sq <= (1 + delta) ** 2
        assert lhs == rhs
        # the squared value equals the worst block prefix sum divided by r
        worst = max(
            max(in_body_K(s, r, delta)[1]) for s in group_prefix_sums(block, signs)
        )
        assert folded.value_sq == worst / r


def test_search_block_coloring_backtracks_out_of_the_body():
    # +1, +1 leaves K (2^2 > (1 + 1/2)^2), so the search undoes the second +1
    block = build_block_instance(SignedVectorSequence(1, [[F(1)], [F(1)]]), 1)
    assert search_block_coloring(block, F(1, 2)) == [1, -1]


def test_search_block_coloring_certifies_bound():
    rng = random.Random(17)
    found = 0
    for trial in range(6):
        m, n, r = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 4)
        vs = []
        for _ in range(n):
            row = [F(rng.randint(-4, 4), 4) for _ in range(m)]
            if sum(x * x for x in row) > 1:
                row = [x / 2 for x in row]
            vs.append(row)
        seq = SignedVectorSequence(m, vs)
        block = build_block_instance(seq, r)
        signs = search_block_coloring(block, F(1, 2))
        if signs is None:
            continue
        found += 1
        assert group_prefixes_in_K(block, signs, F(1, 2))
        folded = sdp_prefix_discrepancy(seq, signs_to_sdp_vectors(signs, r))
        assert folded.value_sq <= (1 + F(1, 2)) ** 2
    assert found > 0  # the search succeeds on at least some desk-scale inputs


def test_mc_tail_within_target_at_reference_point():
    r = choose_r(F(1, 2), 4, 2)
    rep = gaussian_measure_mc(r, F(1, 2), 4, 2, 10 ** 5, seed=42)
    assert rep.within_target


def test_mc_delta_zero_near_half():
    rep = gaussian_measure_mc(12, 0, 4, 2, 10 ** 5, seed=1)
    assert abs(rep.fraction - 0.5) < 0.1


def test_mc_deterministic_and_converging():
    a = gaussian_measure_mc(8, F(1, 4), 4, 2, 10 ** 4, seed=5)
    b = gaussian_measure_mc(8, F(1, 4), 4, 2, 10 ** 4, seed=5)
    assert a.fraction == b.fraction
    big = gaussian_measure_mc(8, F(1, 4), 4, 2, 8 * 10 ** 4, seed=5)
    truth = gaussian_measure_mc(8, F(1, 4), 4, 2, 4 * 10 ** 5, seed=99)
    assert abs(big.fraction - truth.fraction) <= abs(a.fraction - truth.fraction) + 0.01


def test_mc_requires_enough_samples():
    with pytest.raises(ValidationError):
        gaussian_measure_mc(8, F(1, 4), 4, 2, 100, seed=0)


def _decimal_choose_r(delta, n, m):
    """choose_r evaluated in 60-digit decimal arithmetic (reference), with the
    smallest distance to the threshold seen at the returned r and at r - 1."""
    with localcontext() as ctx:
        ctx.prec = 60
        c = (1 + Decimal(delta.numerator) / Decimal(delta.denominator)) ** 2
        gaps = []
        r = 1
        while True:
            x = Decimal(2 * n * r * m).ln()
            gap = c * r - (r + 2 * (r * x).sqrt() + 2 * x)
            gaps = gaps[-1:] + [abs(gap)]
            if gap >= 0:
                return r, min(gaps)
            r += 1


def test_choose_r_matches_decimal_reference_on_a_grid():
    for delta in (F(1), F(3, 4), F(1, 2), F(2, 5), F(1, 3), F(1, 4)):
        for n in (1, 2, 4, 8, 16):
            for m in (1, 2, 3):
                r, gap = _decimal_choose_r(delta, n, m)
                assert gap > F(1, 10 ** 40)  # far above the decimal rounding error
                assert choose_r(delta, n, m) == r, (delta, n, m)


def test_choose_r_decides_near_the_threshold():
    # at r = 34 (delta = 1/2, n = 4, m = 2) the two sides differ by about 0.2,
    # so a tight threshold c sits within 1e-12 of the true left side
    x = Decimal(2 * 4 * 34 * 2).ln()
    lhs = 34 + 2 * (34 * x).sqrt() + 2 * x
    for eps in (F(1, 10 ** 12), -F(1, 10 ** 12)):
        c = F(lhs / 34) + eps
        assert sdp._tail_fits(34, 2 * 4 * 34 * 2, c) == (eps > 0)
