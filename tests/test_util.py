import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdisc import coloring, core, equivalence, game, lp, sdp, totalflow, util
from flowdisc.util import ValidationError, common_scale, exact, exact_fraction, rat_from_str, scaled, scaled_list


def _one_row_lp():
    """x <= 1 over one column x."""
    prog = lp.LinearProgram()
    prog.constraints.append(lp.Constraint({prog.add_variable("x"): 1}, lp.LE, 1))
    return prog


# Every entry point that takes a caller's number as exact, with that number in
# its slot: (module.name, call taking the number).
ENTRY_POINTS = {
    "core.gen_periodic_instance": lambda x: core.gen_periodic_instance(
        core.make_instance(1, [(0, [1])]), 2, x),
    "totalflow.class_index": totalflow.class_index,
    "totalflow.build_auxiliary_lp": lambda x: totalflow.build_auxiliary_lp(
        core.make_instance(1, [(0, [1])]), x),
    "totalflow.TimeIndexedSolution": lambda x: totalflow.TimeIndexedSolution(1, {(0, 0, 0): x}),
    "coloring.SignedVectorSequence": lambda x: coloring.SignedVectorSequence(1, [[x]]),
    "game.play_game": lambda x: game.play_game([x], game.GreedyMaker(), game.GreedyMaker()),
    "game.color_two_permutation": lambda x: game.color_two_permutation([x, 1], [1, 0]),
    "game.permutation_prefix_peaks": lambda x: game.permutation_prefix_peaks([x, 1], [1, 0], [1, -1]),
    "game.exhaustive_breaker_value": lambda x: game.exhaustive_breaker_value([x], game.GreedyMaker()),
    "equivalence.two_sparse": lambda x: equivalence.two_sparse(0, 1, x, 0),
    "equivalence.TwoSparseVector": lambda x: equivalence.TwoSparseVector(0, 1, 0, x),
    "sdp.choose_r": lambda x: sdp.choose_r(x, 1, 1),
    "sdp.in_body_K": lambda x: sdp.in_body_K([0], 1, x),
    "sdp.in_body_K-point": lambda x: sdp.in_body_K([x], 1, 1),
    "sdp.search_block_coloring": lambda x: sdp.search_block_coloring(
        sdp.build_block_instance(coloring.SignedVectorSequence(1, [[1]]), 1), x),
    "sdp.gaussian_measure_mc": lambda x: sdp.gaussian_measure_mc(1, x, 1, 1, 10 ** 4, 0),
    "lp.check_point": lambda x: lp.check_point(_one_row_lp(), {0: x}),
    "lp.farkas_violations": lambda x: lp.farkas_violations(_one_row_lp(), [x]),
    "util.rat_to_str": util.rat_to_str,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_takes_exact_numbers_only(name):
    call = ENTRY_POINTS[name]
    for bad in (0.1, True):
        with pytest.raises(ValidationError) as info:
            call(bad)
        message = str(info.value)
        assert "\n" not in message and f"got {type(bad).__name__} {bad!r}" in message, message
    for good in (1, F(1, 2), "1/2"):
        call(good)


def test_exact_keeps_ints_and_fractions_and_parses_strings():
    half = F(1, 2)
    assert exact(3) == 3 and type(exact(3)) is int
    assert exact(half) is half and exact_fraction(half) is half
    assert exact("0.1") == F(1, 10) and exact_fraction(3) == F(3) and type(exact_fraction(3)) is F
    for bad, message in (("abc", "bad rational literal 'abc'"), ("1/0", "bad rational literal '1/0'"),
                         (None, "got NoneType None")):
        with pytest.raises(ValidationError, match=re.escape(message)):
            exact(bad)


def test_common_scale_and_scaled_match_fraction_products():
    rng = random.Random(24)
    assert common_scale([]) == 1 and common_scale([3, -2]) == 1
    for _ in range(300):
        values = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(1, 8))]
        values += [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))]  # an int is over 1
        scale = common_scale(values)
        assert scale == math.lcm(*(F(v).denominator for v in values))
        for v in values:
            assert scaled(v, scale) == v * scale and type(scaled(v, scale)) is int
            assert scaled(v, 2 * scale) == 2 * v * scale


def test_scaled_list_matches_scaled_per_value():
    rng = random.Random(25)
    assert scaled_list([], 6) == []
    for _ in range(300):
        values = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(1, 8))]
        values += [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))]
        scale = common_scale(values)
        values += [None] * rng.randint(0, 2)  # a forbidden machine's time
        rng.shuffle(values)
        for s in (scale, 3 * scale):
            ints = scaled_list(iter(values), s)  # any iterable
            assert ints == [None if v is None else scaled(v, s) for v in values]
            assert all(type(w) is int for w in ints if w is not None) and ints.count(None) == values.count(None)


def _parsed(parse, s):
    """What ``parse(s)`` gives: its value and type, or its error text."""
    try:
        value = parse(s)
    except ValidationError as exc:
        return "error", str(exc)
    return type(value), value


# ASCII and Arabic-Indic digits, signs, the separators a literal may hold,
# and a superscript digit that is a str digit but no decimal one
_RATIONAL_CHARS = "0123456789-+/ _.e\u0661\u0662\u0663\u00b2"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=_RATIONAL_CHARS, max_size=12),
                 st.from_regex(r"-?[0-9]{1,8}/[0-9]{1,8}", fullmatch=True)))
def test_rat_from_str_agrees_with_exact(s):
    # the canonical form has its own path; every string gets exact's value or error
    assert _parsed(rat_from_str, s) == _parsed(exact, s)


@pytest.mark.parametrize("s", ["0/1", "-0/5", "007/014", "3/0", "+3/4", " 3/4", "3/-4", "1_000/3",
                               "\u0661/\u0662", "1.5", "1e3", "1" * 4301 + "/3", "3/" + "7" * 4301],
                         ids=lambda s: s if len(s) < 20 else f"{s[:2]}...{s[-2:]}")
def test_rat_from_str_pinned_literals(s):
    got = _parsed(rat_from_str, s)
    assert got == _parsed(exact, s)
    if got[0] == "error":
        assert "\n" not in got[1]
    else:
        assert got[0] is F
    if len(s) > 4300:  # past the int-to-str digit limit
        assert got[0] == "error" and "digit" in got[1]
