import random
from fractions import Fraction as F

import pytest

from flowdisc.coloring import (
    PREFIX,
    SignedVectorSequence,
    color_two_sparse_paired,
    discrepancy,
)
from flowdisc.game import (
    BREAKER,
    MAKER,
    BreakerStructure,
    GameState,
    GreedyMaker,
    PairingMaker,
    PrefixTree,
    RandomBreaker,
    TreeBreaker,
    _max_abs_prefix,
    breaker_hard_instance,
    build_hard_tree,
    check_breaker_structure,
    color_move,
    color_two_permutation,
    exhaustive_breaker_value,
    permutation_prefix_peaks,
    play_game,
)
from flowdisc.util import ValidationError


class Scripted:
    def __init__(self, moves):
        self.moves = list(moves)

    def move(self, state):
        return self.moves.pop(0)


class _Waiter:
    """Waits whenever the query does not force a color; records each query's
    ``must_color``.  Colors the first open element when forced, if ``comply``."""

    def __init__(self, comply=True):
        self.comply = comply
        self.forced = []

    def move(self, state):
        self.forced.append(state.must_color)
        assert len(self.forced) < 10, "the engine never forced a color"
        if state.must_color and self.comply:
            return color_move(state.open[0], 1)
        return ("wait",)


def test_second_wait_in_a_row_is_requeried_as_forced():
    maker, breaker = _Waiter(), _Waiter()
    state, _trace = play_game([1, 1], maker, breaker, starter=BREAKER)
    assert state.history == [(BREAKER, None, None), (MAKER, 0, 1),
                             (BREAKER, None, None), (MAKER, 1, 1)]
    assert maker.forced == [False, True, False, True]
    assert breaker.forced == [False, False]


def test_waiting_when_forced_is_a_validation_error():
    with pytest.raises(ValidationError, match="^maker strategy waited when forced to color$"):
        play_game([1, 1], _Waiter(comply=False), _Waiter(), starter=BREAKER)


def test_pairing_responds_opposite():
    state, trace = play_game([1, 1], PairingMaker(), Scripted([color_move(0, 1)]),
                             starter=BREAKER)
    assert state.colors == [1, -1]
    assert max(trace) == 1


def test_single_element_payoff_is_value():
    state, trace = play_game([F(1, 2)], PairingMaker(allow_fractional=True),
                             Scripted([]), starter=MAKER)
    assert max(trace) == F(1, 2)


def test_engine_rejects_recoloring():
    bad = Scripted([color_move(0, 1), color_move(0, -1)])
    with pytest.raises(ValidationError):
        play_game([1, 1, 1], bad, Scripted([("wait",), ("wait",)]), starter=MAKER)


def test_history_replays():
    rng_breaker = RandomBreaker(seed=5, wait_prob=0.2)
    state, trace = play_game([1] * 12, PairingMaker(), rng_breaker, starter=BREAKER)
    assert all(c != 0 for c in state.colors)
    replay = [0] * 12
    for player, idx, sign in state.history:
        if idx is not None:
            assert replay[idx] == 0
            replay[idx] = sign
    assert replay == state.colors


def test_random_breaker_tournament_respects_pairing_bound():
    # seeded random play on all-ones values never pushes the pairing maker past 4
    for seed in range(200):
        breaker = RandomBreaker(seed=seed, wait_prob=0.15)
        state, trace = play_game([1] * 20, PairingMaker(), breaker, starter=BREAKER)
        assert max(trace) <= 4, seed


def test_maker_pairing_move_requires_unit_values():
    state = GameState(values=(F(1, 2),), colors=[0], to_move=MAKER,
                      wait_allowed={MAKER: True, BREAKER: True})
    with pytest.raises(ValidationError):
        PairingMaker().move(state)


def test_maker_pairing_move_on_negated_values():
    # inversion normalization: the partner's contribution must cancel exactly
    state = GameState(values=(F(-1), F(-1)), colors=[1, 0], to_move=MAKER,
                      wait_allowed={MAKER: True, BREAKER: True})
    move = PairingMaker().move(state)
    assert move == ("color", 1, -1)
    assert state.values[0] * state.colors[0] + state.values[1] * move[2] == 0


def test_exhaustive_two_ply_example():
    val = exhaustive_breaker_value([1, 1], GreedyMaker(), starter=BREAKER, allow_wait=False)
    assert val == 1


def test_exhaustive_single_element():
    assert exhaustive_breaker_value([F(3, 4)], GreedyMaker(), starter=BREAKER) == F(3, 4)


def test_exhaustive_limit():
    with pytest.raises(ValidationError):
        exhaustive_breaker_value([1] * 13, GreedyMaker())


class _BadSignMaker:
    def move(self, state):
        return color_move(state.open[0], 5)


class _RecoloringMaker:
    def move(self, state):
        return color_move(0, 1)


@pytest.mark.parametrize("maker, message", [
    (_BadSignMaker, "maker strategy produced sign 5"),
    (_RecoloringMaker, "maker strategy colored an unavailable index 0"),
])
def test_exhaustive_rejects_bad_maker_moves_like_the_engine(maker, message):
    with pytest.raises(ValidationError) as engine:
        play_game([1, 1, 1], maker(), Scripted([color_move(1, 1)]), starter=MAKER)
    with pytest.raises(ValidationError) as exhaustive:
        exhaustive_breaker_value([1, 1, 1], maker(), starter=MAKER)
    assert str(engine.value) == str(exhaustive.value) == message


class _FixedMove:
    def __init__(self, move):
        self.fixed = move

    def move(self, state):
        return self.fixed


@pytest.mark.parametrize("move, message", [
    (("color", 0), "strategy returned malformed move ('color', 0)"),
    (("color", 0.5, 1), "strategy colored an unavailable index 0.5"),
    (("color", True, 1), "strategy colored an unavailable index True"),
    (("color", 0, True), "strategy produced sign True"),
    (None, "strategy returned malformed move None"),
    (5, "strategy returned malformed move 5"),
    ((), "strategy returned malformed move ()"),
    (("wait", 3), "strategy returned malformed move ('wait', 3)"),
    (["wait"], "strategy returned malformed move ['wait']"),
    (["color", 0, 1], "strategy returned malformed move ['color', 0, 1]"),
    (("colour", 0, 1), "strategy returned malformed move ('colour', 0, 1)"),
], ids=["short", "float-index", "bool-index", "bool-sign", "none", "int", "empty",
        "long-wait", "list-wait", "list-color", "unknown-kind"])
def test_malformed_color_move_is_a_validation_error(move, message):
    # each once ended in a ValueError, a TypeError or an IndexError, or was
    # played as an int; ("wait", 3) was taken as a wait
    for player, starter in ((MAKER, MAKER), (BREAKER, BREAKER)):
        with pytest.raises(ValidationError) as engine:
            play_game([1, 1], _FixedMove(move), _FixedMove(move), starter=starter)
        assert str(engine.value) == f"{player} {message}"
    with pytest.raises(ValidationError) as exhaustive:
        exhaustive_breaker_value([1, 1], _FixedMove(move), starter=MAKER)
    assert str(exhaustive.value) == f"maker {message}"


def test_pairing_bound_certified_small():
    for n in range(1, 8):
        for starter in (MAKER, BREAKER):
            for waits in (True, False):
                val = exhaustive_breaker_value([1] * n, PairingMaker(),
                                               starter=starter, allow_wait=waits)
                assert val <= 4, (n, starter, waits, val)


def test_hard_instance_k2():
    assert breaker_hard_instance(2) == [F(1)]


def test_hard_instance_k4():
    vals = breaker_hard_instance(4)
    assert len(vals) == 17
    assert vals[0] == 1
    assert all(v == F(3, 4) for v in vals[1:])


def test_hard_instance_values_in_range():
    for k in (2, 4, 6):
        vals = breaker_hard_instance(k)
        assert all(F(1, 2) < v <= 1 for v in vals)


def test_hard_instance_k_odd_rejected():
    with pytest.raises(ValidationError):
        breaker_hard_instance(3)


def test_hard_instance_size_recursion():
    # |I_i| = 1 + k^2 |I_{i-1}|, |I_0| = 0
    for k in (2, 4, 6):
        expected = 0
        for _ in range(k // 2):
            expected = 1 + k * k * expected
        assert len(breaker_hard_instance(k)) == expected


def _reference_tree(k):
    # the parent-linked preorder builder: per node its layer, parent, children
    # and subtree size, with the sizes summed children first
    layer, parent, children, rank = [], [], [], []

    def emit(d, par, r):
        idx = len(layer)
        layer.append(d)
        parent.append(par)
        children.append([])
        rank.append(r)
        if par is not None:
            children[par].append(idx)
        if d < k // 2 - 1:
            for q in range(k * k):
                emit(d + 1, idx, q + 1)

    emit(0, None, 1)
    size = [1] * len(layer)
    for i in range(len(layer) - 1, -1, -1):
        size[i] += sum(size[c] for c in children[i])
    return layer, parent, children, rank, size


@pytest.mark.parametrize("k", [2, 4, 6])
def test_hard_tree_navigation_matches_the_parent_linked_tree(k):
    layer, parent, children, rank, size = _reference_tree(k)
    tree = build_hard_tree(k)
    assert tree.layer == layer and tree.child_rank == rank
    for i in range(len(layer)):
        sibs = children[parent[i]] if parent[i] is not None else [i]
        assert tree.next_sib(i) == (sibs[rank[i]] if rank[i] < len(sibs) else None), i
        assert tree.first_child(i) == (children[i][0] if children[i] else None), i
        assert tree.subtree_size(i) == size[i], i
        assert tree.value(i) == 1 - F(layer[i], k), i


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_hard_instance_shares_one_value_per_layer(k):
    values = breaker_hard_instance(k)
    assert len({id(v) for v in values}) == k // 2
    assert values == [1 - F(d, k) for d in build_hard_tree(k).layer]


def test_tree_breaker_opening_colors_first_child():
    tb = TreeBreaker(6)
    values = breaker_hard_instance(6)
    state = GameState(values=tuple(values), colors=[0] * len(values),
                      to_move=BREAKER, wait_allowed={MAKER: True, BREAKER: True})
    move = tb.move(state)
    assert move == ("color", 1, 1)
    assert tb.structure.indices == [0, 1, build_hard_tree(6).next_sib(1)]


def test_tree_breaker_structure_checker_catches_violations():
    tree = build_hard_tree(6)
    values = [tree.value(i) for i in range(len(tree.layer))]
    colors = [0] * len(values)
    structure = BreakerStructure(indices=[0, 1, tree.next_sib(1)])
    with pytest.raises(AssertionError):
        # i_1 not colored +1 yet
        check_breaker_structure(tree, values, colors, structure)
    colors[1] = 1
    check_breaker_structure(tree, values, colors, structure)  # now consistent
    colors[2] = -1  # a negative element inside the subtree gap
    with pytest.raises(AssertionError):
        check_breaker_structure(tree, values, colors, structure)


def test_tree_breaker_case_one_gap_merge():
    # the maker pokes inside a gap; the breaker merges it leftward, keeps the
    # structure depth, and advances the frontier one sibling
    tb = TreeBreaker(6)
    tree = tb.tree
    values = breaker_hard_instance(6)
    state = GameState(values=tuple(values), colors=[0] * len(values), to_move=BREAKER,
                      wait_allowed={MAKER: True, BREAKER: True})
    move = tb.move(state)  # opening
    assert move == ("color", 1, 1)
    state.colors[1] = 1
    state.history.append((BREAKER, 1, 1))
    state.colors[5] = -1  # maker colors inside the gap (1, 38)
    state.history.append((MAKER, 5, -1))
    reply = tb.move(state)
    assert reply == ("color", 38, 1)
    assert tb.structure.indices == [0, 38, tree.next_sib(38)]
    assert tb.structure.ell == 1  # the merge keeps the depth


def test_tree_breaker_full_games_and_monotone_payoffs():
    payoffs = {"pairing": [], "greedy": []}
    for k in (2, 4, 6):
        values = breaker_hard_instance(k)
        for name, maker in (("pairing", PairingMaker(allow_fractional=True)),
                            ("greedy", GreedyMaker())):
            tb = TreeBreaker(k)
            state, trace = play_game(values, maker, tb, starter=BREAKER)
            assert all(c != 0 for c in state.colors)
            payoffs[name].append(max(trace))
    for name, series in payoffs.items():
        assert series == sorted(series), (name, series)


def _k6_with_one_value_changed():
    values = breaker_hard_instance(6)
    assert values[1] == F(5, 6)
    values[1] = F(1, 6)  # the common denominator stays 6: only a scaled value differs
    return values


@pytest.mark.parametrize("values", [breaker_hard_instance(4), _k6_with_one_value_changed()],
                         ids=["k4-values", "k6-one-value-changed"])
def test_tree_breaker_rejects_other_values(values):
    with pytest.raises(ValidationError, match="different hard instance"):
        play_game(values, GreedyMaker(), TreeBreaker(6), starter=BREAKER)


def _fraction_peak(values, colors):
    # the full rescan on Fractions, independent of any integer scaling
    run = F(0)
    peak = F(0)
    for v, c in zip(values, colors):
        if c:
            run += c * v
        peak = max(peak, abs(run))
    return peak


def _mixed_values(rng, n):
    # mixed denominators, negative values and zeros, all inside [-1, 1]
    values = []
    for _ in range(n):
        d = rng.choice((1, 2, 3, 4, 5, 7, 12))
        values.append(F(rng.randint(-d, d), d))
    return values


def _reference_greedy(values, colors):
    # the greedy rule by a list copy and a full rescan per trial sign
    for i, c in enumerate(colors):
        if c != 0:
            continue
        best = None
        for sign in (1, -1):
            trial = list(colors)
            trial[i] = sign
            peak = _fraction_peak(values, trial)
            if best is None or peak < best[0]:
                best = (peak, sign)
        return color_move(i, best[1])
    return ("wait",)


@pytest.mark.parametrize("maker_name", ["greedy", "pairing"])
@pytest.mark.parametrize("starter", [MAKER, BREAKER])
def test_tree_trace_matches_rescan_after_every_move(maker_name, starter):
    rng = random.Random(f"trace:{maker_name}:{starter}")
    waits = 0
    for game in range(25):
        values = _mixed_values(rng, rng.randint(1, 40))
        maker = GreedyMaker() if maker_name == "greedy" else PairingMaker(allow_fractional=True)
        breaker = RandomBreaker(seed=rng.randrange(10 ** 6), wait_prob=0.3)
        state, trace = play_game(values, maker, breaker, starter=starter)
        assert len(trace) == len(state.history)
        colors = [0] * len(values)
        for (_player, idx, sign), peak in zip(state.history, trace):
            if idx is not None:
                colors[idx] = sign
            assert type(peak) is F
            assert peak == _fraction_peak(values, colors), (game, idx)
            waits += idx is None
    assert waits > 0


def test_greedy_maker_matches_reference_on_partial_states():
    rng = random.Random(33)
    ties = 0
    for case in range(300):
        n = rng.randint(1, 30)
        values = tuple(_mixed_values(rng, n))
        colors = [rng.choice((-1, 0, 1)) if rng.random() < 0.6 else 0 for _ in range(n)]
        state = GameState(values=values, colors=list(colors), to_move=MAKER,
                          wait_allowed={MAKER: True, BREAKER: True})
        expected = _reference_greedy(values, colors)
        assert GreedyMaker().move(state) == expected, case
        # the trial signs leave the state as it was
        assert state.colors == colors
        assert state.tree.peak() == _fraction_peak(values, colors)
        if expected != ("wait",):
            i = expected[1]
            trials = []
            for sign in (1, -1):
                trial = list(colors)
                trial[i] = sign
                trials.append(_fraction_peak(values, trial))
            ties += trials[0] == trials[1]
    assert ties > 20  # the tie rule (+1 first, strict improvement) is exercised


def test_pairing_maker_reused_on_a_new_sequence():
    rng = random.Random(8)
    first = [rng.choice((-1, 1)) for _ in range(15)]
    second = [rng.choice((-1, 1)) for _ in range(22)]
    reused = PairingMaker()
    play_game(first, reused, RandomBreaker(seed=1, wait_prob=0.2))
    again, _ = play_game(second, reused, RandomBreaker(seed=2, wait_prob=0.2))
    fresh, _ = play_game(second, PairingMaker(), RandomBreaker(seed=2, wait_prob=0.2))
    assert again.history == fresh.history
    with pytest.raises(ValidationError):
        play_game([1, F(1, 2), -1], reused, RandomBreaker(seed=3), starter=MAKER)


def test_two_permutation_identity_all_ones():
    cols = color_two_permutation([1] * 8, list(range(8)))
    a, b = permutation_prefix_peaks([1] * 8, list(range(8)), cols)
    assert a <= 4 and b <= 4


def test_two_permutation_reverse():
    sigma = [3, 2, 1, 0]
    cols = color_two_permutation([1] * 4, sigma)
    a, b = permutation_prefix_peaks([1] * 4, sigma, cols)
    assert a <= 4 and b <= 4
    # exhaustively confirm some coloring of value <= 4 exists and ours is one
    assert all(c in (-1, 1) for c in cols)


def test_two_permutation_zeros():
    cols = color_two_permutation([0] * 5, [4, 3, 2, 1, 0])
    assert cols == [1] * 5
    a, b = permutation_prefix_peaks([0] * 5, [4, 3, 2, 1, 0], cols)
    assert a == 0 and b == 0


@pytest.mark.parametrize("sigma", [[0.0], [True, False], [F(0), 1]])
def test_two_permutation_rejects_sigma_entries_that_are_not_ints(sigma):
    # [0.0] once passed the permutation test and ended in a TypeError, and
    # [True, False] was taken as a permutation
    with pytest.raises(ValidationError, match="sigma entries must be ints"):
        color_two_permutation([1] * len(sigma), sigma)


def test_two_permutation_random_signed():
    rng = random.Random(21)
    for trial in range(25):
        n = rng.randint(1, 24)
        values = [rng.choice([-1, 0, 1]) for _ in range(n)]
        sigma = list(range(n))
        rng.shuffle(sigma)
        cols = color_two_permutation(values, sigma)
        a, b = permutation_prefix_peaks(values, sigma, cols)
        assert a <= 4 and b <= 4


# ---------------------------------------------------------------------------
# The O(n) scans the strategies used to make, kept as move-by-move references
# ---------------------------------------------------------------------------


class PairingGame:
    """The pairing strategy by a scan of the colors on every move.

    ``elements`` are global ids in game order; ``entries`` their (nonzero)
    values.  The strategy works in sign-normalized space: element e with
    entry x behaves like value |x| colored eps*sgn(x).  Pairs are consecutive
    element pairs; an odd trailing element is ignored (colored greedily only
    when it is the last one left, costing at most 1 in the bound).
    """

    def __init__(self, elements, entries):
        self.elements = list(elements)
        self.entry = {e: F(v) for e, v in zip(elements, entries)}
        self.sgn = {e: (1 if self.entry[e] >= 0 else -1) for e in elements}
        npairs = len(self.elements) // 2
        self.pairs = [(self.elements[2 * q], self.elements[2 * q + 1]) for q in range(npairs)]

    def respond(self, colors):
        """Next pairing move given the shared coloring, or None if all colored.

        Half-colored pairs are completed first (the last such pair when there
        are several); otherwise the first uncolored element is colored
        greedily against the current prefix sum.
        """
        half = None
        for a, b in self.pairs:
            ca, cb = colors[a], colors[b]
            if (ca == 0) != (cb == 0):
                half = (a, b)
        if half is not None:
            a, b = half
            colored, open_ = (a, b) if colors[b] == 0 else (b, a)
            norm = colors[colored] * self.sgn[colored]
            return open_, -norm * self.sgn[open_]
        prefix = F(0)
        for e in self.elements:
            if colors[e] == 0:
                norm = 1 if prefix < 0 else -1
                return e, norm * self.sgn[e]
            prefix += colors[e] * self.entry[e]
        return None


def _scan_interleave(n, games_a, games_b, dim_a, dim_b, colors):
    # the two pairing-game families alternated by scans of the shared colors
    built_a = {d: PairingGame([e for e, _ in lst], [v for _, v in lst]) for d, lst in games_a.items()}
    built_b = {d: PairingGame([e for e, _ in lst], [v for _, v in lst]) for d, lst in games_b.items()}
    sides = {"a": (built_a, dim_a), "b": (built_b, dim_b)}
    turn = "a"
    last_elem = None
    while any(c == 0 for c in colors):
        games, dims = sides[turn]
        move = None
        if last_elem is not None and dims[last_elem] is not None:
            move = games[dims[last_elem]].respond(colors)
        if move is None:
            e0 = next(i for i in range(n) if colors[i] == 0)
            if dims[e0] is None:
                move = (e0, 1)
            else:
                move = games[dims[e0]].respond(colors)
                assert move is not None
        elem, sign = move
        assert colors[elem] == 0
        colors[elem] = sign
        last_elem = elem
        turn = "b" if turn == "a" else "a"


def _scan_two_permutation(values, sigma):
    values = [F(v) for v in values]
    n = len(values)
    if sorted(sigma) != list(range(n)):
        raise ValidationError("sigma is not a permutation of range(n)")
    nz = [i for i in range(n) if values[i] != 0]
    order_b = [sigma[k] for k in range(n) if values[sigma[k]] != 0]
    colors = [0] * n
    for i in range(n):
        if values[i] == 0:
            colors[i] = 1
    if nz:
        dims = [0 if values[i] != 0 else None for i in range(n)]
        _scan_interleave(n, {0: [(i, values[i]) for i in nz]},
                         {0: [(i, values[i]) for i in order_b]}, dims, dims, colors)
    return colors


def _scan_two_sparse_paired(seq):
    first_dim, second_dim, first_val, second_val = [], [], [], []
    for j, v in enumerate(seq.vectors):
        nz = [(i, x) for i, x in enumerate(v) if x != 0]
        if len(nz) > 2:
            raise ValidationError(f"vector {j} has sparsity {len(nz)} > 2")
        for _, x in nz:
            if x not in (-1, 1):
                raise ValidationError(f"vector {j} has entry {x} outside {{-1, 0, +1}}")
        first_dim.append(nz[0][0] if nz else None)
        first_val.append(int(nz[0][1]) if nz else 0)
        second_dim.append(nz[1][0] if len(nz) > 1 else None)
        second_val.append(int(nz[1][1]) if len(nz) > 1 else 0)

    def side_games(dims, vals):
        games = {}
        for j in range(seq.n):
            if dims[j] is not None:
                games.setdefault(dims[j], []).append((j, vals[j]))
        return games

    colors = [0] * seq.n
    _scan_interleave(seq.n, side_games(first_dim, first_val), side_games(second_dim, second_val),
                     first_dim, second_dim, colors)
    return colors


class _ScanRandomBreaker:
    # draws from the uncolored list rebuilt from the colors on every move
    def __init__(self, seed, wait_prob=0.0):
        self.rng = random.Random(seed)
        self.wait_prob = wait_prob

    def move(self, state):
        open_ = [i for i, c in enumerate(state.colors) if c == 0]
        if not open_:
            return ("wait",)
        if (not state.must_color and state.wait_allowed[BREAKER]
                and self.rng.random() < self.wait_prob):
            return ("wait",)
        return color_move(self.rng.choice(open_), self.rng.choice((-1, 1)))


class _ScanPairingMaker:
    # PairingGame.respond over the whole sequence, on the colors alone
    def __init__(self, allow_fractional=False):
        self.allow_fractional = allow_fractional
        self.values = self.game = None

    def move(self, state):
        if state.values is not self.values:
            if not self.allow_fractional and any(v not in (-1, 1) for v in state.values):
                raise ValidationError("pairing maker requires +-1 values")
            self.game = PairingGame(list(range(state.n)), list(state.values))
            self.values = state.values
        mv = self.game.respond(state.colors)
        return ("wait",) if mv is None else color_move(*mv)


class _ScanGreedyMaker:
    # scans for the first uncolored element, compares the trial peaks as Fractions
    def move(self, state):
        for i in range(state.n):
            if state.colors[i] != 0:
                continue
            best = None
            for sign in (1, -1):
                state.tree.set(i, sign)
                peak = state.tree.peak()
                state.tree.set(i, 0)
                if best is None or peak < best[0]:
                    best = (peak, sign)
            return color_move(i, best[1])
        return ("wait",)


def _scan_maintenance_move(tb, state):
    # TreeBreaker's endgame move by Fraction prefix sums and max() scans
    lo, hi = tb.claim
    prefix = pref_lo = F(0)
    for e in range(hi):
        if state.colors[e]:
            prefix += state.colors[e] * state.values[e]
        if e == lo:
            pref_lo = prefix
    if abs(pref_lo) > abs(prefix):
        target, total = lo, pref_lo
    else:
        target, total = hi - 1, prefix
    sign = 1 if total >= 0 else -1
    open_ = [e for e in range(target + 1) if state.colors[e] == 0]
    if open_:
        return color_move(max(open_, key=lambda e: (-tb.tree.layer[e], -e)), sign)
    rest = [e for e in range(state.n) if state.colors[e] == 0]
    if not rest:
        return ("wait",)
    return color_move(max(rest, key=lambda e: (-tb.tree.layer[e], -e)), sign)


class Lockstep:
    """Plays ``fast``'s moves and asserts that ``scan`` makes each one too."""

    def __init__(self, fast, scan):
        self.fast, self.scan = fast, scan
        self.calls = 0

    def move(self, state):
        mv = self.fast.move(state)
        assert mv == self.scan.move(state), (len(state.history), mv)
        self.calls += 1
        return mv


class CheckedTreeBreaker(TreeBreaker):
    """TreeBreaker whose every endgame move is checked against the scans."""

    maintenance_moves = 0

    def _maintenance_move(self, state):
        mv = super()._maintenance_move(state)
        assert mv == _scan_maintenance_move(self, state), (len(state.history), mv)
        self.maintenance_moves += 1
        return mv


MAKERS = {
    "pairing": (lambda: PairingMaker(allow_fractional=True),
                lambda: _ScanPairingMaker(allow_fractional=True)),
    "greedy": (GreedyMaker, _ScanGreedyMaker),
}


def test_integer_rescan_matches_fraction_rescan():
    rng = random.Random(4)
    for _ in range(300):
        values = _mixed_values(rng, rng.randint(0, 25))
        colors = [rng.choice((-1, 0, 1)) for _ in values]
        assert _max_abs_prefix(values, colors) == _fraction_peak(values, colors)


def test_prefix_tree_queries_match_direct_sums():
    rng = random.Random(12)
    for _ in range(100):
        values = _mixed_values(rng, rng.randint(1, 33))
        colors = [rng.choice((-1, 0, 1)) for _ in values]
        tree = PrefixTree(values, colors)
        for m in range(len(values) + 1):
            expected = sum((c * v for v, c in zip(values[:m], colors[:m])), F(0))
            assert F(tree.prefix_scaled(m), tree.den) == expected
        assert F(tree.peak_scaled(), tree.den) == tree.peak() == _fraction_peak(values, colors)


def _tree_arrays(tree):
    return tree.sum, tree.hi, tree.lo


def test_prefix_tree_peaks_if_matches_coloring_and_restoring():
    rng = random.Random("peaks-if")
    for n in range(1, 34):
        for _ in range(6):
            values = _mixed_values(rng, n)
            colors = [rng.choice((-1, 1)) if rng.random() < 0.5 else 0 for _ in values]
            tree = PrefixTree(values, colors)
            before = [list(a) for a in _tree_arrays(tree)]
            for i in range(n):
                # the old way: color the leaf in a copy, read the peak, restore
                expected = []
                for sign in (1, -1):
                    trial = PrefixTree(values, colors)
                    trial.set(i, sign)
                    expected.append(trial.peak_scaled())
                    trial.set(i, colors[i])
                    assert _tree_arrays(trial) == _tree_arrays(tree)
                assert tree.peaks_if(i) == tuple(expected), (n, i, colors[i])
            assert [list(a) for a in _tree_arrays(tree)] == before


def test_prefix_tree_updates_match_a_fresh_build():
    rng = random.Random("tree-set")
    for n in range(1, 34):
        values = _mixed_values(rng, n)
        colors = [rng.choice((-1, 0, 1)) for _ in values]
        tree = PrefixTree(values, colors)
        for _ in range(3 * n):
            i, sign = rng.randrange(n), rng.choice((-1, 0, 1))
            tree.set(i, sign)
            colors[i] = sign
            assert _tree_arrays(tree) == _tree_arrays(PrefixTree(values, colors)), (n, i)


@pytest.mark.parametrize("kind", ["unit", "mixed"])
@pytest.mark.parametrize("maker_name", ["pairing", "greedy"])
@pytest.mark.parametrize("starter", [MAKER, BREAKER])
def test_strategies_match_the_scans_move_by_move(kind, maker_name, starter):
    rng = random.Random(f"lockstep:{kind}:{maker_name}:{starter}")
    fast_maker, scan_maker = MAKERS[maker_name]
    waits = 0
    for game in range(20):
        n = rng.randint(1, 45)
        values = ([rng.choice((-1, 1)) for _ in range(n)] if kind == "unit"
                  else _mixed_values(rng, n))
        seed = rng.randrange(10 ** 6)
        maker = Lockstep(fast_maker(), scan_maker())
        breaker = Lockstep(RandomBreaker(seed, wait_prob=0.3), _ScanRandomBreaker(seed, 0.3))
        state, trace = play_game(values, maker, breaker, starter=starter)
        # the scans alone play the same game
        alone, alone_trace = play_game(values, scan_maker(), _ScanRandomBreaker(seed, 0.3),
                                       starter=starter)
        assert state.history == alone.history and trace == alone_trace, game
        assert maker.calls + breaker.calls >= len(state.history)
        waits += sum(idx is None for _, idx, _ in state.history)
    assert waits > 0


def _random_partial_state(rng, values, to_move=MAKER):
    colors = [rng.choice((-1, 1)) if rng.random() < 0.5 else 0 for _ in values]
    return GameState(values=tuple(values), colors=colors, to_move=to_move,
                     wait_allowed={MAKER: True, BREAKER: True})


def _apply(state, player, mv):
    if mv[0] == "color":
        state.color(mv[1], mv[2])
        state.history.append((player, mv[1], mv[2]))
    else:
        state.history.append((player, None, None))


@pytest.mark.parametrize("maker_name", ["pairing", "greedy"])
def test_makers_match_the_scans_from_partial_states(maker_name):
    rng = random.Random(f"partial:{maker_name}")
    fast_maker, scan_maker = MAKERS[maker_name]
    for case in range(60):
        values = _mixed_values(rng, rng.randint(1, 30))
        state = _random_partial_state(rng, values)
        maker = Lockstep(fast_maker(), scan_maker())
        breaker = _ScanRandomBreaker(case, wait_prob=0.3)
        while state.open:
            _apply(state, MAKER, maker.move(state))
            if state.open:
                _apply(state, BREAKER, breaker.move(state))
        assert state.colors.count(0) == 0


def test_pairing_maker_resyncs_after_outside_edits():
    rng = random.Random(77)
    resynced = 0
    for case in range(80):
        values = _mixed_values(rng, rng.randint(2, 30))
        state = _random_partial_state(rng, values)
        maker = PairingMaker(allow_fractional=True)
        scan = _ScanPairingMaker(allow_fractional=True)
        while state.open:
            assert maker.move(state) == scan.move(state), case
            edit = rng.randrange(4)
            e = rng.choice(state.open)
            if edit == 0:
                # colored outside play_game, and recorded as a move
                state.color(e, rng.choice((-1, 1)))
                state.history.append((BREAKER, e, state.colors[e]))
            elif edit == 1:
                # colored outside play_game, and the history rewritten
                state.color(e, rng.choice((-1, 1)))
                state.history = [(BREAKER, e, state.colors[e])]
                resynced += 1
            elif edit == 2:
                # a copy of the state with one more element colored
                colors = list(state.colors)
                colors[e] = rng.choice((-1, 1))
                state = GameState(values=state.values, colors=colors, to_move=MAKER,
                                  wait_allowed=state.wait_allowed,
                                  history=list(state.history))
                resynced += 1
            else:
                _apply(state, MAKER, maker.move(state))
    assert resynced > 40


def test_maintenance_move_matches_the_scan_on_random_states():
    # the games at k <= 6 keep one layer open inside the claim at a time, so
    # the lowest-layer-first pick is pinned here on random claims and colors
    rng = random.Random(9)
    tb = TreeBreaker(6)
    values = tuple(breaker_hard_instance(6))
    n = len(values)
    layers_seen = set()
    for case in range(25):
        density = rng.random()
        colors = [rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
        state = GameState(values=values, colors=colors, to_move=BREAKER,
                          wait_allowed={MAKER: True, BREAKER: True})
        lo = rng.randrange(n - 1)
        tb.phase, tb.claim = "maintain", (lo, rng.randrange(lo + 1, n))
        for _ in range(15):
            mv = tb._maintenance_move(state)
            assert mv == _scan_maintenance_move(tb, state), case
            if mv[0] == "wait":
                break
            layers_seen.add(tb.tree.layer[mv[1]])
            state.color(mv[1], mv[2])
            # the opponent colors a random open element in between
            if state.open:
                state.color(rng.choice(state.open), rng.choice((-1, 1)))
    assert layers_seen == {0, 1, 2}


@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("maker_name", ["pairing", "greedy"])
def test_hard_games_match_the_scans_move_by_move(k, maker_name):
    fast_maker, scan_maker = MAKERS[maker_name]
    values = breaker_hard_instance(k)
    maker = Lockstep(fast_maker(), scan_maker())
    breaker = CheckedTreeBreaker(k)
    state, trace = play_game(values, maker, breaker, starter=BREAKER)
    # every breaker move is a checked build move or a checked endgame move,
    # except the opening at k=2, which colors the lone root
    breaker_moves = sum(player == BREAKER for player, _, _ in state.history)
    assert breaker.checked_moves == k // 2 - 1
    assert breaker.maintenance_moves == breaker_moves - breaker.checked_moves - (k == 2)
    payoff = max(trace)
    assert payoff == {2: F(1), 4: F(1), 6: F(44, 3) if maker_name == "greedy" else F(22, 3)}[k]
    # the unchecked engine and the plain TreeBreaker play the same game
    plain, plain_trace = play_game(values, fast_maker(), TreeBreaker(k), starter=BREAKER)
    assert plain.history == state.history and plain_trace == trace


def test_exhaustive_pairing_value_matches_the_scan():
    rng = random.Random(5)
    cases = [[1] * n for n in range(1, 7)]
    cases += [[rng.choice((-1, 1)) for _ in range(rng.randint(1, 7))] for _ in range(6)]
    for values in cases:
        for starter in (MAKER, BREAKER):
            for waits in (True, False):
                fast = exhaustive_breaker_value(values, PairingMaker(), starter=starter,
                                                allow_wait=waits)
                scan = exhaustive_breaker_value(values, _ScanPairingMaker(), starter=starter,
                                                allow_wait=waits)
                assert fast == scan, (values, starter, waits)
    for _ in range(6):
        values = _mixed_values(rng, rng.randint(1, 6))
        fast = exhaustive_breaker_value(values, PairingMaker(allow_fractional=True))
        scan = exhaustive_breaker_value(values, _ScanPairingMaker(allow_fractional=True))
        assert fast == scan, values


VALUES = (-1, 0, 1, F(1, 2), F(-2, 3), 3)


def _outcome(colorer, *args):
    try:
        return colorer(*args)
    except ValidationError as exc:
        return str(exc)


def test_two_permutation_matches_the_scan():
    rng = random.Random("two-permutation")
    messages = set()
    for case in range(1000):
        n = rng.randint(0, 60)
        values = [rng.choice(VALUES) for _ in range(n)]
        sigma = list(range(n))
        rng.shuffle(sigma)
        if n and rng.random() < 0.05:
            sigma[rng.randrange(n)] = rng.choice((sigma[0], n))
        got = _outcome(color_two_permutation, values, sigma)
        assert got == _outcome(_scan_two_permutation, values, sigma), case
        if isinstance(got, str):
            messages.add(got)
    assert messages == {"sigma is not a permutation of range(n)"}


def test_two_sparse_paired_matches_the_scan():
    rng = random.Random("two-sparse-paired")
    messages = set()
    for case in range(1000):
        n, m = rng.randint(0, 60), rng.randint(1, 5)
        rows = []
        for _ in range(n):
            row = [0] * m
            for coord in rng.sample(range(m), rng.randint(0, min(2, m))):
                row[coord] = rng.choice((-1, 1))
            rows.append(row)
        if n and rng.random() < 0.2:  # one vector drawn from the whole value set
            rows[rng.randrange(n)] = [rng.choice(VALUES) for _ in range(m)]
        seq = SignedVectorSequence(m, rows)
        got = _outcome(color_two_sparse_paired, seq)
        assert got == _outcome(_scan_two_sparse_paired, seq), case
        if isinstance(got, str):
            messages.add(got.split(" has ")[1].split()[0])
    assert messages == {"sparsity", "entry"}


def test_two_system_colorers_keep_their_bounds_at_n_2000():
    rng = random.Random("bounds")
    n = 2000
    values = [rng.choice((-1, 0, 1)) for _ in range(n)]
    sigma = list(range(n))
    rng.shuffle(sigma)
    a, b = permutation_prefix_peaks(values, sigma, color_two_permutation(values, sigma))
    assert a <= 4 and b <= 4
    m = 4
    rows = []
    for _ in range(n):
        row = [0] * m
        for coord in rng.sample(range(m), rng.randint(0, 2)):
            row[coord] = rng.choice((-1, 1))
        rows.append(row)
    seq = SignedVectorSequence(m, rows)
    signs = color_two_sparse_paired(seq)
    assert discrepancy(seq.with_signs(signs), PREFIX).value <= 8


@pytest.mark.slow
def test_k8_hard_games_keep_their_payoffs():
    # criterion 9's k=8 point; each game takes seconds, so it runs only with -m slow
    values = breaker_hard_instance(8)
    assert len(values) == 266305
    for make_maker, payoff in ((GreedyMaker, F(12307, 8)),
                               (lambda: PairingMaker(allow_fractional=True), F(4165, 8))):
        state, trace = play_game(values, make_maker(), TreeBreaker(8), starter=BREAKER)
        assert all(state.colors)
        assert max(trace) == payoff
