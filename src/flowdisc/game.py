"""One-dimensional maker-breaker discrepancy game.

Two players alternately color elements of a value sequence with +-1.  The
breaker tries to drive some prefix sum far from zero, the maker keeps all
prefixes balanced.  A "robust" strategy also works when the opponent may pass
("wait").

Provided strategies:

- `PairingMaker`: partners consecutive elements and cancels them; certified
  discrepancy at most 4 on +-1 values, robust against waits.
- `GreedyMaker`: colors the first uncolored element to minimize |prefix|.
- `TreeBreaker`: the unbounded-discrepancy strategy for the layered hard
  instances from `breaker_hard_instance`, maintaining an explicit interval
  structure whose five invariants are asserted after every build move.
- `RandomBreaker`: seeded uniform play, for tournaments.

A move costs O(log n) integer work plus cursor steps that add up to O(n) over
a game (O(k) more per `TreeBreaker` endgame move), with no per-move Python
scan over the sequence and no per-move `Fraction`; only `TreeBreaker`'s
invariant check after each of its few build moves is a full scan:

- The state keeps an exact integer segment tree (`PrefixTree`) over the values
  scaled to their common denominator, for the max |prefix| and any prefix sum,
  and a sorted ``open`` list of the uncolored indices (a bisect and one list
  deletion per move).  A tree update pulls the nodes on the leaf's path to
  the root in one inline loop.  `RandomBreaker` draws from the open list, so
  its rng draws are those of a rebuilt list; `GreedyMaker` takes ``open[0]``
  and reads both of its trial peaks, as scaled integers, from one read-only
  walk (`PrefixTree.peaks_if`) that composes the summaries around the leaf,
  with no trial coloring to undo.
- `play_game` builds one `Fraction` per distinct peak value of the game, so
  the trace still holds Fractions.
- Strategies read the state instead of keeping copies of it.  `PairingMaker`
  takes the first uncolored element from ``open[0]`` and its prefix from the
  tree; it keeps only the set of half-colored pairs, updated from the history
  entries added since its last call and resynced from the colors on a new
  state.  `TreeBreaker` reads the maker's last move from ``history[-1]``; its
  endgame reads its two boundary prefixes from the tree and keeps one forward
  cursor per layer to that layer's first open element.

At the end of every game the tree's peak is checked against one full integer
rescan over its own scaling (`_max_abs_prefix`), and the history must replay
to the final coloring.  Strategies keep no state across games beyond what one
state object needs.

`exhaustive_breaker_value` computes the best payoff a perfect breaker can
force against a fixed maker strategy (the certification tool for the pairing
bound); it checks the maker's moves by the same rule as `play_game`.

The two-system colorers play the same `PairingMaker`:
`interleave_pairing_colorings` keeps one `GameState` per (side, dimension)
over that dimension's entries, records every coloring in each game the
element belongs to, and alternates the sides.  `color_two_permutation` uses it
to color a value sequence so that the prefixes of both the identity order and
a second permutation stay bounded by 4, and `coloring.color_two_sparse_paired`
to color 2-sparse sign vectors within 8.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .util import InternalCheckError, ValidationError

MAKER = "maker"
BREAKER = "breaker"

WAIT = ("wait",)


def color_move(index: int, sign: int) -> tuple:
    return ("color", index, sign)


class PrefixTree:
    """Exact max |prefix| of a partially colored sequence under point updates.

    The values are scaled to integers over their common denominator.  A padded
    power-of-two segment tree stores per node the sum of its colored scaled
    values and its largest and smallest prefix sum, the empty prefix included,
    so the root reads the peak of every prefix of the whole sequence.  Both
    the build and a point update pull the inner nodes inline, with no call per
    level.
    """

    def __init__(self, values, colors):
        self.den = lcm(*{v.denominator for v in values})
        self.scaled = [v.numerator * (self.den // v.denominator) for v in values]
        size = 1
        while size < len(values):
            size *= 2
        self.size = size
        pad = [0] * (size + size - len(values))
        leaves = [c * w for w, c in zip(self.scaled, colors)]
        self.sum = s = pad[:size] + leaves + pad[size:]
        self.hi = hi = pad[:size] + [x if x > 0 else 0 for x in leaves] + pad[size:]
        self.lo = lo = pad[:size] + [x if x < 0 else 0 for x in leaves] + pad[size:]
        for p in range(size - 1, 0, -1):
            left = p + p
            sl = s[left]
            s[p] = sl + s[left + 1]
            a, b = hi[left], sl + hi[left + 1]
            hi[p] = a if a > b else b
            a, b = lo[left], sl + lo[left + 1]
            lo[p] = a if a < b else b

    def set(self, i: int, sign: int) -> None:
        """Color position i with sign (0 uncolors it); O(log n)."""
        s, hi, lo = self.sum, self.hi, self.lo
        p = self.size + i
        x = sign * self.scaled[i]
        s[p] = x
        hi[p] = x if x > 0 else 0
        lo[p] = x if x < 0 else 0
        p >>= 1
        while p:
            left = p + p
            sl = s[left]
            s[p] = sl + s[left + 1]
            a, b = hi[left], sl + hi[left + 1]
            hi[p] = a if a > b else b
            a, b = lo[left], sl + lo[left + 1]
            lo[p] = a if a < b else b
            p >>= 1

    def peaks_if(self, i: int) -> tuple[int, int]:
        """Scaled max |prefix| were position i colored +1, and were it colored
        -1, whatever its color now; nothing is changed.

        One walk from the leaf to the root composes the (sum, max prefix, min
        prefix) summaries of the positions before i and after i.
        """
        s, hi, lo = self.sum, self.hi, self.lo
        sl = hl = ll = sr = hr = lr = 0
        p = self.size + i
        while p > 1:
            q = p ^ 1
            if p & 1:  # the sibling q lies before i: prepend it to the left part
                a = s[q] + hl
                hl = hi[q] if hi[q] > a else a
                a = s[q] + ll
                ll = lo[q] if lo[q] < a else a
                sl += s[q]
            else:  # q lies after i: append it to the right part
                a = sr + hi[q]
                if a > hr:
                    hr = a
                a = sr + lo[q]
                if a < lr:
                    lr = a
                sr += s[q]
            p >>= 1
        w = self.scaled[i]
        return (max(hl, sl + w + hr, -ll, -(sl + w + lr)),
                max(hl, sl - w + hr, -ll, -(sl - w + lr)))

    def prefix_scaled(self, m: int) -> int:
        """Scaled sum of the colored values at positions < m; O(log n)."""
        s = self.sum
        total = 0
        lo, hi = self.size, self.size + m
        while lo < hi:
            if lo & 1:
                total += s[lo]
                lo += 1
            if hi & 1:
                hi -= 1
                total += s[hi]
            lo >>= 1
            hi >>= 1
        return total

    def peak_scaled(self) -> int:
        """Max |prefix| times ``den``."""
        hi, lo = self.hi[1], -self.lo[1]
        return hi if hi > lo else lo

    def peak(self) -> Fraction:
        return Fraction(self.peak_scaled(), self.den)


@dataclass
class GameState:
    values: tuple
    colors: list  # -1 / 0 / +1 per element
    to_move: str
    wait_allowed: dict
    history: list = field(default_factory=list)  # (player, index-or-None, sign-or-None)
    must_color: bool = False
    tree: PrefixTree = field(init=False, repr=False, compare=False)
    open: list = field(init=False, repr=False, compare=False)  # uncolored indices, ascending

    def __post_init__(self):
        self.tree = PrefixTree(self.values, self.colors)
        self.open = [i for i, c in enumerate(self.colors) if c == 0]

    @property
    def n(self) -> int:
        return len(self.values)

    def color(self, idx: int, sign: int) -> None:
        """Color the uncolored element idx; keeps the tree and the open list."""
        self.colors[idx] = sign
        self.tree.set(idx, sign)
        del self.open[bisect_left(self.open, idx)]


def _max_abs_prefix(values, colors) -> Fraction:
    """Max |prefix| by one full scan, as integers over the values' own lcm."""
    den = lcm(*{v.denominator for v in values})
    run = peak = 0
    for v, c in zip(values, colors):
        if c:
            run += c * v.numerator * (den // v.denominator)
            a = -run if run < 0 else run
            if a > peak:
                peak = a
    return Fraction(peak, den)


def _checked_move(player: str, move, colors) -> Optional[tuple[int, int]]:
    """None for the tuple ``("wait",)``; (index, sign) for a tuple
    ``("color", index, sign)``, which must color an uncolored element with the
    int +-1 (a bool is not an int here).  Anything else is malformed."""
    if type(move) is not tuple or len(move) != 3 or move[0] != "color":
        if type(move) is tuple and move == WAIT:
            return None
        raise ValidationError(f"{player} strategy returned malformed move {move!r}")
    _, idx, sign = move
    if type(idx) is not int or not 0 <= idx < len(colors) or colors[idx] != 0:
        raise ValidationError(f"{player} strategy colored an unavailable index {idx!r}")
    if type(sign) is not int or sign not in (-1, 1):
        raise ValidationError(f"{player} strategy produced sign {sign!r}")
    return idx, sign


def play_game(values, maker, breaker, starter=BREAKER, wait_allowed=(MAKER, BREAKER)):
    """Run a full game; returns (final GameState, per-move max |prefix| trace).

    Strategies are objects with ``move(state) -> move`` where a move is either
    the tuple ``("color", index, sign)`` or ``("wait",)``; anything else is a
    `ValidationError` naming the player.  Waiting twice in a row while
    elements remain re-queries the current player with ``must_color`` set.
    """
    values = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
    if not values:
        raise ValidationError("the game needs at least one value")
    for v in values:
        if abs(v.numerator) > v.denominator:
            raise ValidationError(f"game value {v} outside [-1, 1]")
    if starter not in (MAKER, BREAKER):
        raise ValidationError(f"unknown starter {starter!r}")
    state = GameState(
        values=values,
        colors=[0] * len(values),
        to_move=starter,
        wait_allowed={MAKER: MAKER in wait_allowed, BREAKER: BREAKER in wait_allowed},
    )
    players = {MAKER: maker, BREAKER: breaker}
    tree = state.tree
    peaks: dict[int, Fraction] = {}  # one Fraction per distinct scaled peak
    trace: list[Fraction] = []
    prev_wait = False
    while state.open:
        player = state.to_move
        state.must_color = False
        move = _checked_move(player, players[player].move(state), state.colors)
        if move is None and (prev_wait or not state.wait_allowed[player]):
            state.must_color = True
            move = _checked_move(player, players[player].move(state), state.colors)
            if move is None:
                raise ValidationError(f"{player} strategy waited when forced to color")
        if move is None:
            state.history.append((player, None, None))
            prev_wait = True
        else:
            idx, sign = move
            state.color(idx, sign)
            state.history.append((player, idx, sign))
            prev_wait = False
        scaled = tree.peak_scaled()
        peak = peaks.get(scaled)
        if peak is None:
            peak = peaks[scaled] = Fraction(scaled, tree.den)
        trace.append(peak)
        state.to_move = MAKER if player == BREAKER else BREAKER
    if tree.peak() != _max_abs_prefix(state.values, state.colors):
        raise InternalCheckError("the prefix tree's peak differs from a full rescan")
    # replay check: history must reproduce the final coloring
    replay = [0] * state.n
    for _, idx, sign in state.history:
        if idx is not None:
            if replay[idx] != 0:
                raise InternalCheckError("history colored an element twice")
            replay[idx] = sign
    if replay != state.colors:
        raise InternalCheckError("history does not replay to the final state")
    return state, trace


# ---------------------------------------------------------------------------
# Strategies (the pairing maker also plays the two-system colorers' games)
# ---------------------------------------------------------------------------


class PairingMaker:
    """The robust pairing maker.  Certified discrepancy at most 4 on +-1 values.

    With ``allow_fractional`` the same pairing heuristic runs on arbitrary
    nonzero values (used in hard-instance tournaments and by the two-system
    colorers); no bound is claimed there.

    The strategy works in sign-normalized space: element i with value x
    behaves like |x| colored eps*sgn(x).  Pairs are (2q, 2q+1); an odd
    trailing element is colored only when it is the last one left.  A
    half-colored pair is completed first (the last one when there are
    several); otherwise the first uncolored element, ``state.open[0]``, is
    colored against the prefix before it, read from ``state.tree``.

    The half-colored pairs are updated from the history entries added since
    the last call.  Between calls the colors may change only by the moves the
    history records; a different state object, or a history that does not
    extend the one last seen, triggers an O(n) resync from ``colors``.
    """

    def __init__(self, allow_fractional: bool = False):
        self.allow_fractional = allow_fractional
        self._values = None  # the values `_sgn` was built for
        self._sgn: list[int] = []
        self._state: Optional[GameState] = None  # the state `_half` follows
        self._seen = 0  # history entries folded in
        self._last = None  # history[_seen - 1] when it was folded in
        self._half: set[int] = set()  # pairs q with exactly one of 2q, 2q+1 colored

    def move(self, state: GameState) -> tuple:
        if state.values is not self._values:
            if not self.allow_fractional:
                for v in state.values:
                    if v.denominator != 1 or v.numerator not in (-1, 1):
                        raise ValidationError(f"pairing maker requires +-1 values, got {v}")
            self._sgn = [1 if v.numerator >= 0 else -1 for v in state.values]
            self._values = state.values
            self._state = None
        self._sync(state)
        colors, sgn = state.colors, self._sgn
        if self._half:
            # complete the last half-colored pair
            q = max(self._half)
            a, b = 2 * q, 2 * q + 1
            colored, open_ = (a, b) if colors[b] == 0 else (b, a)
            return color_move(open_, -colors[colored] * sgn[colored] * sgn[open_])
        if not state.open:
            return WAIT
        # color the first uncolored element against the prefix before it
        cur = state.open[0]
        return color_move(cur, (1 if state.tree.prefix_scaled(cur) < 0 else -1) * sgn[cur])

    def _sync(self, state: GameState) -> None:
        """Bring the half-colored pairs up to the state's colors."""
        colors, history, seen = state.colors, state.history, self._seen
        if (state is self._state and len(history) >= seen
                and (not seen or history[seen - 1] is self._last)):
            touched = {idx >> 1 for _, idx, _ in history[seen:] if idx is not None}
        else:  # resync
            self._state, self._half = state, set()
            touched = range(state.n // 2)
        for q in touched:
            if 2 * q + 1 < len(colors) and (colors[2 * q] == 0) != (colors[2 * q + 1] == 0):
                self._half.add(q)
            else:
                self._half.discard(q)
        self._seen = len(history)
        self._last = history[-1] if history else None


class GreedyMaker:
    """Colors the first uncolored element with the sign that minimizes the
    resulting max |prefix| over the partial coloring; tie -> +1."""

    def move(self, state: GameState) -> tuple:
        if not state.open:
            return WAIT
        i = state.open[0]
        plus, minus = state.tree.peaks_if(i)
        return color_move(i, -1 if minus < plus else 1)


class RandomBreaker:
    """Uniform random coloring moves; waits with probability `wait_prob` when legal."""

    def __init__(self, seed: int, wait_prob: float = 0.0):
        import random

        self.rng = random.Random(seed)
        self.wait_prob = wait_prob

    def move(self, state: GameState) -> tuple:
        open_ = state.open
        if not open_:
            return WAIT
        if (
            not state.must_color
            and state.wait_allowed[BREAKER]
            and self.rng.random() < self.wait_prob
        ):
            return WAIT
        idx = self.rng.choice(open_)
        sign = self.rng.choice((-1, 1))
        return color_move(idx, sign)


def interleave_pairing_colorings(games_a, games_b, colors) -> None:
    """Alternate two families of pairing games until every element is colored.

    ``games_a``/``games_b`` map a dimension key to ``[(element, entry), ...]``
    in game order, entries nonzero; an element is in at most one game per
    side.  Each game is a `GameState` over its entries played by its own
    `PairingMaker`, and every coloring is recorded in each game the element
    belongs to.  Side A guards the per-dimension prefixes of its entries,
    side B of its own; each responds in the game of the opponent's last
    move, falling back to the game of the first uncolored element, or to +1
    when that element has no game on its side.
    """
    sides = []
    for games in (games_a, games_b):
        at = {}  # element -> ((state, maker, elements), position in the game)
        for entries in games.values():
            elems = [e for e, _ in entries]
            state = GameState(values=tuple(v for _, v in entries),
                              colors=[colors[e] for e in elems], to_move=MAKER,
                              wait_allowed={MAKER: True, BREAKER: True})
            game = (state, PairingMaker(allow_fractional=True), elems)
            for pos, e in enumerate(elems):
                at[e] = (game, pos)
        sides.append(at)

    def reply(game):
        state, maker, elems = game
        move = maker.move(state)
        return (None, None) if move[0] == "wait" else (elems[move[1]], move[2])

    turn, last, first = 0, None, 0  # no uncolored element before `first`
    for _ in range(colors.count(0)):
        at = sides[turn]
        elem, sign = reply(at[last][0]) if last in at else (None, None)
        if elem is None:
            while colors[first]:
                first += 1
            elem, sign = reply(at[first][0]) if first in at else (first, 1)
        colors[elem] = sign
        for side, where in enumerate(sides):
            if elem in where:
                (state, _, _), pos = where[elem]
                state.color(pos, sign)
                state.history.append((MAKER if side == turn else BREAKER, pos, sign))
        last = elem
        turn ^= 1


def color_two_permutation(values, sigma) -> list[int]:
    """Color values so both the identity and the sigma-order prefixes stay small.

    On values in {-1, 0, +1} both prefix systems are bounded by 4 (zeros are
    colored +1 and do not participate).
    """
    values = [Fraction(v) for v in values]
    if any(type(s) is not int for s in sigma):  # 0.0 and True are not indices here
        raise ValidationError("sigma entries must be ints")
    if sorted(sigma) != list(range(len(values))):
        raise ValidationError("sigma is not a permutation of range(n)")
    colors = [0 if v else 1 for v in values]
    interleave_pairing_colorings(
        games_a={0: [(i, v) for i, v in enumerate(values) if v]},
        games_b={0: [(i, values[i]) for i in sigma if values[i]]},
        colors=colors,
    )
    return colors


def permutation_prefix_peaks(values, sigma, colors) -> tuple[Fraction, Fraction]:
    """Max |prefix| of the identity system and of the sigma system."""
    values = [Fraction(v) for v in values]

    def peak(order):
        return _max_abs_prefix([values[i] for i in order], [colors[i] for i in order])

    return peak(range(len(values))), peak(sigma)


# ---------------------------------------------------------------------------
# Exhaustive adversary
# ---------------------------------------------------------------------------


def exhaustive_breaker_value(values, maker, starter=BREAKER, allow_wait=True, limit=12) -> Fraction:
    """Best payoff (max-over-time prefix discrepancy) a perfect breaker forces.

    The maker plays the supplied strategy, which must be a pure function of
    (values, colors).  Payoff counts every intermediate position, so the value
    of a state is its own discrepancy joined with the best continuation.
    """
    values = tuple(Fraction(v) for v in values)
    n = len(values)
    if n > limit:
        raise ValidationError(f"n = {n} exceeds exhaustive search limit {limit}")
    memo: dict = {}

    def disc_of(colors) -> Fraction:
        return _max_abs_prefix(values, colors)

    def state_for(colors, to_move) -> GameState:
        return GameState(
            values=values,
            colors=list(colors),
            to_move=to_move,
            wait_allowed={MAKER: False, BREAKER: allow_wait},
        )

    def visit(colors: tuple, to_move: str) -> Fraction:
        key = (colors, to_move)
        if key in memo:
            return memo[key]
        here = disc_of(colors)
        if all(colors):
            memo[key] = here
            return here
        if to_move == MAKER:
            move = _checked_move(MAKER, maker.move(state_for(colors, MAKER)), colors)
            if move is None:
                raise ValidationError("maker strategy must color while elements remain")
            idx, sign = move
            nxt = list(colors)
            nxt[idx] = sign
            val = max(here, visit(tuple(nxt), BREAKER))
        else:
            val = here
            for idx in range(n):
                if colors[idx]:
                    continue
                for sign in (-1, 1):
                    nxt = list(colors)
                    nxt[idx] = sign
                    val = max(val, visit(tuple(nxt), MAKER))
            if allow_wait:
                val = max(val, visit(colors, MAKER))
        memo[key] = val
        return val

    return visit((0,) * n, starter)


# ---------------------------------------------------------------------------
# Hard instances and the tree breaker
# ---------------------------------------------------------------------------


@dataclass
class TreeShape:
    """Preorder layout of the complete k^2-ary tree of value layers."""

    k: int
    layer: list[int]
    parent: list[Optional[int]]
    children: list[list[int]]
    subtree_size: list[int]
    child_rank: list[int]  # 1-based rank among siblings; root has rank 1

    def next_sib(self, i: int) -> Optional[int]:
        p = self.parent[i]
        if p is None:
            return None
        sibs = self.children[p]
        r = self.child_rank[i]
        return sibs[r] if r < len(sibs) else None

    def first_child(self, i: int) -> Optional[int]:
        return self.children[i][0] if self.children[i] else None

    def value(self, i: int) -> Fraction:
        return 1 - Fraction(self.layer[i], self.k)


def build_hard_tree(k: int) -> TreeShape:
    if k < 2 or k % 2 != 0:
        raise ValidationError(f"k must be even and >= 2, got {k}")
    size = sum((k * k) ** d for d in range(k // 2))
    if size > 10 ** 6:
        raise ValidationError(f"hard instance for k = {k} has {size} elements; too large")
    depth_max = k // 2 - 1  # nodes exist at layers 0..depth_max
    layer: list[int] = []
    parent: list[Optional[int]] = []
    children: list[list[int]] = []
    child_rank: list[int] = []

    def emit(d: int, par: Optional[int], rank: int) -> int:
        idx = len(layer)
        layer.append(d)
        parent.append(par)
        children.append([])
        child_rank.append(rank)
        if par is not None:
            children[par].append(idx)
        if d < depth_max:
            for q in range(k * k):
                emit(d + 1, idx, q + 1)
        return idx

    emit(0, None, 1)
    size = [1] * len(layer)
    for i in range(len(layer) - 1, -1, -1):
        for c in children[i]:
            size[i] += size[c]
    return TreeShape(k=k, layer=layer, parent=parent, children=children,
                     subtree_size=size, child_rank=child_rank)


def breaker_hard_instance(k: int) -> list[Fraction]:
    """Values of the layered hard instance: preorder walk, layer d worth 1 - d/k."""
    tree = build_hard_tree(k)
    return [tree.value(i) for i in range(len(tree.layer))]


@dataclass
class BreakerStructure:
    """The breaker's live interval structure (indices i_0 .. i_{l+1})."""

    indices: list[int]

    @property
    def ell(self) -> int:
        return len(self.indices) - 2


def check_breaker_structure(tree: TreeShape, values, colors, structure: BreakerStructure) -> None:
    """Assert the five structural properties; raises InternalCheckError otherwise."""
    idx = structure.indices
    ell = structure.ell
    if ell < 1:
        raise InternalCheckError("structure must keep at least i_0, i_1, i_2")
    if any(not 0 <= i < len(values) for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
        raise InternalCheckError(f"structure indices not strictly increasing: {idx}")
    # (1) interior special indices are colored +1
    for j in range(1, ell + 1):
        if colors[idx[j]] != 1:
            raise InternalCheckError(f"special index i_{j}={idx[j]} not colored +1")
    gap_sums = []
    for j in range(ell + 1):
        u = Fraction(0)
        for e in range(idx[j] + 1, idx[j + 1]):
            if colors[e] == 0:
                # (2) uncolored gap elements strictly smaller than the gap's left anchor
                if values[e] >= values[idx[j]]:
                    raise InternalCheckError(
                        f"uncolored {e} (value {values[e]}) not below anchor i_{j}"
                    )
            else:
                u += colors[e] * values[e]
        # (3) each gap's colored mass is nonnegative
        if u < 0:
            raise InternalCheckError(f"gap {j} has negative colored mass {u}")
        gap_sums.append(u)
    # (4) the working subtrees are untouched
    last = idx[-2]
    base = last + 1
    for e in range(base, last + tree.subtree_size[last]):
        if colors[e] != 0:
            raise InternalCheckError(f"subtree of i_l contains colored element {e}")
    s = tree.next_sib(last)
    while s is not None:
        for e in range(s, s + tree.subtree_size[s]):
            if colors[e] != 0:
                raise InternalCheckError(f"sibling subtree at {s} contains colored element {e}")
        s = tree.next_sib(s)
    # (5) the frontier index is shallow enough and the mass matches its child rank
    frontier = idx[-1]
    if values[frontier] < 1 - Fraction(ell, tree.k):
        raise InternalCheckError(
            f"frontier value {values[frontier]} below 1 - l/k = {1 - Fraction(ell, tree.k)}"
        )
    j_rank = tree.child_rank[frontier]
    total = sum(gap_sums, Fraction(0))
    if total < Fraction(j_rank - 2, tree.k):
        raise InternalCheckError(
            f"gap mass {total} below (j-2)/k = {Fraction(j_rank - 2, tree.k)}"
        )


class TreeBreaker:
    """Breaker strategy for hard instances; asserts its invariants every move.

    Builds the interval structure while the tree has room (cases: merge a gap
    the maker touched, or descend one layer), then freezes the achieved
    interval and keeps reinforcing the larger of its two boundary prefixes by
    coloring the largest remaining element inside it.

    The structural guarantees assume the breaker moves first.
    """

    def __init__(self, k: int):
        self.tree = build_hard_tree(k)
        self.values = [self.tree.value(i) for i in range(len(self.tree.layer))]
        self.structure: Optional[BreakerStructure] = None
        self.phase = "open"
        self.claim: Optional[tuple[int, int]] = None  # (i_0, i_{l+1}) frozen at endgame
        self.checked_moves = 0  # build-phase moves that passed the invariant check
        self._bound_values = None  # the state values last found equal to self.values
        self._layer_elems: list[list[int]] = [[] for _ in range(k // 2)]  # ascending
        for e, d in enumerate(self.tree.layer):
            self._layer_elems[d].append(e)
        self._cursor_state: Optional[GameState] = None  # the state the cursors follow
        self._cursors: list[int] = []  # per layer: no open element before this position

    # -- helpers ----------------------------------------------------------
    def _maintenance_move(self, state: GameState) -> tuple:
        lo, hi = self.claim
        tree = state.tree
        pref_lo = tree.prefix_scaled(lo + 1)
        prefix = tree.prefix_scaled(hi)
        # reinforce whichever boundary prefix is further from zero
        if abs(pref_lo) > abs(prefix):
            target, total = lo, pref_lo
        else:
            target, total = hi - 1, prefix
        sign = 1 if total >= 0 else -1
        # the heaviest open element (lowest layer, then smallest index) at or
        # before target; failing that, the heaviest one anywhere, which keeps
        # pushing the achieved deviation once the claimed prefix is exhausted
        firsts = self._first_open_per_layer(state)
        for e in firsts:
            if e <= target:
                return color_move(e, sign)
        if firsts:
            return color_move(firsts[0], sign)
        return WAIT

    def _first_open_per_layer(self, state: GameState) -> list[int]:
        """Each layer's first uncolored element, by layer.

        Colors only go from 0 to +-1, so each layer's cursor only moves
        forward: amortized O(k) per call over a game.  A different state
        object restarts the cursors.
        """
        if state is not self._cursor_state:
            self._cursor_state = state
            self._cursors = [0] * len(self._layer_elems)
        colors = state.colors
        firsts = []
        for d, elems in enumerate(self._layer_elems):
            pos = self._cursors[d]
            while pos < len(elems) and colors[elems[pos]]:
                pos += 1
            self._cursors[d] = pos
            if pos < len(elems):
                firsts.append(elems[pos])
        return firsts

    def _enter_maintenance(self, idx: list[int]) -> None:
        self.phase = "maintain"
        self.claim = (idx[0], idx[-1])

    # -- main move --------------------------------------------------------
    def move(self, state: GameState) -> tuple:
        if state.values is not self._bound_values:
            if list(state.values) != self.values:
                raise ValidationError("tree breaker bound to a different hard instance")
            self._bound_values = state.values
        if self.phase == "maintain":
            return self._maintenance_move(state)
        if self.phase == "open":
            self.phase = "build"
            root = 0
            i1 = self.tree.first_child(root)
            if i1 is None:  # k = 2: the instance is the lone root
                self._enter_maintenance([0, 0, 1])
                self.claim = (0, 1)
                if state.colors[0] == 0:
                    return color_move(0, 1)
                return self._maintenance_move(state)
            while i1 is not None and state.colors[i1] != 0:
                i1 = self.tree.next_sib(i1)  # defensive: opponent moved first
            i2 = self.tree.next_sib(i1)
            self.structure = BreakerStructure(indices=[root, i1, i2])
            mv = color_move(i1, 1)
            self._assert_after(state, mv)
            return mv

        idx = self.structure.indices
        ell = self.structure.ell
        # the maker's last move: the breaker never waits while elements remain,
        # so in play_game the entry before each of its build moves is the maker's
        last_opp = state.history[-1][1] if state.history else None
        gap_t = None
        if last_opp is not None:
            for t in range(1, ell + 1):
                if idx[t] < last_opp < idx[t + 1]:
                    gap_t = t
                    break
        if gap_t is not None:
            # merge the touched gap leftward, advance the frontier one sibling
            ns = self.tree.next_sib(idx[-1])
            if ns is None:
                self._enter_maintenance(idx)
                return self._maintenance_move(state)
            new_idx = idx[:gap_t] + idx[gap_t + 1:] + [ns]
            self.structure = BreakerStructure(indices=new_idx)
            mv = color_move(new_idx[-2], 1)
            self._assert_after(state, mv)
            return mv
        # the maker did not interfere: descend one layer
        fc = self.tree.first_child(idx[-2])
        if fc is None:
            self._enter_maintenance(idx)
            return self._maintenance_move(state)
        new_idx = [idx[1] - 1] + idx[1:-1] + [fc, self.tree.next_sib(fc)]
        self.structure = BreakerStructure(indices=new_idx)
        mv = color_move(fc, 1)
        self._assert_after(state, mv)
        return mv

    def _assert_after(self, state: GameState, mv: tuple) -> None:
        colors = list(state.colors)
        _, idx, sign = mv
        colors[idx] = sign
        check_breaker_structure(self.tree, self.values, colors, self.structure)
        self.checked_moves += 1
