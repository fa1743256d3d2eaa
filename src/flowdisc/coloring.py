"""Prefix/interval discrepancy evaluation and sign-finding algorithms.

A `SignedVectorSequence` is an ordered list of rational vectors together with
a (possibly partial) coloring in {-1, 0, +1}.  The exhaustive and greedy
colorers and `discrepancy` work on the vectors as ints over one common scale:
given at construction (``scale=``) or derived there.  Three
discrepancy measures are supported:

- ``prefix``: max over prefixes k of the infinity norm of the signed sum,
- ``interval``: the same over all consecutive index windows,
- ``one_sided_interval``: max over windows and coordinates of the signed sum
  itself (upper deviations only, no absolute value).

Colorers: exhaustive search, online greedy, a floating-coefficient scheme with
a certified 2m prefix bound (Barany-Grinberg style), and a pairing-game
colorer for 2-sparse sign vectors.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .util import (InternalCheckError, ValidationError, common_scale, exact_fraction, int_from_json,
                   list_from_json, rat_from_str, rat_to_str, scaled)

PREFIX = "prefix"
INTERVAL = "interval"
ONE_SIDED = "one_sided_interval"
_MODES = (PREFIX, INTERVAL, ONE_SIDED)


@dataclass
class SignedVectorSequence:
    m: int
    vectors: list  # list of tuples of Fractions, each of length m
    signs: list = field(default_factory=list)  # entries in {-1, 0, +1}; 0 = uncolored
    # If given, ``vectors`` arrive as int tuples that stand for vectors / scale;
    # otherwise __post_init__ derives that scale.  Either way ``_ints[j]`` is
    # vector j times ``scale`` (with_signs copies share it), so values compare
    # as plain ints.  From ints, the Fraction tuples of ``vectors`` are built
    # on its first read (see the property below the class).
    scale: Optional[int] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.m}")
        if self.scale is None:
            self._view = [tuple(map(exact_fraction, v)) for v in self._view]
            self.scale = scale = common_scale(x for v in self._view for x in v)
            self._ints = [tuple(scaled(x, scale) for x in v) for v in self._view]
        else:
            self._ints = [tuple(v) for v in self._view]
            self._view = None
            if not all(type(x) is int for v in self._ints for x in v) or self.scale < 1:
                raise ValidationError("scaled vectors must be ints over a positive int scale")
        for v in self._ints:
            if len(v) != self.m:
                raise ValidationError(f"vector of dimension {len(v)}, expected {self.m}")
        self._check_signs()

    def _check_signs(self) -> None:
        if not self.signs:
            self.signs = [0] * len(self._ints)
        if len(self.signs) != len(self._ints):
            raise ValidationError("signs length differs from vector count")
        for s in self.signs:
            if s not in (-1, 0, 1):
                raise ValidationError(f"sign {s} outside {{-1, 0, +1}}")

    @property
    def n(self) -> int:
        return len(self._ints)

    def l1_violations(self) -> list[int]:
        """Indices whose l1 norm exceeds 1 (the bounded-l1 setting is validated, not assumed)."""
        return [j for j, v in enumerate(self.vectors) if sum(abs(x) for x in v) > 1]

    def with_signs(self, signs) -> "SignedVectorSequence":
        """The same (already validated) vectors under new signs; a view not
        yet built stays unbuilt."""
        seq = copy.copy(self)
        if self._view is not None:
            seq._view = list(self._view)
        seq.signs = list(signs)
        seq._check_signs()
        return seq


def _vectors(seq: SignedVectorSequence) -> list:
    if seq._view is None:
        scale = seq.scale
        views = {v: tuple(Fraction(x, scale) for x in v) for v in set(seq._ints)}
        seq._view = [views[v] for v in seq._ints]  # equal vectors share one tuple
    return seq._view


def _set_vectors(seq: SignedVectorSequence, vectors) -> None:
    seq._view = vectors


# Set after the dataclass is made, so ``vectors`` stays a plain required field
# of __init__, __eq__ and __repr__ while reads go through the cache.
SignedVectorSequence.vectors = property(_vectors, _set_vectors)


@dataclass(frozen=True)
class DiscrepancyReport:
    mode: str
    value: Fraction
    witness: tuple  # (coordinate, first index, last index), inclusive 0-based

    def reproduce(self, seq: SignedVectorSequence) -> Fraction:
        """Re-evaluate the witness window; must equal ``value``."""
        coord, lo, hi = self.witness
        total = sum(
            (seq.signs[j] * seq.vectors[j][coord] for j in range(lo, hi + 1)), Fraction(0)
        )
        return total if self.mode == ONE_SIDED else abs(total)


def _require_fully_signed(seq: SignedVectorSequence) -> None:
    for j, s in enumerate(seq.signs):
        if s == 0:
            raise ValidationError(f"vector {j} is uncolored")


def discrepancy(seq: SignedVectorSequence, mode: str) -> DiscrepancyReport:
    """Evaluate a fully signed sequence under the requested measure, with witness."""
    if mode not in _MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    _require_fully_signed(seq)
    if seq.n == 0:
        return DiscrepancyReport(mode, Fraction(0), (0, 0, -1))
    vecs, scale = seq._ints, seq.scale
    best_val: Optional[int] = None
    best_wit = None
    for i, col in enumerate(zip(*vecs)):
        run = 0
        if mode == PREFIX:
            for k, x in enumerate(col):
                run += seq.signs[k] * x
                val = abs(run)
                if best_val is None or val > best_val:
                    best_val, best_wit = val, (i, 0, k)
        elif mode == INTERVAL:
            # spread of prefix sums (S_0 = 0 included) = max window |sum|
            lo_v = hi_v = 0
            lo_k = hi_k = -1  # prefix index of extreme (-1 = empty prefix)
            for k, x in enumerate(col):
                run += seq.signs[k] * x
                if run < lo_v:
                    lo_v, lo_k = run, k
                if run > hi_v:
                    hi_v, hi_k = run, k
            val = hi_v - lo_v
            a, b = min(lo_k, hi_k), max(lo_k, hi_k)
            wit = (i, a + 1, b)
            if best_val is None or val > best_val:
                best_val, best_wit = val, wit
        else:  # one-sided: max over l of S_l - min_{q < l} S_q
            min_v, min_k = 0, -1
            for k, x in enumerate(col):
                prev_min, prev_min_k = min_v, min_k
                run += seq.signs[k] * x
                val = run - prev_min
                if best_val is None or val > best_val:
                    best_val, best_wit = val, (i, prev_min_k + 1, k)
                if run < min_v:
                    min_v, min_k = run, k
    return DiscrepancyReport(mode, Fraction(best_val, scale), best_wit)


# One step of the exhaustive search per mode: append sign `s` times the integer
# vector `vec` to a prefix whose per-coordinate state is `state` and whose value
# is `value`; return the new state and value.  The value is a max over windows
# of the prefix, so a step never lowers it.

def _prefix_step(state, vec, s, value):
    runs = tuple(run + s * x for run, x in zip(state, vec))  # state: run
    for run in runs:
        if run > value:
            value = run
        elif -run > value:
            value = -run
    return runs, value


def _interval_step(state, vec, s, value):
    out = []
    for (run, lo, hi), x in zip(state, vec):  # state: (run, min prefix, max prefix)
        run += s * x
        if run < lo:
            lo = run
        elif run > hi:
            hi = run
        if hi - lo > value:
            value = hi - lo
        out.append((run, lo, hi))
    return tuple(out), value


def _one_sided_step(state, vec, s, value):
    out = []
    for (run, lo), x in zip(state, vec):  # state: (run, min earlier prefix)
        run += s * x
        if value is None or run - lo > value:
            value = run - lo
        out.append((run, min(lo, run)))
    return tuple(out), value


def color_brute_force(seq: SignedVectorSequence, mode: str, limit: int = 20) -> list[int]:
    """Exhaustive optimal coloring; returns the lexicographically least optimum.

    A depth-first search over the sign patterns in ``itertools.product``
    order: -1 is tried before +1 at every index.  For the flip-invariant
    measures (prefix, interval) the first sign is fixed to +1, halving the
    search; one-sided interval values are not invariant under a global flip,
    so that mode searches all 2^n patterns.  A pattern replaces the best one
    only when its value is strictly smaller, so the first optimum in that
    order, the lexicographically least, is returned.

    The vectors are scaled once to integers over a common denominator, and
    each node carries O(m) integer state that one appended sign updates in
    O(m).  Pruning is exact: every measure is a max over windows of the
    signed prefix, and appending vectors adds windows without changing the
    old ones, so a node's value bounds every pattern below it from below.

    Before the search, one walk over the sequence keeps at each index the
    sign whose step value is smaller (+1 on ties).  Its final value U is the
    value of a real pattern, so the optimum V* is at most U (for prefix and
    interval a walk that starts with -1 flips to a pattern of the same
    value).  Until the first pattern is taken, a node is cut only when its
    value is > U; after that, when it is not strictly below the best value
    found so far.  The lexicographically least optimum P* is still the one
    returned: every prefix of P* has value <= V* <= U and is not cut, and
    every pattern taken before P* in product order has value > V*, or it
    would be an earlier optimum.  Every cut node has value > U >= V* or
    value >= best >= V*, so it holds no pattern the strict update would
    take in place of P*.
    """
    if mode not in _MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    if seq.n > limit:
        raise ValidationError(f"n = {seq.n} exceeds brute-force limit {limit}")
    if seq.n == 0:
        return []
    vecs = seq._ints
    n, m = seq.n, seq.m
    if mode == PREFIX:
        step, root, root_value = _prefix_step, (0,) * m, 0
    elif mode == INTERVAL:
        step, root, root_value = _interval_step, ((0, 0, 0),) * m, 0
    else:
        step, root, root_value = _one_sided_step, ((0, 0),) * m, None
    # One walk keeping, at each index, the sign with the smaller step value:
    # its final value U is a real pattern's, so U + 1 is a strict bound that
    # every optimum meets.  Values are ints over the common scale.
    state, value = root, root_value
    for vec in vecs:
        plus, minus = step(state, vec, 1, value), step(state, vec, -1, value)
        state, value = minus if minus[1] < plus[1] else plus
    first_signs = (-1, 1) if mode == ONE_SIDED else (1,)
    signs = [0] * n
    best_val, best_signs = value + 1, None
    # Pending nodes as (index, sign, parent state, parent value), +1 pushed
    # below -1 so that pops follow product order; no recursion, so any n fits.
    stack = [(0, s, root, root_value) for s in reversed(first_signs)]
    while stack:
        k, s, state, value = stack.pop()
        state, value = step(state, vecs[k], s, value)
        if value < best_val:
            signs[k] = s
            if k + 1 == n:
                best_val, best_signs = value, list(signs)
            else:
                stack += ((k + 1, 1, state, value), (k + 1, -1, state, value))
    return best_signs


def color_greedy(seq: SignedVectorSequence) -> list[int]:
    """Process vectors in order, choosing the sign that minimizes the running
    prefix infinity norm; ties go to +1.  Runs on the integer vectors, whose
    common positive scale leaves every comparison as it is on the rationals."""
    vecs = seq._ints
    sums = [0] * seq.m
    signs = []
    for v in vecs:
        plus = max(abs(s + x) for s, x in zip(sums, v))
        minus = max(abs(s - x) for s, x in zip(sums, v))
        eps = 1 if plus <= minus else -1
        signs.append(eps)
        sums = [s + eps * x for s, x in zip(sums, v)]
    return signs


def _lex_least_kernel_vector(matrix: list[list[Fraction]], ncols: int) -> list[Fraction]:
    """Lexicographically least basis vector of the kernel, by exact elimination.

    `matrix` has full column count `ncols` and strictly fewer independent rows
    than columns, so the kernel is nontrivial.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for col in range(ncols):
        sel = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pr = rows[rank]
        inv = pr[col]
        rows[rank] = [x / inv for x in pr]
        for r in range(nrows):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivot_of_col[col] = rank
        rank += 1
    free_cols = [c for c in range(ncols) if c not in pivot_of_col]
    if not free_cols:
        raise InternalCheckError("kernel unexpectedly trivial")
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, pr in pivot_of_col.items():
            vec[pc] = -rows[pr][fc]
        basis.append(vec)
    return min(basis, key=tuple)


def color_floating(seq: SignedVectorSequence) -> list[int]:
    """Floating-coefficient colorer with a certified prefix bound of 2m.

    Requires every vector to have l1 norm at most 1.  Coefficients start at 0;
    whenever more than m of them are strictly fractional, the coefficient
    vector moves along an exact kernel direction of the coordinate matrix
    until some coefficient hits +-1 and freezes.  At most m coefficients stay
    fractional after every insertion, and the signed prefix sums of the final
    rounding never exceed 2m in infinity norm.
    """
    bad = seq.l1_violations()
    if bad:
        raise ValidationError(f"l1 norm exceeds 1 at indices {bad}")
    n, m = seq.n, seq.m
    alpha: dict[int, Fraction] = {}
    floating: list[int] = []
    signs = [0] * n
    for j in range(n):
        alpha[j] = Fraction(0)
        floating.append(j)
        while len(floating) > m:
            matrix = [[seq.vectors[idx][i] for idx in floating] for i in range(m)]
            lam = _lex_least_kernel_vector(matrix, len(floating))
            step = None
            for pos, l in enumerate(lam):
                if l == 0:
                    continue
                a = alpha[floating[pos]]
                t = (1 - a) / l if l > 0 else (-1 - a) / l
                if step is None or t < step:
                    step = t
            if step is None or step <= 0:
                raise InternalCheckError(f"floating step {step} is not positive")
            hit = []
            for pos, idx in enumerate(floating):
                alpha[idx] += step * lam[pos]
                if abs(alpha[idx]) == 1:
                    hit.append(idx)
            for idx in hit:
                signs[idx] = int(alpha[idx])
                floating.remove(idx)
        if len(floating) > m:
            raise InternalCheckError(f"{len(floating)} coefficients floating, more than m = {m}")
    for idx in floating:
        signs[idx] = 1 if alpha[idx] >= 0 else -1
    return signs


def color_two_sparse_paired(seq: SignedVectorSequence) -> list[int]:
    """Color 2-sparse sign vectors by two interleaved pairing strategies.

    Precondition: every entry lies in {-1, 0, +1} and every vector has at most
    two nonzero entries.  Each vector splits into its first and second nonzero
    entry; one balancing player guards the per-coordinate prefixes of the
    first entries, the other guards the second entries.  Each player's
    per-coordinate system stays within the pairing bound 4, so the full
    sequence has prefix discrepancy at most 8.
    """
    from .game import interleave_pairing_colorings  # local import: game has no coloring dep

    games_first: dict[int, list] = {}  # coordinate -> [(vector, entry), ...] in order
    games_second: dict[int, list] = {}
    for j, v in enumerate(seq.vectors):
        nz = [(i, x) for i, x in enumerate(v) if x != 0]
        if len(nz) > 2:
            raise ValidationError(f"vector {j} has sparsity {len(nz)} > 2")
        for _, x in nz:
            if x not in (-1, 1):
                raise ValidationError(f"vector {j} has entry {x} outside {{-1, 0, +1}}")
        for games, (i, x) in zip((games_first, games_second), nz):
            games.setdefault(i, []).append((j, int(x)))
    colors = [0] * seq.n
    interleave_pairing_colorings(games_first, games_second, colors)
    return colors


def seq_to_json(seq: SignedVectorSequence) -> dict:
    data = {
        "m": seq.m,
        "vectors": [[rat_to_str(x) for x in v] for v in seq.vectors],
    }
    if any(s != 0 for s in seq.signs):
        data["signs"] = list(seq.signs)
    return data


def seq_from_json(data: dict) -> SignedVectorSequence:
    try:
        m = int_from_json(data["m"])
        vectors = [[rat_from_str(x) for x in list_from_json(row, f"vector file: vector {k}")]
                   for k, row in enumerate(list_from_json(data["vectors"], "vector file: vectors"))]
        signs = [int_from_json(s) for s in list_from_json(data.get("signs", []), "vector file: signs")]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"vector file malformed: {exc}") from None
    return SignedVectorSequence(m=m, vectors=vectors, signs=signs)


# colorer name -> callable `seq -> signs` (prefix objective)
COLORERS = {
    "brute": lambda seq: color_brute_force(seq, PREFIX),
    "greedy": color_greedy,
    "floating": color_floating,
    "paired": color_two_sparse_paired,
}


def get_colorer(name: str):
    """Resolve a colorer name to a callable `seq -> signs` (prefix objective)."""
    if name not in COLORERS:
        raise ValidationError(f"unknown colorer {name!r} (choose from {sorted(COLORERS)})")
    return COLORERS[name]
