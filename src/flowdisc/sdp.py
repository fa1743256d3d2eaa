"""Vector relaxation of prefix balancing via coordinate blocks.

Each coordinate of an input sequence is replaced by a block of r coordinates;
every vector spawns r copies, the l-th copy occupying the l-th slot of each
block.  A sign pattern for the block sequence folds into unit vectors
w_j = r^(-1/2) * (signs of vector j), and the squared block sums of the signed
prefix sums equal r times the squared prefix norms of the folded relaxation.
The convex body K caps every block's squared sum at (1+delta)^2 r; the block
size is chosen so a standard Gaussian vector lands outside one block's cap
with probability at most 1/(2nrm), via the explicit Laurent-Massart
chi-square tail.

All norm comparisons happen on squared rationals; no square roots are taken
except for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .coloring import SignedVectorSequence
from .util import ValidationError, exact_fraction

MC_DRAW_NORMALS = 2 ** 20  # normals per generator draw at most: 8 MB of float64


@dataclass
class BlockInstance:
    """Block expansion of a sequence: n*r vectors in R^(r*m).

    Coordinate (i, l) lives at index i*r + l (blocks are contiguous).  Block
    vector (j, l) carries v_i^(j) at (i, l) for every i and zero elsewhere,
    so its l2 norm equals the original vector's.
    """

    m: int
    n: int
    r: int
    base: list  # original vectors

    @property
    def dim(self) -> int:
        return self.m * self.r

    @property
    def count(self) -> int:
        return self.n * self.r

    def coordinate(self, i: int, slot: int) -> int:
        return i * self.r + slot

    def vector(self, j: int, slot: int) -> list:
        v = [Fraction(0)] * self.dim
        for i in range(self.m):
            v[self.coordinate(i, slot)] = self.base[j][i]
        return v

    def vectors(self) -> list:
        """Every block vector, written out: refused past 10^6 entries in all."""
        if self.count * self.dim > 10 ** 6:
            raise ValidationError(f"{self.count} block vectors of dimension {self.dim}: too large")
        return [self.vector(j, slot) for j in range(self.n) for slot in range(self.r)]


def build_block_instance(seq: SignedVectorSequence, r: int) -> BlockInstance:
    if r < 1:
        raise ValidationError(f"block size must be >= 1, got {r}")
    return BlockInstance(m=seq.m, n=seq.n, r=r, base=[tuple(v) for v in seq.vectors])


def choose_r(delta, n: int, m: int) -> int:
    """Smallest block size passing the Laurent-Massart tail requirement.

    With x = ln(2 n r m), a chi-square with r degrees of freedom exceeds
    r + 2 sqrt(r x) + 2 x with probability at most e^(-x) = 1/(2 n r m); the
    block size must push that threshold below c r, c = (1+delta)^2.  Each r
    is decided exactly (see _tail_fits), with no float.

    For r >= 2, 2 n r m >= 4 > e, so x >= 1, and the r that fit are closed
    upward: f(r) = (c-1) r - 2 sqrt(r x) - 2 x, with dx/dr = 1/r, has
    f' - f/r = (x - 1) (1/sqrt(r x) + 2/r) >= 0, so f' >= 0 wherever f >= 0.
    So r = 1 is tried, then r doubles until it fits, and a bisection between
    the last miss and that r finds the smallest fit in O(log r) tests.
    """
    delta = exact_fraction(delta)
    if delta <= 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    if n < 1 or m < 1:
        raise ValidationError(f"need n >= 1 and m >= 1, got n = {n}, m = {m}")
    c = (1 + delta) ** 2

    def fits(r: int) -> bool:
        return _tail_fits(r, 2 * n * r * m, c)

    miss, hit = 0, 1  # no miss yet: 0 stands below every r
    while not fits(hit):
        miss, hit = hit, 2 * hit
    while hit - miss > 1:
        mid = (miss + hit) // 2
        if fits(mid):
            hit = mid
        else:
            miss = mid
    return hit


def _tail_fits(r: int, N: int, c: Fraction) -> bool:
    """Whether r + 2 sqrt(r x) + 2 x <= c r for x = ln N, N >= 2.

    At a rational q >= 0 the test is exact on squares and monotone in q.
    ln N = 2 k atanh(1/3) + 2 atanh(z), k = floor(log2 N), z = (N - 2^k)/(N + 2^k),
    is transcendental, so it never meets the threshold: bounds lo < ln N < hi
    refined until both give one answer decide it.
    """
    def fits(q: Fraction) -> bool:
        slack = (c - 1) * r - 2 * q
        return slack >= 0 and 4 * r * q <= slack * slack

    k, terms = N.bit_length() - 1, 1
    while True:
        (a_lo, a_hi), (b_lo, b_hi) = (_atanh(Fraction(1, 3), terms),
                                      _atanh(Fraction(N - 2 ** k, N + 2 ** k), terms))
        lo, hi = 2 * (k * a_lo + b_lo), 2 * (k * a_hi + b_hi)
        if fits(hi) or not fits(lo):
            return fits(hi)
        terms *= 2


@lru_cache(maxsize=64)
def _atanh(z: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Bounds on atanh(z) = sum z^(2i+1)/(2i+1), 0 <= z < 1: the sum of the first
    ``terms`` terms, and it plus z^(2t+1)/((2t+1)(1 - z^2)) for t = terms."""
    part = sum((z ** (2 * i + 1) / (2 * i + 1) for i in range(terms)), Fraction(0))
    return part, part + z ** (2 * terms + 1) / ((2 * terms + 1) * (1 - z * z))


def in_body_K(point: list, r: int, delta) -> tuple[bool, list]:
    """Membership in K plus the exact per-block squared sums.

    K caps each block's squared coordinate sum at (1+delta)^2 r; the body is
    closed, convex and symmetric under negation.
    """
    delta = exact_fraction(delta)
    if len(point) % r != 0:
        raise ValidationError(f"dimension {len(point)} is not a multiple of r = {r}")
    cap = (1 + delta) ** 2 * r
    sums = [sum((exact_fraction(x) ** 2 for x in point[base:base + r]), Fraction(0))
            for base in range(0, len(point), r)]
    return all(s <= cap for s in sums), sums


@dataclass
class SdpSolution:
    """Unit vectors with entries +- r^(-1/2), stored as the sign matrix plus r."""

    r: int
    signs: list  # n rows of r entries in {-1, +1}

    def __post_init__(self):
        for row in self.signs:
            if len(row) != self.r:
                raise ValidationError("sign row length differs from r")
            for s in row:
                if s not in (-1, 1):
                    raise ValidationError(f"sign {s} outside {{-1, +1}}")

    @property
    def n(self) -> int:
        return len(self.signs)

    def norm_sq(self, j: int) -> Fraction:
        return sum((Fraction(s * s, self.r) for s in self.signs[j]), Fraction(0))


def signs_to_sdp_vectors(signs: list[int], r: int) -> SdpSolution:
    """Fold n*r block signs (grouped by vector) into n unit vectors."""
    if len(signs) % r != 0:
        raise ValidationError(f"{len(signs)} signs do not group into blocks of {r}")
    for s in signs:
        if s not in (-1, 1):
            raise ValidationError("all block signs must be set to +-1")
    rows = [signs[j * r:(j + 1) * r] for j in range(len(signs) // r)]
    return SdpSolution(r=r, signs=rows)


@dataclass(frozen=True)
class SdpDiscrepancyReport:
    value_sq: Fraction  # max over (coordinate, prefix) of the squared l2 norm
    witness: tuple      # (coordinate, prefix length)


def sdp_prefix_discrepancy(seq: SignedVectorSequence, sol: SdpSolution) -> SdpDiscrepancyReport:
    """Exact squared value of max_{i,k} l2-norm of sum_{j<=k} v_i^(j) w_j."""
    if sol.n != seq.n:
        raise ValidationError(f"{sol.n} unit vectors for {seq.n} input vectors")
    best = Fraction(0)
    wit = (0, 0)
    for i in range(seq.m):
        acc = [Fraction(0)] * sol.r
        for k in range(seq.n):
            coeff = seq.vectors[k][i]
            if coeff:
                row = sol.signs[k]
                for slot in range(sol.r):
                    acc[slot] += coeff * row[slot]
            val = sum((a * a for a in acc), Fraction(0)) / sol.r
            if val > best:
                best = val
                wit = (i, k + 1)
    return SdpDiscrepancyReport(value_sq=best, witness=wit)


def group_prefix_sums(block: BlockInstance, signs: list[int]) -> list:
    """Signed prefix sums of the block sequence at whole-vector boundaries."""
    if len(signs) != block.count:
        raise ValidationError("sign count differs from the block vector count")
    out = []
    acc = [Fraction(0)] * block.dim
    pos = 0
    for j in range(block.n):
        for slot in range(block.r):
            v = block.base[j]
            for i in range(block.m):
                acc[block.coordinate(i, slot)] += signs[pos] * v[i]
            pos += 1
        out.append(list(acc))
    return out


def group_prefixes_in_K(block: BlockInstance, signs: list[int], delta) -> bool:
    return all(in_body_K(s, block.r, delta)[0] for s in group_prefix_sums(block, signs))


def search_block_coloring(block: BlockInstance, delta, limit: int = 4096) -> Optional[list[int]]:
    """Depth-first search for block signs keeping every prefix sum inside K.

    Prunes as soon as a prefix leaves the body (membership is checked per
    step, which is sound because a violated prefix stays violated).  Returns
    the first coloring found in +1-first order, or None when the space is
    exhausted.
    """
    total = block.count
    if 2 ** total > limit * 2 ** 12:
        raise ValidationError(f"search space 2^{total} too large")
    delta = exact_fraction(delta)
    flat = block.vectors()
    acc = [Fraction(0)] * block.dim
    signs: list[int] = []

    def dfs(pos: int) -> bool:
        if pos == total:
            return True
        v = flat[pos]
        for s in (1, -1):
            for c in range(block.dim):
                if v[c]:
                    acc[c] += s * v[c]
            signs.append(s)
            if in_body_K(acc, block.r, delta)[0] and dfs(pos + 1):
                return True
            signs.pop()
            for c in range(block.dim):
                if v[c]:
                    acc[c] -= s * v[c]
        return False

    return signs[:] if dfs(0) else None


@dataclass(frozen=True)
class McTailReport:
    r: int
    threshold: float
    samples: int
    exceed: int
    fraction: float
    target: float      # 1 / (2 n r m)
    slack: float       # 3 * sqrt(q (1-q) / samples) at the observed fraction

    @property
    def within_target(self) -> bool:
        return self.fraction <= self.target + self.slack


def gaussian_measure_mc(r: int, delta, n: int, m: int, samples: int, seed: int) -> McTailReport:
    """Monte-Carlo estimate of one block's tail: P[chi^2_r > (1+delta)^2 r].

    Deterministic in the seed, and independent of the chunking: the generator
    fills the rows of one draw in order, so draws of a few rows at a time give
    the normals one draw of every row would.  No draw holds more than
    MC_DRAW_NORMALS normals: a longer row is drawn in column blocks of at most
    that many, and its squares are summed across the blocks (which may round
    the last bit of its sum differently).  Reports the observed fraction next
    to the 1/(2 n r m) requirement plus three binomial standard deviations of
    slack.
    The threshold is a float, so a delta that puts it past float range is refused.
    """
    delta = exact_fraction(delta)
    if delta < 0:
        raise ValidationError(f"delta must be nonnegative, got {delta}")
    if samples < 10 ** 4:
        raise ValidationError(f"need at least 10^4 samples, got {samples}")
    if r < 1 or n < 1 or m < 1:
        raise ValidationError(f"need r, n, m >= 1, got r = {r}, n = {n}, m = {m}")
    try:
        threshold = (1.0 + float(delta)) ** 2 * r
    except OverflowError:
        threshold = math.inf
    if math.isinf(threshold):
        raise ValidationError("delta too large: the threshold (1 + delta)^2 r is past float range")
    rng = np.random.default_rng(seed)
    exceed = 0
    rows, cols = max(1, MC_DRAW_NORMALS // r), min(r, MC_DRAW_NORMALS)  # per draw
    done = 0
    while done < samples:
        take = min(rows, samples - done)
        squares = np.zeros(take)
        for start in range(0, r, cols):
            g = rng.standard_normal((take, min(cols, r - start)))
            squares += (g * g).sum(axis=1)
        exceed += int((squares > threshold).sum())
        done += take
    q = exceed / samples
    slack = 3.0 * math.sqrt(max(q * (1.0 - q), 1.0 / samples) / samples)
    return McTailReport(
        r=r,
        threshold=threshold,
        samples=samples,
        exceed=exceed,
        fraction=q,
        target=1.0 / (2 * n * r * m),
        slack=slack,
    )
