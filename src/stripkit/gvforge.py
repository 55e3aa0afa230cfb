"""Low-coherence binary dictionaries by random generators and by the
method of conditional expectations.

A random m x l binary generator spans 2^l codewords; the construction
succeeds when every nonzero codeword weight stays inside the band
[m/2 (1-mu), m/2 (1+mu)], which forces bipolar coherence at most mu.
The derandomized builder fixes generator entries one at a time, choosing
each bit to minimize the exact conditional expectation of the number of
out-of-band codewords, as in Porat and Rothschild (IEEE Trans. IT, 2011).
Codewords with equal decided weight and pending row parity contribute alike,
so each decision sums over a histogram of those pairs: the pending parity
of a codeword index is the bit parity (popcount) of the index masked by the
row bits decided so far, and the per-weight probabilities come from one
table per generator row. All probabilities are dyadic rationals, so the
bookkeeping stays in exact integer arithmetic (numerator at scale 2^m),
equal to a per-codeword sum.

A spec is refused up front (``GvSpecError``) when m exceeds HARD_M_CAP or
the 2^l x m span exceeds ``dictionaries.MAX_CODE_BITS`` bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional

import numpy as np

from .dictionaries import (MAX_CODE_BITS, BinaryCode, _row_set, _weights,
                           coherence_levels, span_of_generator)
from .seeding import derive_rng

HARD_M_CAP = 4096


class GvSpecError(ValueError):
    pass


class GvInfeasibleError(RuntimeError):
    """Initial conditional expectation is at least 1: the requested band is too tight."""


@dataclass
class GvSpec:
    l: int                       # log2 of the codeword count
    mu_target: float
    m: Optional[int] = None      # auto-sized to ceil(4 ln N / mu^2) when None

    def __post_init__(self):
        if self.l < 1:
            raise GvSpecError("need l >= 1")
        if not (0 < self.mu_target <= 1):
            raise GvSpecError("need 0 < mu <= 1")
        # words have m >= 1 bits, so 2^l > MAX_CODE_BITS is out before
        # auto_m forms 2^l
        if self.l >= MAX_CODE_BITS.bit_length():
            raise GvSpecError(self._span_error("m"))
        auto = self.auto_m()
        if self.m is None:
            self.m = auto
        if self.m < 1:
            raise GvSpecError("need m >= 1")
        if self.m > HARD_M_CAP:
            raise GvSpecError(f"m = {self.m} beyond the exact-arithmetic cap {HARD_M_CAP}")
        if self.m << self.l > MAX_CODE_BITS:
            raise GvSpecError(self._span_error(self.m))

    def _span_error(self, m) -> str:
        return (f"the 2^{self.l} x {m} span is beyond the cap MAX_CODE_BITS = "
                f"{MAX_CODE_BITS} bits")

    def auto_m(self) -> int:
        return math.ceil(4.0 * math.log(2 ** self.l) / self.mu_target ** 2)

    @property
    def N(self) -> int:
        return 2 ** self.l

    @property
    def band(self) -> tuple:
        """Inclusive integer weight window [m/2 (1-mu), m/2 (1+mu)]."""
        half = self.m / 2.0
        lo = math.ceil(half * (1.0 - self.mu_target) - 1e-12)
        hi = math.floor(half * (1.0 + self.mu_target) + 1e-12)
        return max(lo, 0), min(hi, self.m)


@dataclass
class GvResult:
    code: BinaryCode
    success: bool
    out_of_band: int
    expectation_trace: list = field(default_factory=list)  # Fractions, derandomized only


def _span_code(generator: np.ndarray, band: tuple) -> tuple:
    """(code, out_of_band): the span of ``generator`` and the count of its
    nonzero combinations whose weight leaves the inclusive ``band``."""
    rows = span_of_generator(generator)
    w = _weights(rows[1:])         # row 0 is the zero combination
    lo, hi = band
    out_of_band = int(((w < lo) | (w > hi)).sum())
    # two codewords coincide iff their sum is zero; dependent generator
    # columns still give a code, deduplicated for the container invariant,
    # and a linear subspace, so distance-invariant either way
    full = w.min() > 0
    code = BinaryCode(len(generator), rows if full else _row_set(rows),
                      generator if full else None, distance_invariant=True)
    return code, out_of_band


def gv_random(spec: GvSpec, seed: int) -> GvResult:
    """Uniform random generator rows; success iff all weights sit in the band
    and the span has all 2^l codewords."""
    rng = derive_rng(seed, "gv_random")
    generator = rng.integers(0, 2, size=(spec.m, spec.l), dtype=np.uint8)
    code, bad = _span_code(generator, spec.band)
    return GvResult(code=code, success=bad == 0 and code.N == spec.N,
                    out_of_band=bad)


class _BandTables:
    """Exact counts of binomial outcomes landing inside [lo-d, hi-d]."""

    def __init__(self, m: int, lo: int, hi: int):
        self.m = m
        self.lo = lo
        self.hi = hi
        # prefix[r][x + 1] = sum_{j<=x} C(r, j) and prefix[r][0] = 0. Pascal's
        # rule C(r+1, j) = C(r, j) + C(r, j-1) makes row r+1 the sum of row r
        # and row r shifted by one; its last entry, 2^(r+1), is twice row r's.
        row = [0, 1]
        self.prefix = [row]
        for r in range(m):
            row = [0] + [row[j] + row[j + 1] for j in range(r + 1)] + [2 * row[r + 1]]
            self.prefix.append(row)

    def inside(self, decided_ones: int, remaining: int) -> int:
        """# of Bin(remaining) outcomes j with decided_ones + j inside the band."""
        lo = self.lo - decided_ones
        hi = self.hi - decided_ones
        lo = max(lo, 0)
        hi = min(hi, remaining)
        if hi < lo:
            return 0
        row = self.prefix[remaining]
        return row[hi + 1] - row[lo]

    def outside_scaled(self, decided_ones: int, remaining: int, m: int) -> int:
        """2^m * P(out of band | decided): integer at the common scale."""
        total = 1 << remaining
        return (total - self.inside(decided_ones, remaining)) << (m - remaining)


def gv_derandomized(spec: GvSpec) -> GvResult:
    """Conditional-expectations generator: deterministic, zero out-of-band
    codewords whenever the initial expectation is below one.

    Entries are decided row-major; fixing entry (i, j) finalizes the row-i
    parity of exactly the 2^j codeword indices whose top set bit is j, since
    a parity stays uniform while any participating bit is undecided. That
    parity is the bit parity of the index masked by the row-i bits decided
    so far. The running expectation (kept as an exact integer numerator at
    scale 2^m) never increases because each decided bit picks the smaller
    branch of an average.

    Every index in that group has m - i rows left, so its change under either
    branch depends only on its (decided ones o, pending parity) pair: it
    moves from the row's table before[o] to after[o] ("stay") or to
    after[o + 1] ("move"). Both tables are built once per row, over the
    decided-ones range only, and a row's after table is the next row's
    before table. Each branch sum is then one exact integer dot product of
    the pair counts with the stay and move differences, the same integer a
    per-codeword loop adds up.
    """
    m, l, N = spec.m, spec.l, spec.N
    lo, hi = spec.band
    tables = _BandTables(m, lo, hi)
    scale = 1 << m

    total = (N - 1) * tables.outside_scaled(0, m, m)
    initial = Fraction(total, scale)
    if initial >= 1:
        raise GvInfeasibleError(
            f"initial expectation {float(initial):.4g} >= 1; enlarge m "
            f"(auto size {spec.auto_m()})")
    trace = [initial]
    index = np.arange(N)
    ones = np.zeros(N, dtype=np.int64)       # decided-parity one counts
    generator = np.zeros((m, l), dtype=np.uint8)
    # after[k] is 2^m P(out of band) for first + k decided ones and m - i
    # rows left: the before table of row i
    first, after = 0, [tables.outside_scaled(0, m, m)]

    for i in range(m):
        low, high = int(ones[1:].min()), int(ones[1:].max())
        before = after[low - first:high - first + 1]
        first, after = low, [tables.outside_scaled(o, m - i - 1, m)
                             for o in range(low, high + 2)]
        stay = [a - b for a, b in zip(after, before)]
        move = [a - b for a, b in zip(after[1:], before)]
        # differences per key 2 (o - low) + parity under bit 0, resp. bit 1
        diffs = ([d for pair in zip(stay, move) for d in pair],
                 [d for pair in zip(move, stay) for d in pair])
        row_bits = 0                         # the row-i bits decided so far
        for j in range(l):
            group = slice(1 << j, 2 << j)    # indices with top set bit j
            parity = np.bitwise_count(index[group] & row_bits) & 1
            counts = np.bincount(2 * ones[group] + parity)[2 * low:].tolist()
            delta = [sum(map(mul, counts, d)) for d in diffs]
            bit = 0 if delta[0] <= delta[1] else 1
            generator[i, j] = bit
            total += delta[bit]
            trace.append(Fraction(total, scale))
            ones[group] += parity ^ bit
            row_bits |= bit << j

    # a zero-weight combination is out of band whenever lo >= 1, so a
    # collapsed span can only happen on the trivial mu = 1 band
    code, bad = _span_code(generator, (lo, hi))
    return GvResult(code=code, success=bad == 0, out_of_band=bad,
                    expectation_trace=trace)


def code_width(code: BinaryCode) -> tuple:
    """(width, coherence): max deviation of nonzero pairwise distances from
    m/2, and the bipolar coherence 2 w / m it induces, the largest of the
    exact ``coherence_levels``, which read a distance-invariant code's
    codeword weights.
    """
    if code.N < 1:
        raise GvSpecError("empty code")
    mu = max(coherence_levels(code), default=Fraction(0))
    return float(mu * code.m / 2), float(mu)
