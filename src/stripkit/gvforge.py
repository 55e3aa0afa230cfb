"""Low-coherence binary dictionaries by random generators and by the
method of conditional expectations.

A random m x l binary generator spans 2^l codewords; the construction
succeeds when every nonzero codeword weight stays inside the band
[m/2 (1-mu), m/2 (1+mu)], which forces bipolar coherence at most mu.
The derandomized builder fixes generator entries one at a time, choosing
each bit to minimize the exact conditional expectation of the number of
out-of-band codewords, as in Porat and Rothschild (IEEE Trans. IT, 2011).
Codewords with equal decided weight and pending row parity contribute alike,
so each decision sums over a histogram of those pairs: the pending parities
of a group of codeword indices double from the previous group's and the bit
just decided, and the per-weight probabilities come from one Pascal row of
binomial counts, stepped down a row per generator row. By Pascal's rule a
decision's two branches average to the expectation before it, so one exact
sum decides each bit, and the decided ones are updated once per row.
All probabilities are dyadic rationals, so the bookkeeping stays in exact
integer arithmetic (numerator at scale 2^m), equal to a per-codeword sum.

A spec is refused up front (``GvSpecError``) when m, given or auto-sized,
exceeds HARD_M_CAP or the 2^l x m span exceeds ``dictionaries.MAX_CODE_BITS``
bits.
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
        if self.m is None:
            self.m = self.auto_m()
            if self.m is None:
                raise GvSpecError(
                    f"mu = {self.mu_target} needs m = 4 ln N / mu^2 beyond the "
                    f"exact-arithmetic cap {HARD_M_CAP}")
        if self.m < 1:
            raise GvSpecError("need m >= 1")
        if self.m > HARD_M_CAP:
            raise GvSpecError(f"m = {self.m} beyond the exact-arithmetic cap {HARD_M_CAP}")
        if self.m << self.l > MAX_CODE_BITS:
            raise GvSpecError(self._span_error(self.m))

    def _span_error(self, m) -> str:
        return (f"the 2^{self.l} x {m} span is beyond the cap MAX_CODE_BITS = "
                f"{MAX_CODE_BITS} bits")

    def auto_m(self) -> Optional[int]:
        """ceil(4 ln N / mu^2), or None when that passes HARD_M_CAP; the test
        multiplies, so a mu whose square underflows forms no size."""
        four_ln_n = 4.0 * math.log(2 ** self.l)
        if self.mu_target ** 2 * HARD_M_CAP < four_ln_n:
            return None
        return math.ceil(four_ln_n / self.mu_target ** 2)

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
    full = w.all()
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


def _step_down(row: list) -> list:
    """Pascal row r - 1 from row r, a row r being C(r, x) for x = 0..r:
    Pascal's rule C(r, x) = C(r-1, x) + C(r-1, x-1) solved for C(r-1, x)
    from x = 0 up. Prefix rows, prefix[x + 1] = sum_{j<=x} C(r, j) with
    prefix[0] = 0, obey the same rule and step down alike."""
    last = 0                     # each entry is v minus the one before it
    return [last := v - last for v in row[:-1]]


def gv_derandomized(spec: GvSpec) -> GvResult:
    """Conditional-expectations generator: deterministic, zero out-of-band
    codewords whenever the initial expectation is below one.

    Entries are decided row-major; fixing entry (i, j) finalizes the row-i
    parity of exactly the 2^j codeword indices 2^j + r, r < 2^j, whose top
    set bit is j, since a parity stays uniform while any participating bit
    is undecided. Their pending parities P_j[r] (row-i bits decided so far,
    masked by r) double: P_0 = [0] and P_{j+1} = [P_j, P_j xor b_j], where
    b_j is the bit just decided. So one buffer holds them, and the slice
    the doubling fills, P_j xor b_j, is also the row-i bit each index of
    group j adds to its decided ones, at the row's end, as they are read
    only at decision j. The running expectation (kept as an exact integer
    numerator at scale 2^m) never increases because each decided bit picks
    the smaller branch of an average.

    Every index in a group has m - i rows left, so its change under either
    branch depends only on its (decided ones o, pending parity) pair: its
    row-i bit adds 0 or 1 to o. With r = m - 1 - i rows left after the
    row, Pascal's rule makes its out-of-band probability before the row the
    mean of those at o and o + 1 after it. Adding 0 changes it by half
    their difference, 2^-(r+1) (C(r, lo-1-o) - C(r, hi-o)), and adding 1 by
    minus that, so the bit-1 sum is minus the bit-0 sum. One Pascal row of
    binomial counts, stepped down a row per generator row, gives these
    changes once per row over the decided-ones range only. A decision is
    then one exact integer dot product of the pair counts with them, the
    same integer a per-codeword loop adds up; its bit is 0 unless that sum
    is positive.
    """
    m, l, N = spec.m, spec.l, spec.N
    lo, hi = spec.band
    scale = 1 << m
    binom = [math.comb(m, x) for x in range(m + 1)]
    total = (N - 1) * (scale - sum(binom[lo:hi + 1]))
    initial = Fraction(total, scale)
    if initial >= 1:
        auto = spec.auto_m()
        raise GvInfeasibleError(
            f"initial expectation {float(initial):.4g} >= 1; enlarge m (auto size "
            f"{f'beyond the cap {HARD_M_CAP}' if auto is None else auto})")
    trace = [initial]
    twice = np.zeros(N, dtype=np.intp)       # 2 x decided-parity one counts
    # parity[:2^j] is P_j of the current row; parity[2^j:2^(j+1)] receives
    # P_j xor b_j, group j's row bits, which is also the upper half of P_{j+1}
    parity = np.zeros(N, dtype=np.intp)
    # per group j (the indices with top set bit j): its 2 x ones, its
    # pending parities P_j and the slice P_j xor b_j fills
    groups = [(twice[size:2 * size], parity[:size], parity[size:2 * size])
              for size in (1 << j for j in range(l))]
    rows = []
    pad = [0] * (m + 1)

    for i in range(m):
        low, high = int(twice[1:].min()) // 2, int(twice[1:].max()) // 2
        binom = _step_down(binom)
        ext = pad + binom + pad          # ext[x + m + 1] = C(r, x), r = m - 1 - i
        # an index at o ones changes the expectation by stay[o] (at scale 2^m)
        # when it adds 0 and by -stay[o] when it adds 1; under bit 0 the
        # index of key 2 (o - low) + parity adds its parity
        stay = [(ext[lo + m - o] - ext[hi + m + 1 - o]) << i
                for o in range(low, high + 1)]
        diffs = [d for s in stay for d in (s, -s)]
        row = []
        for group, pending, row_bits in groups:
            counts = np.bincount(group + pending)[2 * low:].tolist()
            delta = sum(map(mul, counts, diffs))
            bit = 0 if delta <= 0 else 1
            row.append(bit)
            total -= abs(delta)              # the smaller of delta and -delta
            trace.append(Fraction(total, scale))
            np.bitwise_xor(pending, bit, out=row_bits)
        # group j's row bits are left in parity[2^j:2^(j+1)]; parity[0] = 0
        twice += 2 * parity
        rows.append(row)

    generator = np.array(rows, dtype=np.uint8)
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
