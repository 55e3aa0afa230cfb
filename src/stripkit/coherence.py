"""Coherence statistics, distance distributions, and orthogonal-array checks.

Orthogonal-array strength is exact at every size: by Delsarte, a binary code,
linear or not, has strength t iff its centered distance moments of orders
1..t equal the binomial ones, and those compare as exact rationals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, isfinite

import numpy as np

from .dictionaries import (BinaryCode, Dictionary, _abs_gram_blocks, _exact_levels,
                           distance_counts)

INVARIANCE_TOL = 1e-9


@dataclass
class CoherenceProfile:
    mu: float                 # max |<phi_i, phi_j>| over i != j
    mean_sq: float            # mean of squared coherences over ordered pairs
    max_avg_sq: float         # max over j of the row-averaged squared coherence
    theta: float              # mean_sq if coherence-invariant else max_avg_sq
    invariant: bool
    spectral_norm: float
    gram_offdiag_count: int   # distinct off-diagonal |Gram| values at tolerance

    def as_dict(self) -> dict:
        return asdict(self)


def spectral_norm(d: Dictionary) -> float:
    """Largest singular value, the root of the top eigenvalue of the cached
    frame operator ``d.frame`` (its eigenvalues are clamped at zero)."""
    return float(np.sqrt(d.frame[0].max()))


def coherence_profile(d: Dictionary, tol: float = INVARIANCE_TOL) -> CoherenceProfile:
    """All pairwise coherence statistics of one dictionary.

    A dictionary that carries a distance-invariant code (``_exact_levels``)
    has the same |Gram| multiset in every row, so its mu, per-row sums of
    squares and sorted distinct values come from the exact
    ``coherence_levels``, each rounded once, and it is invariant. Any other
    is scanned once over the |Gram| row blocks of about GRAM_BLOCK_BYTES
    (``_scan_profile``). Both feed one tail: the row averages, their mean
    and max, ``gram_offdiag_count`` (1 + the gaps above ``tol`` between the
    sorted distinct values) and the spectral norm.
    """
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    n = d.N
    if n == 1:
        return CoherenceProfile(0.0, 0.0, 0.0, 0.0, True, spectral_norm(d), 0)
    levels = _exact_levels(d)
    if levels is not None:
        values = sorted(levels)
        mu, invariant = float(values[-1]), True
        row_sq = np.full(n, float(sum(p * v * v for v, p in levels.items()) / n))
        distinct = np.array([float(v) for v in values])
    else:
        mu, row_sq, invariant, distinct = _scan_profile(d, tol)
    row_avg = row_sq / (n - 1)
    mean_sq = float(row_avg.mean())
    max_avg_sq = float(row_avg.max())
    return CoherenceProfile(
        mu=mu, mean_sq=mean_sq, max_avg_sq=max_avg_sq,
        theta=mean_sq if invariant else max_avg_sq,
        invariant=invariant, spectral_norm=spectral_norm(d),
        gram_offdiag_count=1 + int(np.count_nonzero(np.diff(distinct) > tol)),
    )


def _scan_profile(d: Dictionary, tol: float) -> tuple:
    """(mu, per-row sums of squares, invariant, sorted distinct values) in
    one pass over the |Gram| row blocks that ``Dictionary.mu`` reads too, so
    the two agree bit for bit.

    Each block adds to the running max and to the per-row sums of squares,
    then is sorted row by row in place. Invariance compares the sorted
    multiset of coherences seen from each column against column 0, entrywise,
    at absolute tolerance ``tol``, until a row fails. A repeated value only
    adds zero gaps, so the distinct values give the gap count of the whole
    off-diagonal multiset. Memory is one block plus that distinct set, which
    is a few values for the structured families and up to N(N-1) for a
    random one.
    """
    mu = 0.0
    row_sq = np.empty(d.N)
    invariant = True
    distinct, pending = np.empty(0), []
    for start, g in _abs_gram_blocks(d):
        mu = max(mu, float(g.max()))
        row_sq[start:start + len(g)] = (g ** 2).sum(axis=1)
        g.sort(axis=1)
        rows = g[:, 1:]                  # drop the diagonal zero
        if start == 0:
            first = rows[0].copy()
        # exact equality is far cheaper than the deviation and settles the
        # structured families
        if invariant and not (rows == first).all():
            invariant = bool(np.abs(rows - first).max() <= tol)
        new = np.ones(rows.shape, dtype=bool)
        np.not_equal(rows[:, 1:], rows[:, :-1], out=new[:, 1:])
        pending.append(rows[new])
        # merge once the pending values outnumber the set: a set that grows
        # by a block each time is re-sorted only O(log blocks) times
        if sum(p.size for p in pending) >= distinct.size:
            distinct, pending = _distinct(distinct, pending), []
    if pending:
        distinct = _distinct(distinct, pending)
    return mu, row_sq, invariant, distinct


def _distinct(distinct: np.ndarray, pending: list) -> np.ndarray:
    """The sorted distinct values of ``distinct`` and the arrays in ``pending``."""
    values = np.concatenate([distinct, *pending])
    values.sort()
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@dataclass
class DistanceDistribution:
    """Exact pair counts: B_w = (#ordered pairs at Hamming distance w) / N."""

    m: int
    counts: dict          # w -> integer count of ordered pairs (i=j included)
    N: int

    def weight(self, w: int) -> Fraction:
        return Fraction(self.counts.get(w, 0), self.N)


def distance_distribution(code: BinaryCode) -> DistanceDistribution:
    if code.N < 1:
        raise ValueError("empty code")
    counts = distance_counts(code)
    return DistanceDistribution(
        m=code.m, counts={int(w): int(counts[w]) for w in np.flatnonzero(counts)},
        N=code.N)


def _binomial_moment(m: int, l: int) -> Fraction:
    """E[((2W - m)/2)^l] for W ~ Bin(m, 1/2), the centered moment of the
    full space that every orthogonal array of strength >= l matches."""
    if l < 1:
        raise ValueError("need l >= 1")
    return sum((Fraction(comb(m, w), 2 ** m) * Fraction(2 * w - m, 2) ** l
                for w in range(m + 1)), Fraction(0))


def _distance_moment(dist: DistanceDistribution, l: int) -> Fraction:
    n2 = dist.N * dist.N
    return sum((Fraction(c, n2) * Fraction(2 * w - dist.m, 2) ** l
                for w, c in dist.counts.items()), Fraction(0))


def pless_residual(dist: DistanceDistribution, l: int) -> float:
    """Centered distance moment minus the matching binomial moment.

    Exactly zero (as a rational) when the code is an orthogonal array of
    strength >= l; the float of the exact difference is returned.
    """
    rhs = _binomial_moment(dist.m, l)    # first: it rejects l < 1
    return float(_distance_moment(dist, l) - rhs)


def pless_relative_residual(dist: DistanceDistribution, l: int) -> float:
    """|lhs - rhs| scaled by the binomial moment (1 with a zero denominator)."""
    rhs = _binomial_moment(dist.m, l)
    resid = float(_distance_moment(dist, l) - rhs)
    if rhs == 0:
        return abs(resid)
    return abs(resid) / float(abs(rhs))


@dataclass
class OaStrengthResult:
    strength: int
    exact: bool = True    # always; the v1 analysis schema requires the key
    note: str = ""        # always empty


def oa_strength(code: BinaryCode, t_max: int) -> OaStrengthResult:
    """Largest t <= t_max with every t-column pattern hit exactly N/2^t times.

    That is the largest t (at most m) whose centered distance moments of
    orders 1..t all equal the binomial ones, compared as exact rationals, so
    ``exact`` is always True and ``note`` always empty.

    Order 1 is read from the column weights w_c without the N^2 m distance
    product: the distances sum to sum_c 2 w_c (N - w_c), which reaches its
    binomial value m N^2 / 2 exactly when every w_c = N/2.
    """
    if code.N < 1:
        raise ValueError("empty code")
    top = min(t_max, code.m)
    if top < 1 or np.any(2 * code.bits().sum(axis=0) != code.N):
        return OaStrengthResult(0)
    strength = 1
    if top > 1:
        dist = distance_distribution(code)
        while (strength < top and _distance_moment(dist, strength + 1)
               == _binomial_moment(code.m, strength + 1)):
            strength += 1
    return OaStrengthResult(strength)


def moment_mu_l(d: Dictionary, l: int) -> float:
    """Average of the l-th power of pairwise coherences (ordered pairs): the
    exact rational of ``_exact_levels``, rounded once, for a dictionary with
    a distance-invariant code, else summed over the |Gram| row blocks."""
    if l < 2 or l % 2:
        raise ValueError("need even l >= 2")
    n = d.N
    if n == 1:
        return 0.0
    levels = _exact_levels(d)
    if levels is not None:
        return float(sum(p * v ** l for v, p in levels.items()) / (n * (n - 1)))
    total = sum(float((g ** l).sum()) for _, g in _abs_gram_blocks(d))
    return total / (n * (n - 1))


def tight_frame_mean_sq(m: int, N: int) -> float:
    """Mean-square coherence forced on any unit-norm tight frame."""
    return (N - m) / (m * (N - 1))

