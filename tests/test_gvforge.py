import hashlib
import math
import re
import tracemalloc
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

import stripkit as sk
from stripkit.dictionaries import MAX_CODE_BITS, BinaryCode, distance_counts
from stripkit.gvforge import (GvInfeasibleError, GvSpecError, GvSpec, _span_code,
                              _step_down)

from conftest import span_bits


class _BandTables:
    """Exact counts of binomial outcomes landing inside [lo-d, hi-d], from
    every Pascal prefix row 0..m at once."""

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
        lo = max(self.lo - decided_ones, 0)
        hi = min(self.hi - decided_ones, remaining)
        if hi < lo:
            return 0
        row = self.prefix[remaining]
        return row[hi + 1] - row[lo]

    def outside_scaled(self, decided_ones: int, remaining: int) -> int:
        """2^m * P(out of band | decided): integer at the common scale."""
        total = 1 << remaining
        return (total - self.inside(decided_ones, remaining)) << (self.m - remaining)


def per_codeword_oracle(spec: GvSpec, branches: Optional[list] = None):
    """Reference derandomization: the per-codeword decision loop, one exact
    ``outside_scaled`` difference per codeword and branch. Returns
    (generator, expectation trace), or None when the band is infeasible.
    A given ``branches`` list receives (E_before, E_0, E_1) per decision:
    the expectation before it and under either bit."""
    m, l, N = spec.m, spec.l, spec.N
    lo, hi = spec.band
    tables = _BandTables(m, lo, hi)
    scale = 1 << m
    ones = [0] * N
    remaining = [m] * N
    partial = [0] * N
    total = (N - 1) * tables.outside_scaled(0, m)
    if Fraction(total, scale) >= 1:
        return None
    trace = [Fraction(total, scale)]
    by_top_bit = [list(range(1 << j, 1 << (j + 1))) for j in range(l)]
    generator = np.zeros((m, l), dtype=np.uint8)
    for i in range(m):
        for u in range(1, N):
            partial[u] = 0
        for j in range(l):
            finalized = by_top_bit[j]
            delta = {0: 0, 1: 0}
            for u in finalized:
                old = tables.outside_scaled(ones[u], remaining[u])
                rem = remaining[u] - 1
                for b in (0, 1):
                    par = partial[u] ^ b
                    delta[b] += tables.outside_scaled(ones[u] + par, rem) - old
            bit = 0 if delta[0] <= delta[1] else 1
            if branches is not None:
                branches.append(tuple(Fraction(total + d, scale)
                                      for d in (0, delta[0], delta[1])))
            generator[i, j] = bit
            total += delta[bit]
            trace.append(Fraction(total, scale))
            for u in finalized:
                ones[u] += partial[u] ^ bit
                remaining[u] -= 1
            if bit:
                for jj in range(j + 1, l):
                    for u in by_top_bit[jj]:
                        if u >> j & 1:
                            partial[u] ^= 1
    return generator, trace


class TestSpec:
    def test_auto_size_natural_log(self):
        spec = GvSpec(l=10, mu_target=0.5)
        assert spec.m == math.ceil(4 * math.log(1024) / 0.25) == 111

    def test_band_inclusive(self):
        spec = GvSpec(l=10, mu_target=0.5, m=111)
        assert spec.band == (28, 83)
        # every weight inside the band keeps coherence within the target
        lo, hi = spec.band
        for w in (lo, hi):
            assert abs(1 - 2 * w / 111) <= 0.5

    def test_rejects_bad_params(self):
        with pytest.raises(GvSpecError):
            GvSpec(l=0, mu_target=0.5)
        with pytest.raises(GvSpecError):
            GvSpec(l=4, mu_target=0.0)
        with pytest.raises(GvSpecError):
            GvSpec(l=4, mu_target=0.2, m=10_000)
        # an auto size past the cap is refused by name, before it is formed
        with pytest.raises(GvSpecError, match=re.escape(
                "mu = 0.01 needs m = 4 ln N / mu^2 beyond the exact-arithmetic cap 4096")):
            GvSpec(l=12, mu_target=0.01)

    def test_explicit_m_skips_auto_size(self):
        # mu^2 underflows to 0, so 4 ln N / mu^2 has no value; a given m
        # never forms it
        spec = GvSpec(l=1, mu_target=1e-300, m=64)
        assert (spec.m, spec.band) == (64, (32, 32))
        assert spec.auto_m() is None

    def test_span_cap(self):
        # the 2^l x m span may hold MAX_CODE_BITS bits and no more
        top = MAX_CODE_BITS.bit_length() - 1
        assert MAX_CODE_BITS == 2 ** top
        # sizes well under the cap stay accepted
        assert [GvSpec(l=l, mu_target=0.4).m for l in (18, 20)] == [312, 347]
        assert GvSpec(l=top, mu_target=1.0, m=1).m == 1
        assert GvSpec(l=top - 1, mu_target=1.0, m=2).m == 2
        with pytest.raises(GvSpecError, match=f"2\\^{top} x 2 span is beyond the cap"):
            GvSpec(l=top, mu_target=1.0, m=2)
        # past the cap whatever m is, so auto_m never forms 2^l
        for l in (top + 1, 40, 10 ** 9):
            with pytest.raises(GvSpecError, match=f"2\\^{l} x m span is beyond the cap"):
                GvSpec(l=l, mu_target=1.0)


class TestGvRandom:
    def test_single_column(self):
        spec = GvSpec(l=1, mu_target=0.5, m=16)
        res = sk.gv_random(spec, seed=3)
        weights = res.code.bits().sum(axis=1)
        w = int(weights.max())        # the only nonzero word's weight
        lo, hi = spec.band
        assert res.success == (lo <= w <= hi and res.code.N == 2)

    def test_mu_one_always_succeeds(self):
        spec = GvSpec(l=3, mu_target=1.0, m=8)
        for seed in range(10):
            res = sk.gv_random(spec, seed)
            if res.code.generator is not None:
                assert res.success

    def test_success_rate_matches_failure_bound(self):
        # expected failure probability is at most 2/N = 2/1024
        spec = GvSpec(l=10, mu_target=0.5)
        wins = sum(sk.gv_random(spec, seed).success for seed in range(100))
        assert wins >= 90

    def test_success_implies_target_coherence(self):
        spec = GvSpec(l=6, mu_target=0.5)
        for seed in range(20):
            res = sk.gv_random(spec, seed)
            if res.success:
                width, mu = sk.code_width(res.code)
                assert mu <= spec.mu_target + 1e-12
                d = sk.from_binary_code(res.code)
                assert sk.coherence_profile(d).mu <= spec.mu_target + 1e-12

    def test_l16_span_memory(self):
        # a random 278 x 16 generator spans 2^16 words; their packed rows
        # hold 2^16 * 5 * 8 bytes = 2.5 MiB, and nothing else comes close
        spec = GvSpec(l=16, mu_target=0.4)
        assert spec.m == 278
        generator = np.random.default_rng(16).integers(0, 2, size=(278, 16),
                                                       dtype=np.uint8)
        for build in (lambda: sk.gv_random(spec, seed=16).code,
                      lambda: BinaryCode.from_generator(generator)):
            tracemalloc.start()
            try:
                code = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code.N, code.m, code.rows.shape[1]) == (2 ** 16, 278, 5)
            assert peak <= 6 * 2 ** 20


class TestGvDerandomized:
    def test_acceptance_size_succeeds(self):
        spec = GvSpec(l=10, mu_target=0.5, m=111)
        res = sk.gv_derandomized(spec)
        assert res.success and res.out_of_band == 0
        width, mu = sk.code_width(res.code)
        assert mu <= 0.5

    def test_trace_starts_below_one_and_never_increases(self):
        spec = GvSpec(l=8, mu_target=0.5)
        res = sk.gv_derandomized(spec)
        tr = res.expectation_trace
        assert len(tr) == spec.m * spec.l + 1
        assert tr[0] < 1
        assert all(b <= a for a, b in zip(tr, tr[1:]))
        assert tr[-1] == 0           # zero outliers guaranteed at the end

    def test_exact_rational_trace(self):
        spec = GvSpec(l=5, mu_target=0.6)
        res = sk.gv_derandomized(spec)
        assert all(isinstance(v, Fraction) for v in res.expectation_trace)

    def test_refusal_when_too_tight(self):
        # m far below 4 ln(16)/mu^2 = 177 makes the initial expectation >= 1
        with pytest.raises(GvInfeasibleError) as err:
            sk.gv_derandomized(GvSpec(l=4, mu_target=0.25, m=40))
        assert "expectation" in str(err.value)

    def test_refusal_threshold_matches_direct_expectation(self):
        # direct computation of (N-1) P(Bin(m) outside band) at the edge
        from math import comb
        spec_bad = GvSpec(l=4, mu_target=0.25, m=40)
        lo, hi = spec_bad.band
        p_out = 1 - sum(comb(40, j) for j in range(lo, hi + 1)) / 2 ** 40
        assert 15 * p_out >= 1       # hence the refusal above

    def test_determinism(self):
        spec = GvSpec(l=6, mu_target=0.5)
        a = sk.gv_derandomized(spec)
        b = sk.gv_derandomized(spec)
        assert np.array_equal(a.code.rows, b.code.rows)

    def test_mu_one_trivial_band(self):
        res = sk.gv_derandomized(GvSpec(l=3, mu_target=1.0, m=8))
        assert res.success and res.out_of_band == 0

    def test_band_memory_one_row(self):
        # one Pascal row of m + 1 integers below 2^m is held at a
        # time, about 0.6 MiB at m = 2048; a table of every row 0..m peaks
        # at 392 MiB
        spec = GvSpec(l=4, mu_target=0.1, m=2048)
        tracemalloc.start()
        try:
            res = sk.gv_derandomized(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.success and len(res.expectation_trace) == 2048 * 4 + 1
        assert peak <= 16 * 2 ** 20


ORACLE_GRID = ([(l, mu, None) for l in range(1, 9) for mu in (0.4, 0.6, 0.9)]
               + [(l, 0.5, m) for l in (2, 5, 7) for m in (9, 30, 64)]
               + [(l, 1.0, m) for l in (1, 3, 6) for m in (1, 8)]
               + [(4, 0.25, 40)])


class TestGvDerandomizedOracle:
    @pytest.mark.parametrize("l, mu, m", ORACLE_GRID)
    def test_matches_per_codeword_loop(self, l, mu, m):
        spec = GvSpec(l=l, mu_target=mu, m=m)
        expected = per_codeword_oracle(spec)
        if expected is None:
            with pytest.raises(GvInfeasibleError):
                sk.gv_derandomized(spec)
            return
        res = sk.gv_derandomized(spec)
        generator, trace = expected
        assert res.expectation_trace == trace
        words = span_bits(generator)
        lo, hi = spec.band
        weights = words[1:].sum(axis=1)
        assert res.out_of_band == int(((weights < lo) | (weights > hi)).sum())
        assert res.success == (res.out_of_band == 0)
        if res.code.generator is None:       # collapsed span: dependent columns
            assert np.array_equal(res.code.bits(), np.unique(words, axis=0))
        else:
            assert res.code.generator.tobytes() == generator.tobytes()
            assert np.array_equal(res.code.bits(), words)

    @pytest.mark.parametrize("l, mu, m", ORACLE_GRID)
    def test_branches_average_to_the_expectation_before(self, l, mu, m):
        # the rule that lets gv_derandomized decide each bit from one sum:
        # by Pascal's rule the two branch expectations average to the one
        # before, so bit 1 changes it by minus what bit 0 does
        spec = GvSpec(l=l, mu_target=mu, m=m)
        branches = []
        if per_codeword_oracle(spec, branches) is None:
            assert branches == []
            return
        assert len(branches) == spec.m * spec.l
        assert all(e0 + e1 == 2 * before for before, e0, e1 in branches)

    def test_pinned_l12_digest(self):
        # generator and trace of the per-codeword implementation at l=12
        res = sk.gv_derandomized(GvSpec(l=12, mu_target=0.4))
        assert res.code.m == 208 and len(res.expectation_trace) == 208 * 12 + 1
        assert (hashlib.sha256(res.code.generator.tobytes()).hexdigest()
                == "87319ab3d57b194bb6891569ec2f9222a1ec44a77d17b13cf67dd2109ebedcda")
        assert res.expectation_trace[-1] == 0
        pairs = [(f.numerator, f.denominator) for f in res.expectation_trace]
        assert (hashlib.sha256(repr(pairs).encode()).hexdigest()
                == "0c45fec32d25c01c99ceefcb75ed4c4ae789b52c8dbe43323f0dd5844e4b3176")

    def test_pinned_l14_digest(self):
        # groups of up to 2^13 indices, past the oracle grid; pinned from the
        # implementation that read parities as popcounts and kept every
        # Pascal row
        res = sk.gv_derandomized(GvSpec(l=14, mu_target=0.4))
        assert res.code.m == 243 and len(res.expectation_trace) == 243 * 14 + 1
        assert (hashlib.sha256(res.code.generator.tobytes()).hexdigest()
                == "20bee921c96e87f139d5a4a5d407b61a9a698577a2d46ca6bcffc5ec1c1c074b")
        assert res.expectation_trace[-1] == 0
        pairs = [(f.numerator, f.denominator) for f in res.expectation_trace]
        assert (hashlib.sha256(repr(pairs).encode()).hexdigest()
                == "27aec346efccf7bd1b1f9d048671ef0265140b366ce66f9a82e49eedf489f913")


@pytest.mark.parametrize("m", [0, 1, 2, 7, 64])
def test_band_tables_pascal_rows_match_binomials(m):
    tables = _BandTables(m, 0, m)
    assert len(tables.prefix) == m + 1
    for r, row in enumerate(tables.prefix):
        partial = [0]
        for j in range(r + 1):
            partial.append(partial[-1] + math.comb(r, j))
        assert row == partial


@pytest.mark.parametrize("m", [1, 2, 7, 64])
def test_step_down_walks_pascal_rows(m):
    rows = _BandTables(m, 0, m).prefix
    row = rows[m]
    for r in range(m - 1, -1, -1):
        row = _step_down(row)
        assert row == rows[r]
    # gv_derandomized steps the binomial row itself, by the same rule
    row = [math.comb(m, x) for x in range(m + 1)]
    for r in range(m - 1, -1, -1):
        row = _step_down(row)
        assert row == [math.comb(r, x) for x in range(r + 1)]


class TestCodeWidth:
    def test_equidistant_code(self):
        words = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]],
                         dtype=np.uint8)
        width, mu = sk.code_width(BinaryCode.from_words(words))
        assert width == 0.0 and mu == 0.0

    def test_antipodal_pair(self):
        code = BinaryCode.from_words(np.stack([np.zeros(6), np.ones(6)]).astype(np.uint8))
        width, mu = sk.code_width(code)
        assert width == 3.0 and mu == 1.0

    def test_linear_route_matches_pairwise(self):
        # a GV span, a span of dependent columns (deduplicated, no generator)
        # and the dg codes are distance-invariant; the same words without
        # that record go pairwise
        g = np.random.default_rng(3).integers(0, 2, size=(24, 5), dtype=np.uint8)
        g[:, 4] = g[:, 1] ^ g[:, 2]
        collapsed, _ = _span_code(g, (0, 24))
        assert collapsed.generator is None and collapsed.N == 16
        codes = [sk.gv_derandomized(GvSpec(l=5, mu_target=0.6)).code, collapsed,
                 sk.delsarte_goethals_code(1), sk.delsarte_goethals_code(2)]
        for code in codes:
            assert code.distance_invariant
            stripped = BinaryCode.from_words(code.bits())
            assert not stripped.distance_invariant
            assert sk.code_width(code) == sk.code_width(stripped)
            assert np.array_equal(distance_counts(code), distance_counts(stripped))
