import json
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stripkit as sk
from stripkit.certify import hollow_gram_norms
from stripkit.coherence import (INVARIANCE_TOL, CoherenceProfile,
                                pless_relative_residual, spectral_norm,
                                tight_frame_mean_sq)
from stripkit import coherence, dictionaries, gvforge
from stripkit.dictionaries import (BinaryCode, Dictionary, distance_counts,
                                   from_binary_code)

from conftest import full_space, reed_muller_1_3, span_bits


def brute_distance_counts(words: np.ndarray) -> dict:
    counts = {}
    for a in words:
        for b in words:
            w = int((a != b).sum())
            counts[w] = counts.get(w, 0) + 1
    return counts


def oa_strength_enumerated(code: BinaryCode, t_max: int) -> int:
    """Test oracle: largest t <= t_max with every t-subset of columns hitting
    each of its 2^t patterns exactly N/2^t times, by enumerating the subsets."""
    bits = code.bits()
    strength = 0
    for t in range(1, min(t_max, code.m) + 1):
        if code.N % (1 << t):
            break
        pow2 = 1 << np.arange(t)
        for cols in combinations(range(code.m), t):
            patterns = bits[:, cols].astype(np.int64) @ pow2
            if np.any(np.bincount(patterns, minlength=1 << t) != code.N >> t):
                return strength
        strength = t
    return strength


def random_code(kind: str, rng: np.random.Generator) -> BinaryCode:
    """A random code of length m <= 8: an arbitrary word set, a linear span
    (generator-backed when its generator has full rank), a coset of a span,
    or the union of two cosets of one span."""
    m = int(rng.integers(1, 9))
    if kind == "subset":
        n = int(rng.integers(1, 2 ** m + 1))
        index = rng.choice(2 ** m, size=n, replace=False)
        words = full_space(m).bits()[index]
        return BinaryCode.from_words(words)
    g = rng.integers(0, 2, size=(m, int(rng.integers(1, m + 1))), dtype=np.uint8)
    span = span_bits(g)
    if kind == "span":
        if len(np.unique(span, axis=0)) == len(span):
            return BinaryCode.from_generator(g)
        shifts = np.zeros((1, m), dtype=np.uint8)
    else:
        shifts = rng.integers(0, 2, size=(2 if kind == "two cosets" else 1, m),
                              dtype=np.uint8)
    words = np.unique(np.concatenate([span ^ a for a in shifts]), axis=0)
    return BinaryCode.from_words(words)


class TestProfile:
    def test_identity(self, identity8):
        p = sk.coherence_profile(identity8)
        assert p.mu == 0.0 and p.mean_sq == 0.0 and p.invariant
        assert p.spectral_norm == pytest.approx(1.0, abs=1e-12)

    def test_chirp3(self):
        p = sk.coherence_profile(sk.build_chirp(3))
        assert p.mu == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert p.theta == pytest.approx(0.25, abs=1e-12)
        assert p.invariant

    def test_dg_tight_frame_stats(self):
        d = sk.build_delsarte_goethals(1)
        p = sk.coherence_profile(d)
        assert p.mean_sq == pytest.approx(tight_frame_mean_sq(d.m, d.N), abs=1e-12)
        assert p.spectral_norm == pytest.approx(math.sqrt(d.N / d.m), abs=1e-9)

    @pytest.mark.parametrize("build", [lambda: sk.build_delsarte_goethals(1),
                                       lambda: sk.build_delsarte_goethals(2),
                                       lambda: sk.build_chirp(7)],
                             ids=["dg s=1", "dg s=2", "chirp 7"])
    def test_spectral_norm_reads_frame(self, build):
        # the norm is the root of the cached frame's top eigenvalue, bit for bit
        d = build()
        assert spectral_norm(d) == math.sqrt(d.frame[0].max())

    def test_offdiag_count(self):
        # chirp coherences take exactly the two values {0, 1/sqrt(m)}
        p = sk.coherence_profile(sk.build_chirp(5))
        assert p.gram_offdiag_count == 2

    def test_invariance_flag_off(self):
        d = sk.build_gaussian(6, 12, seed=0)
        p = sk.coherence_profile(d)
        assert not p.invariant
        assert p.theta == p.max_avg_sq


def full_gram_profile(d: Dictionary, tol: float = INVARIANCE_TOL) -> CoherenceProfile:
    """Test oracle: the profile from the whole |Gram| at once, with its N x N
    temporaries and one global sort of the N(N-1) off-diagonal values."""
    g = np.abs(d.gram())
    np.fill_diagonal(g, 0.0)
    n = d.N
    mu = float(g.max())
    if n == 1:
        return CoherenceProfile(0.0, 0.0, 0.0, 0.0, True, spectral_norm(d), 0)
    sq = g ** 2
    row_avg = sq.sum(axis=1) / (n - 1)
    mean_sq = float(row_avg.mean())
    max_avg_sq = float(row_avg.max())
    sorted_rows = np.sort(g, axis=1)[:, 1:]  # drop the diagonal zero
    invariant = bool(np.abs(sorted_rows - sorted_rows[0]).max() <= tol)
    theta = mean_sq if invariant else max_avg_sq
    offdiag = np.sort(g[~np.eye(n, dtype=bool)])
    distinct = 1 + int(np.count_nonzero(np.diff(offdiag) > tol))
    return CoherenceProfile(
        mu=mu, mean_sq=mean_sq, max_avg_sq=max_avg_sq, theta=theta,
        invariant=invariant, spectral_norm=spectral_norm(d),
        gram_offdiag_count=distinct,
    )


def later_row_differs() -> Dictionary:
    """40 orthonormal columns but the last, (e_38 + e_39)/sqrt(2): rows 0..37
    see only zero coherences, so invariance first fails at row 38."""
    entries = np.eye(40)
    entries[38:, 39] = 1 / math.sqrt(2)
    return Dictionary("later_row_differs", entries)


def record_free(d: Dictionary) -> Dictionary:
    """``d`` without the code it was built from: the same entries, scanned."""
    return replace(d, code=None)


# name -> (construction, whether every Gram product is exact)
ORACLE_CASES = {
    "dg s=1": (lambda: sk.build_delsarte_goethals(1), True),
    "dg s=1 record-free": (lambda: record_free(sk.build_delsarte_goethals(1)), True),
    "dg s=2": (lambda: sk.build_delsarte_goethals(2), True),
    "identity": (lambda: Dictionary("identity8", np.eye(8)), True),
    "later row differs": (later_row_differs, True),
    "N=1": (lambda: sk.build_gaussian(4, 1, seed=0), True),
    "N=2": (lambda: sk.build_gaussian(3, 2, seed=4), False),
    "chirp 7": (lambda: sk.build_chirp(7), False),
    "chirp 31": (lambda: sk.build_chirp(31), False),
    "etf 13": (lambda: sk.build_etf_paley(13), False),
    "harmonic": (lambda: sk.build_random_harmonic(24, 300, seed=3), False),
    "gaussian 8x16": (lambda: sk.build_gaussian(8, 16, seed=1), False),
    "gaussian 18x195": (lambda: sk.build_gaussian(18, 195, seed=38), False),
}


@lru_cache(maxsize=None)
def oracle_dictionary(name: str) -> Dictionary:
    return ORACLE_CASES[name][0]()


def force_block_rows(monkeypatch, d: Dictionary, rows) -> None:
    """Make the |Gram| row blocks of ``d`` ``rows`` high (None: the default)."""
    if rows is not None:
        monkeypatch.setattr(dictionaries, "GRAM_BLOCK_BYTES",
                            rows * d.entries.itemsize * d.N)


def assert_profiles_match(got: CoherenceProfile, want: CoherenceProfile, exact: bool):
    if exact:
        assert got.as_dict() == want.as_dict()
        return
    assert (got.invariant, got.gram_offdiag_count) == (want.invariant,
                                                       want.gram_offdiag_count)
    for key in ("mu", "mean_sq", "max_avg_sq", "theta", "spectral_norm"):
        a, b = getattr(got, key), getattr(want, key)
        assert abs(a - b) <= 4 * np.spacing(max(abs(a), abs(b))), (key, a, b)


class TestBlockedProfile:
    # rows: block height forced through GRAM_BLOCK_BYTES, None for the default
    # (one block for all but chirp 31, whose second block is short)
    @pytest.mark.parametrize("rows", [None, 1, 3, 13])
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_matches_full_gram(self, name, rows, monkeypatch):
        d = oracle_dictionary(name)
        want = full_gram_profile(d)
        force_block_rows(monkeypatch, d, rows)
        one_block = dictionaries.GRAM_BLOCK_BYTES // (d.entries.itemsize * d.N) >= d.N
        # a block of every row is the very product of d.gram(), so it matches
        # bit for bit
        assert_profiles_match(sk.coherence_profile(d), want,
                              exact=ORACLE_CASES[name][1] or one_block)

    # 1/sqrt(2) is exactly the largest deviation and gap of "later row
    # differs", where both tests must still pass: they compare with <=
    @pytest.mark.parametrize("tol", [0.0, INVARIANCE_TOL, 0.2, 0.3, 1 / math.sqrt(2)])
    @pytest.mark.parametrize("rows", [None, 1, 3, 13])
    @pytest.mark.parametrize("name", ["dg s=1", "identity", "later row differs"])
    def test_tolerances(self, name, rows, tol, monkeypatch):
        # the distinct-value count equals the multiset count at any tol >= 0
        d = oracle_dictionary(name)
        want = full_gram_profile(d, tol)
        force_block_rows(monkeypatch, d, rows)
        assert sk.coherence_profile(d, tol).as_dict() == want.as_dict()

    def test_invariance_fails_in_a_later_block(self, monkeypatch):
        d = later_row_differs()
        force_block_rows(monkeypatch, d, 13)
        p = sk.coherence_profile(d)
        assert not p.invariant and p.theta == p.max_avg_sq
        assert p.gram_offdiag_count == 2 and p.mu == 1 / math.sqrt(2)

    def test_mu_agrees_with_profile_past_one_block(self, monkeypatch):
        # a real row block is a gemm and the one-block Gram a syrk; here the
        # two once read 0.8092675127080896 and 0.8092675127080898
        d = sk.build_gaussian(18, 195, seed=38)
        force_block_rows(monkeypatch, d, 13)
        assert d.mu == sk.coherence_profile(d).mu

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            sk.coherence_profile(sk.build_chirp(3), tol=tol)

    def test_memory_is_one_block(self):
        # the full-Gram profile peaks near 164 MB on dg s=2 (64 x 2048)
        d = record_free(sk.build_delsarte_goethals(2))
        tracemalloc.start()
        try:
            sk.coherence_profile(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2 ** 20


def exact_coherence(code: BinaryCode) -> dict:
    """Test oracle: mu, the mean-square coherence and the moments of orders
    2, 4, 6 of the bipolar image of ``code`` as Fractions, and the number of
    distinct off-diagonal |Gram| values, from its pairwise distances."""
    bits = code.bits().astype(np.float64)
    n, m = bits.shape
    counts = np.zeros(m + 1, dtype=np.int64)
    for start in range(0, n, 512):
        rows = bits[start:start + 512]
        # dist(i, j) = w_i + w_j - 2 <b_i, b_j>, exact in float64
        dist = rows.sum(axis=1)[:, None] + bits.sum(axis=1) - 2 * rows @ bits.T
        counts += np.bincount(dist.astype(np.int64).ravel(), minlength=m + 1)
    counts[0] -= n                        # the diagonal
    pairs = {w: int(c) for w, c in enumerate(counts) if c}
    moment = {l: sum(Fraction(c * (m - 2 * w) ** l, m ** l) for w, c in pairs.items())
              / (n * (n - 1)) for l in (2, 4, 6)}
    return {"mu": max(Fraction(abs(m - 2 * w), m) for w in pairs),
            "moment": moment,
            "levels": len({abs(m - 2 * w) for w in pairs})}


@lru_cache(maxsize=None)
def gv_code(l: int, mu: float) -> BinaryCode:
    return sk.gv_derandomized(sk.GvSpec(l=l, mu_target=mu)).code


# codes whose bipolar dictionaries take the exact path
EXACT_CODES = {
    "dg s=1": lambda: sk.delsarte_goethals_code(1),
    "dg s=2": lambda: sk.delsarte_goethals_code(2),
    "RM(1,3)": reed_muller_1_3,            # complement pairs: mu = 1
    "GV l=8": lambda: gv_code(8, 0.55),
    "GV l=9": lambda: gv_code(9, 0.5),
    "GV l=10": lambda: gv_code(10, 0.45),
    "GV l=12": lambda: gv_code(12, 0.4),
}


def no_scan(monkeypatch):
    """Make any read of the |Gram| row blocks fail."""
    def fail(d):
        raise AssertionError("scanned the Gram")
    monkeypatch.setattr(dictionaries, "_abs_gram_blocks", fail)
    monkeypatch.setattr(coherence, "_abs_gram_blocks", fail)


class TestExactLevels:
    @pytest.mark.parametrize("name", sorted(EXACT_CODES))
    def test_matches_exact_rationals(self, name, monkeypatch):
        code = EXACT_CODES[name]()
        want = exact_coherence(code)
        d = from_binary_code(code)
        assert d.code is code and code.distance_invariant
        no_scan(monkeypatch)
        p = sk.coherence_profile(d)
        # mu and the moments are the rationals, rounded once
        assert d.mu == p.mu == float(want["mu"])
        for l in (2, 4, 6):
            assert sk.moment_mu_l(d, l) == float(want["moment"][l])
        # the mean-square coherence is the second moment; the tail divides the
        # rounded row sum by N - 1 and averages N equal rows
        mean_sq = float(want["moment"][2])
        for key in ("mean_sq", "max_avg_sq", "theta"):
            assert abs(getattr(p, key) - mean_sq) <= 2 * np.spacing(mean_sq), key
        assert p.invariant
        assert sk.coherence_profile(d, 0.0).gram_offdiag_count == want["levels"]

    @pytest.mark.parametrize("s", [1, 2])
    def test_saved_and_loaded_dg_is_byte_identical(self, s, tmp_path):
        # a loaded dg carries no code, so it is scanned; its Gram entries are
        # dyadic, so the scan is exact too
        built = sk.build_delsarte_goethals(s)
        sk.save_dictionary(built, tmp_path / "dg.sdict")
        loaded = sk.load_dictionary(tmp_path / "dg.sdict")
        assert loaded.code is None
        assert (json.dumps(sk.coherence_profile(loaded).as_dict())
                == json.dumps(sk.coherence_profile(built).as_dict()))
        assert loaded.mu == built.mu
        for l in (2, 4, 6):
            assert sk.moment_mu_l(loaded, l) == sk.moment_mu_l(built, l)

    def test_from_words_code_takes_the_scan(self, monkeypatch):
        code = BinaryCode.from_words(sk.delsarte_goethals_code(1).bits())
        d = from_binary_code(code)
        assert d.code is code and not code.distance_invariant
        want = sk.coherence_profile(sk.build_delsarte_goethals(1)).as_dict()
        scans = []
        real = dictionaries._abs_gram_blocks

        def spy(d):
            scans.append(d)
            return real(d)
        monkeypatch.setattr(dictionaries, "_abs_gram_blocks", spy)
        monkeypatch.setattr(coherence, "_abs_gram_blocks", spy)
        assert sk.coherence_profile(d).as_dict() == want
        assert d.mu == want["mu"] and len(scans) == 2

    def test_exact_path_memory(self):
        d = sk.build_delsarte_goethals(2)
        tracemalloc.start()
        try:
            sk.coherence_profile(d)
            sk.moment_mu_l(d, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20

    def test_dg_s3_is_fast(self, monkeypatch):
        # the blocked scan took about 17 s for mu and 26 s for the profile;
        # CPU time of this process, so a loaded host does not fail the bounds
        d = sk.build_delsarte_goethals(3)
        no_scan(monkeypatch)
        start = time.process_time()
        mu = d.mu
        mu_s = time.process_time() - start
        p = sk.coherence_profile(d)
        profile_s = time.process_time() - start - mu_s
        assert mu == p.mu == 1 / 16 and p.gram_offdiag_count == 2
        assert mu_s < 0.1 and profile_s < 0.5


class TestDistanceDistribution:
    def test_singleton(self):
        code = BinaryCode.from_words(np.zeros((1, 5), dtype=np.uint8))
        dist = sk.distance_distribution(code)
        assert dist.weight(0) == Fraction(1)
        assert sum(dist.counts.values()) == 1

    def test_full_space(self):
        code = full_space(4)
        dist = sk.distance_distribution(code)
        for w in range(5):
            assert dist.weight(w) == Fraction(comb(4, w))

    def test_reed_muller_vs_bruteforce(self):
        code = reed_muller_1_3()
        dist = sk.distance_distribution(code)
        brute = brute_distance_counts(code.bits())
        assert dist.counts == brute
        # per word: itself, 14 at distance 4, the complement at distance 8
        assert dist.weight(0) == 1
        assert dist.weight(4) == 14
        assert dist.weight(8) == 1


class TestDistanceCounts:
    # rows: block height forced through GRAM_BLOCK_BYTES, None for the default
    @pytest.mark.parametrize("n, m, rows", [
        (0, 4, None), (1, 1, None), (1, 7, None), (2, 1, None), (9, 5, None),
        (60, 12, None), (200, 33, None), (40, 10, 3)])
    def test_matches_bruteforce(self, n, m, rows, monkeypatch):
        # a random word set, then a generator-backed code of the same length
        # with about n words
        rng = np.random.default_rng(n * 100 + m)
        words = np.unique(rng.integers(0, 2, size=(n, m), dtype=np.uint8), axis=0)
        code = BinaryCode.from_words(words)
        if rows:
            assert code.N % rows     # the last block is short
            monkeypatch.setattr(dictionaries, "GRAM_BLOCK_BYTES", rows * 8 * code.N)
        l = min(m, max(1, n.bit_length() - 1))
        g = rng.integers(0, 2, size=(m, l), dtype=np.uint8)
        while len(np.unique(span_bits(g), axis=0)) < 2 ** l:
            g = rng.integers(0, 2, size=(m, l), dtype=np.uint8)
        linear = BinaryCode.from_generator(g)
        # the same span from a repeated column: deduplicated, no generator
        collapsed, _ = gvforge._span_code(np.column_stack([g, g[:, 0]]), (0, m))
        assert collapsed.generator is None and collapsed.N == linear.N
        assert linear.distance_invariant and collapsed.distance_invariant
        assert not code.distance_invariant
        for case in (code, linear, collapsed):
            counts = distance_counts(case)
            assert counts.shape == (m + 1,)
            assert ({w: int(c) for w, c in enumerate(counts) if c}
                    == brute_distance_counts(case.bits()))
            # the weights path agrees with the pairwise path on the same words
            pairwise = distance_counts(BinaryCode.from_words(case.bits()))
            assert np.array_equal(counts, pairwise)


class TestPackedDistanceCounts:
    # every word length around the 8- and 64-bit packing boundaries, at the
    # default block and at a forced 1-row block
    @pytest.mark.parametrize("m, n", [(m, n) for m in (0, 1, 7, 8, 9, 63, 64, 65, 130)
                                      for n in (1, 2, 37) if n <= 2 ** m])
    @pytest.mark.parametrize("one_row", [False, True])
    def test_matches_bruteforce(self, m, n, one_row, monkeypatch):
        rng = np.random.default_rng(1000 * m + n)
        words = np.unique(rng.integers(0, 2, size=(4 * n, m), dtype=np.uint8), axis=0)
        words = words[rng.permutation(len(words))[:n]]
        code = BinaryCode.from_words(words)
        if one_row:
            monkeypatch.setattr(dictionaries, "GRAM_BLOCK_BYTES", 8 * code.N)
        counts = distance_counts(code)
        assert counts.shape == (m + 1,) and counts.dtype == np.int64
        assert ({w: int(c) for w, c in enumerate(counts) if c}
                == brute_distance_counts(code.bits()))


class TestPless:
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_full_space_zero(self, l):
        code = full_space(4)
        dist = sk.distance_distribution(code)
        assert sk.pless_residual(dist, l) == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_pair_hand_value(self):
        for m in (4, 6):
            code = BinaryCode.from_words(np.stack([np.zeros(m), np.ones(m)]).astype(np.uint8))
            dist = sk.distance_distribution(code)
            got = sk.pless_residual(dist, 2)
            assert got == pytest.approx(m * m / 4 - m / 4, abs=1e-12)

    def test_kerdock_family_moments(self):
        # tight second and fourth moments hold; the sixth does not
        code = sk.delsarte_goethals_code(1)
        dist = sk.distance_distribution(code)
        for l in (2, 4):
            assert pless_relative_residual(dist, l) <= 1e-9
        assert pless_relative_residual(dist, 6) > 1e-3


class TestOaStrength:
    def test_full_space(self):
        res = sk.oa_strength(full_space(3), t_max=3)
        assert res.strength == 3 and res.exact

    def test_reed_muller(self):
        res = sk.oa_strength(reed_muller_1_3(), t_max=4)
        assert res.strength == 3 and res.exact

    def test_singleton(self):
        code = BinaryCode.from_words(np.zeros((1, 4), dtype=np.uint8))
        assert sk.oa_strength(code, t_max=2).strength == 0

    def test_matches_enumeration(self):
        # Delsarte: the moment test agrees with column-subset enumeration on
        # every kind of code, linear or not
        rng = np.random.default_rng(11)
        positive = 0
        for kind in ("subset", "span", "coset", "two cosets"):
            for _ in range(500):
                code = random_code(kind, rng)
                for t_max in (code.m, 3):
                    res = sk.oa_strength(code, t_max)
                    assert res.exact and res.note == ""
                    assert res.strength == oa_strength_enumerated(code, t_max), (
                        kind, code.bits().tolist(), t_max)
                    positive += res.strength > 0
        assert positive > 1000

    def test_order_one_needs_no_distance_product(self, monkeypatch):
        # unbalanced codes stop at 0 and t_max <= 1 stops at order 1, both
        # from the column weights alone
        def no_product(code):
            raise AssertionError("distance_counts called")
        rng = np.random.default_rng(12)
        unbalanced = 0
        while unbalanced < 300:
            code = random_code(rng.choice(["subset", "coset", "two cosets"]), rng)
            if np.all(2 * code.bits().sum(axis=0) == code.N):
                continue
            unbalanced += 1
            with monkeypatch.context() as mp:
                mp.setattr(sk.coherence, "distance_counts", no_product)
                for t_max in (code.m, 3, 1):
                    assert sk.oa_strength(code, t_max).strength == 0
            assert oa_strength_enumerated(code, code.m) == 0
        monkeypatch.setattr(sk.coherence, "distance_counts", no_product)
        # dg s=2 (64 x 2048) has an unbalanced column: strength 0 at any t_max
        assert sk.oa_strength(sk.delsarte_goethals_code(2), 7).strength == 0
        for code in (reed_muller_1_3(), full_space(3)):
            assert sk.oa_strength(code, 1).strength == 1
            assert sk.oa_strength(code, 0).strength == 0
        with pytest.raises(ValueError, match="empty code"):
            sk.oa_strength(BinaryCode.from_words(np.zeros((0, 3), np.uint8)), 1)

    def test_delsarte_goethals_exact(self):
        # 64 x 2048 at t = 7: far past the old enumeration budget (the oracle
        # returns at the first unbalanced column)
        code = sk.delsarte_goethals_code(2)
        res = sk.oa_strength(code, 7)
        assert res.exact and res.note == ""
        assert res.strength == oa_strength_enumerated(code, 7)

    def test_pless_consistency_with_strength(self):
        # moment residual vanishes for every order up to the exact strength
        code = reed_muller_1_3()
        res = sk.oa_strength(code, t_max=4)
        dist = sk.distance_distribution(code)
        for l in range(1, res.strength + 1):
            assert pless_relative_residual(dist, l) <= 1e-9


class TestMoments:
    def test_identity_zero(self, identity8):
        assert sk.moment_mu_l(identity8, 2) == 0.0

    @pytest.mark.parametrize("build", [
        lambda: sk.build_chirp(5),
        lambda: sk.build_delsarte_goethals(1),
    ])
    def test_tight_frame_second_moment(self, build):
        d = build()
        want = tight_frame_mean_sq(d.m, d.N)
        assert sk.moment_mu_l(d, 2) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("rows", [1, 3, 13])
    def test_blocks_match_one_block(self, rows, monkeypatch):
        d = sk.build_gaussian(9, 40, seed=2)
        want = {l: sk.moment_mu_l(d, l) for l in (2, 4, 6)}
        force_block_rows(monkeypatch, d, rows)
        for l, value in want.items():
            assert sk.moment_mu_l(d, l) == pytest.approx(value, rel=1e-13)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            sk.moment_mu_l(sk.build_chirp(3), 3)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(2, 10), n=st.integers(2, 16), seed=st.integers(0, 10 ** 6))
def test_chain_inequality(m, n, seed):
    p = sk.coherence_profile(sk.build_gaussian(m, n, seed))
    assert 0.0 <= p.mean_sq <= p.max_avg_sq + 1e-15
    assert p.max_avg_sq <= p.mu ** 2 + 1e-15
    assert p.mu <= 1.0 + 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_frame_norm_floor(seed):
    # unit columns force ||Phi||^2 >= N/m
    d = sk.build_gaussian(5, 15, seed)
    p = sk.coherence_profile(d)
    assert p.spectral_norm ** 2 >= 15 / 5 - 1e-9


@pytest.mark.parametrize("build,k", [
    (lambda: sk.build_chirp(7), 3),
    (lambda: sk.build_delsarte_goethals(1), 4),
])
def test_gershgorin_eigenvalue_consistency(build, k):
    d = build()
    p = sk.coherence_profile(d)
    rng = np.random.default_rng(0)
    for _ in range(50):
        sup = np.sort(rng.choice(d.N, size=k, replace=False))
        sub = d.entries[:, sup]
        vals = np.linalg.eigvalsh(sub.conj().T @ sub)
        lo, hi = 1 - (k - 1) * p.mu, 1 + (k - 1) * p.mu
        assert vals.min() >= lo - 1e-12 and vals.max() <= hi + 1e-12


def test_realify_never_increases_mu():
    for seed in range(5):
        c = sk.build_random_harmonic(5, 10, seed=seed)
        assert (sk.coherence_profile(sk.realify(c)).mu
                <= sk.coherence_profile(c).mu + 1e-12)


def test_realify_gram_is_real_part():
    c = sk.build_chirp(5)
    r = sk.realify(c)
    assert np.abs(r.gram() - c.gram().real).max() < 1e-14


def test_hollow_gram_norm_matches_direct():
    d = sk.build_gaussian(6, 12, seed=4)
    gram = d.gram()
    for sup in combinations(range(6), 3):
        sub = gram[np.ix_(sup, sup)] - np.eye(3)
        want = np.linalg.norm(sub, 2)
        one = np.array([sup])                       # a (1, k) batch
        assert hollow_gram_norms(d, one) == pytest.approx([want], abs=1e-12)
        assert hollow_gram_norms(d, one, gram=gram) == pytest.approx([want], abs=1e-12)
