import hashlib
import math
import struct
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stripkit as sk
from stripkit import dictionaries
from stripkit.dictionaries import (BinaryCode, Dictionary, DictionaryFormatError,
                                   FamilyError, frame_spectrum, gf2_rank,
                                   span_of_generator)

from conftest import full_space, reed_muller_1_3, span_bits


class TestGaussian:
    def test_scalar_is_sign(self):
        d = sk.build_gaussian(1, 1, seed=0)
        assert abs(abs(d.entries[0, 0]) - 1.0) < 1e-15

    def test_unit_columns(self):
        d = sk.build_gaussian(64, 256, seed=7)
        assert np.abs(np.linalg.norm(d.entries, axis=0) - 1).max() < 1e-12

    def test_seeded_coherence_against_closed_form_bound(self):
        # frozen from a direct Gram evaluation of this seeded instance
        d = sk.build_gaussian(64, 256, seed=7)
        mu = sk.coherence_profile(d).mu
        assert mu == pytest.approx(0.5013397343832721, abs=1e-12)
        assert 0.25 < mu < 0.6
        # the closed-form high-probability bound is vacuous at this size:
        # sqrt(m) < sqrt(12 ln N) makes the denominator negative
        denom = math.sqrt(64) - math.sqrt(12 * math.log(256))
        assert denom < 0

    def test_determinism(self):
        a = sk.build_gaussian(16, 32, seed=3)
        b = sk.build_gaussian(16, 32, seed=3)
        assert np.array_equal(a.entries, b.entries)
        c = sk.build_gaussian(16, 32, seed=4)
        assert not np.array_equal(a.entries, c.entries)

    def test_bad_dims(self):
        with pytest.raises(FamilyError):
            sk.build_gaussian(0, 4, seed=0)


class TestHarmonic:
    def test_full_selection_is_unitary_dft(self):
        d = sk.build_random_harmonic(8, 8, seed=0)
        assert d.m == 8
        assert sk.coherence_profile(d).mu < 1e-12

    def test_mean_square_formula(self):
        # seed chosen so the Bernoulli draw keeps exactly 4 of 8 rows
        d = sk.build_random_harmonic(4, 8, seed=1)
        assert d.params["rows_selected"] == 4
        p = sk.coherence_profile(d)
        assert p.mean_sq == pytest.approx((8 - 4) / (7 * 4), abs=1e-12)

    def test_coherence_invariant(self):
        d = sk.build_random_harmonic(16, 64, seed=9)
        assert sk.coherence_profile(d).invariant

    def test_realized_rows_recorded(self):
        d = sk.build_random_harmonic(5, 32, seed=2)
        assert d.m == d.params["rows_selected"]
        assert d.field == "complex"

    def test_bad_range(self):
        with pytest.raises(FamilyError):
            sk.build_random_harmonic(9, 8, seed=0)


class TestChirp:
    def test_dimensions_and_mu(self):
        d = sk.build_chirp(3)
        assert (d.m, d.N) == (3, 9)
        assert sk.coherence_profile(d).mu == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_theta(self):
        p = sk.coherence_profile(sk.build_chirp(3))
        assert p.theta == pytest.approx(0.25, abs=1e-12)

    def test_spectral_norm(self):
        p = sk.coherence_profile(sk.build_chirp(7))
        assert p.spectral_norm == pytest.approx(math.sqrt(7), abs=1e-9)

    @pytest.mark.parametrize("m", [4, 6, 9, 1])
    def test_rejects_nonprime(self, m):
        with pytest.raises(FamilyError):
            sk.build_chirp(m)


class TestEtfPaley:
    def test_q5_gram(self):
        d = sk.build_etf_paley(5)
        assert (d.m, d.N) == (3, 6)
        g = np.abs(d.gram() - np.eye(6))
        off = g[~np.eye(6, dtype=bool)]
        assert np.abs(off - 1 / math.sqrt(5)).max() < 1e-10

    def test_q13_equiangular(self):
        d = sk.build_etf_paley(13)
        g = np.abs(d.gram())
        off = g[~np.eye(14, dtype=bool)]
        assert off.max() - off.min() <= 1e-10

    def test_theta_equals_mu_squared(self):
        p = sk.coherence_profile(sk.build_etf_paley(5))
        assert p.mean_sq == pytest.approx(p.mu ** 2, abs=1e-12)

    @pytest.mark.parametrize("q", [7, 8, 11, 4])
    def test_rejects_bad_q(self, q):
        with pytest.raises(FamilyError):
            sk.build_etf_paley(q)


class TestDelsarteGoethals:
    def test_family_contract_s1(self):
        d = sk.build_delsarte_goethals(1)
        assert d.m == 16
        assert d.N == 16 ** 2 // 2
        p = sk.coherence_profile(d)
        assert p.mu == 0.25
        assert p.invariant
        # tight frame: rows orthogonal with equal norms
        frame = d.entries @ d.entries.T
        assert np.abs(frame - (d.N / d.m) * np.eye(d.m)).max() < 1e-12
        assert p.spectral_norm == pytest.approx(math.sqrt(d.N / d.m), abs=1e-9)
        assert p.mean_sq == pytest.approx((d.N - d.m) / (d.m * (d.N - 1)), abs=1e-12)

    def test_underlying_code_distances_in_band(self):
        code = sk.delsarte_goethals_code(1)
        bits = code.bits().astype(np.int16)
        for i in range(0, code.N, 17):
            dist = (bits != bits[i]).sum(axis=1)
            dist = np.delete(dist, i)
            assert dist.min() >= 6 and dist.max() <= 10

    def test_unsupported_combinations(self):
        with pytest.raises(FamilyError):
            sk.build_delsarte_goethals(0)
        with pytest.raises(FamilyError):
            sk.build_delsarte_goethals(2, r=1)

    def test_precomputed_code_route_validates(self):
        code = sk.delsarte_goethals_code(1)
        d = sk.build_delsarte_goethals(1, code=code)
        assert d.N == code.N
        bad = BinaryCode.from_words(np.array([[0] * 8, [1] * 8], dtype=np.uint8))
        with pytest.raises(FamilyError):
            sk.build_delsarte_goethals(1, code=bad)

    @pytest.mark.parametrize("what, bound_mib", [("code", 24), ("dictionary", 96)])
    def test_s3_build_memory(self, what, bound_mib):
        # the 32768 x 256 code: its uint8 Z4 symbols and Gray bits take 12 MiB
        # and its packed rows 1 MiB; the float64 dictionary built in place
        # takes 64 MiB plus the 8 MiB sign mask
        build = {"code": lambda: sk.delsarte_goethals_code(3),
                 "dictionary": lambda: sk.build_family("dg", s=3)}[what]
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20

    def test_empty_supplied_code_rejected(self):
        empty = BinaryCode.from_words(np.zeros((0, 16), dtype=np.uint8))
        with pytest.raises(FamilyError, match="empty code"):
            sk.build_delsarte_goethals(1, code=empty)

    @pytest.mark.parametrize("s, digest", [
        (1, "c3efce46e533b9b9ffe7f389c8fd013d103f2d3d9dad32b8cd490508b44f9ad4"),
        (2, "a3c35d5186702f28bd319aeb6c821ca8d8bb35a435354400f3d74da04324c7ef"),
    ])
    def test_entries_pinned(self, s, digest):
        # sha256 of the float64 entries; fixes column order and signs
        d = sk.build_delsarte_goethals(s)
        assert hashlib.sha256(d.entries.tobytes()).hexdigest() == digest

    def test_family_contract_s2(self):
        d = sk.build_delsarte_goethals(2)
        assert (d.m, d.N) == (64, 2048)
        g = np.abs(d.gram() - np.eye(d.N))
        assert g.max() == 0.125     # exactly 1/sqrt(64); dyadic, so no roundoff
        frame = d.entries @ d.entries.T
        assert np.abs(frame - 32 * np.eye(64)).max() < 1e-12

    def test_full_code_structure(self):
        # the full code (all four offsets) is the words with their
        # complements: distances {0, 6, 8, 10, 16} with the classic
        # multiplicities, and the array reaches strength 5 exactly
        from stripkit.galoisring import kerdock_binary_words
        words = kerdock_binary_words(3)
        code = BinaryCode.from_words(np.concatenate([words, 1 - words]))
        dist = sk.distance_distribution(code)
        per_word = {w: int(c) // 256 for w, c in dist.counts.items()}
        assert per_word == {0: 1, 6: 112, 8: 30, 10: 112, 16: 1}
        res = sk.oa_strength(code, t_max=6)
        assert res.exact and res.strength == 5


class TestGeneratorBackedCode:
    def test_rank_deficient_generator_rejected(self):
        g = reed_muller_1_3().generator.copy()
        for a, b, c in ((3, 1, 2), (0, 0, 0), (2, 0, 1)):
            dependent = g.copy()
            dependent[:, a] = g[:, b] ^ g[:, c]
            with pytest.raises(FamilyError, match="codewords are not distinct"):
                BinaryCode.from_generator(dependent)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 9), l=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
    def test_gf2_rank_counts_distinct_span_words(self, m, l, seed):
        rng = np.random.default_rng(seed)
        g = rng.integers(0, 2, size=(m, l), dtype=np.uint8)
        if l > 1 and seed % 2:
            g[:, -1] = g[:, 0] ^ g[:, l // 2]
        distinct = len(np.unique(span_of_generator(g), axis=0))
        assert 2 ** gf2_rank(g) == distinct


def span_by_matmul(generator: np.ndarray) -> np.ndarray:
    """Test oracle: the span as the product of all 2^l coefficient rows
    (np.indices order) with the generator, mod 2."""
    g = np.asarray(generator, dtype=np.uint8)
    m, l = g.shape
    coeffs = np.indices((2,) * l).reshape(l, -1).T.astype(np.uint8)
    return (coeffs @ g.T) % 2


class TestSpanOfGenerator:
    @pytest.mark.parametrize("l", range(1, 11))
    def test_matches_matmul_oracle(self, l):
        rng = np.random.default_rng(l)
        for m in (1, 7, 8, 9, 64, 65, 70):
            g = rng.integers(0, 2, size=(m, l), dtype=np.uint8)
            if l > 1 and m % 2:
                g[:, 0] = g[:, -1]          # dependent columns span duplicates
            span = span_of_generator(g)
            assert span.dtype == np.uint64 and span.shape == (2 ** l, -(-m // 64))
            assert span_bits(g).tobytes() == span_by_matmul(g).tobytes()


class TestPackedRows:
    @pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 130])
    def test_round_trip_with_zero_pad_bits(self, m):
        rng = np.random.default_rng(m + 7)
        words = np.unique(rng.integers(0, 2, size=(40, m), dtype=np.uint8), axis=0)
        codes = [BinaryCode.from_words(words)]
        if m:
            codes.append(BinaryCode.from_generator(np.eye(m, min(m, 6), dtype=np.uint8)))
        for code in codes:
            assert code.rows.dtype == np.uint64
            assert code.rows.shape == (code.N, -(-m // 64))
            bits = np.unpackbits(code.rows.view(np.uint8), axis=1)
            assert not bits[:, m:].any()
            assert code.bits().dtype == np.uint8
            assert code.bits().tobytes() == bits[:, :m].tobytes()
        assert codes[0].bits().tobytes() == words.tobytes()

    def test_bad_words_rejected(self):
        with pytest.raises(FamilyError, match="must be 0/1"):
            BinaryCode.from_words(np.array([[0, 2, 1]]))
        with pytest.raises(FamilyError, match="must be an \\(N, m\\) matrix"):
            BinaryCode.from_words(np.array([0, 1, 1]))


class TestDistinctWords:
    @pytest.mark.parametrize("m", [9, 70])
    def test_duplicate_pair_rejected_anywhere(self, m):
        rng = np.random.default_rng(m)
        words = np.unique(rng.integers(0, 2, size=(20, m), dtype=np.uint8), axis=0)
        n = len(words)
        assert BinaryCode.from_words(words).N == n
        for i, j in ((0, 1), (n - 2, n - 1), (0, n - 1)):
            dup = words.copy()
            dup[j] = dup[i]
            with pytest.raises(FamilyError, match="codewords are not distinct"):
                BinaryCode.from_words(dup)

    @pytest.mark.parametrize("m", [9, 70])
    def test_words_one_bit_apart_across_a_byte_boundary_are_distinct(self, m):
        # bits 7 and 8 sit in different bytes of the packed rows; bit m - 1
        # sits in the zero-padded last byte
        base = np.random.default_rng(m + 1).integers(0, 2, size=m, dtype=np.uint8)
        for bit in (7, 8, m - 1):
            pair = np.stack([base, base])
            pair[1, bit] ^= 1
            assert BinaryCode.from_words(pair).N == 2
            both = np.concatenate([pair, pair[:1]])
            with pytest.raises(FamilyError, match="codewords are not distinct"):
                BinaryCode.from_words(both)


class TestCodeSizeCap:
    @pytest.mark.parametrize("s", [5, 6])
    def test_oversized_dg_rejected_before_building(self, s):
        tracemalloc.start()
        try:
            with pytest.raises(FamilyError, match="beyond the cap MAX_CODE_BITS"):
                sk.build_family("dg", s=s)
            with pytest.raises(FamilyError, match=f"{2 ** (4 * s + 3)} x {2 ** (2 * s + 2)}"):
                sk.delsarte_goethals_code(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_dg_s4_is_under_the_cap(self):
        assert 2 ** 19 * 2 ** 10 <= dictionaries.MAX_CODE_BITS < 2 ** 23 * 2 ** 12

    def test_code_at_the_cap_builds(self, monkeypatch):
        # the cap admits a code of exactly MAX_CODE_BITS bits, one bit more is out
        monkeypatch.setattr(dictionaries, "MAX_CODE_BITS", 2 ** 11 * 2 ** 6)
        code = sk.delsarte_goethals_code(2)
        assert (code.N, code.m) == (2048, 64)
        monkeypatch.setattr(dictionaries, "MAX_CODE_BITS", 2 ** 11 * 2 ** 6 - 1)
        with pytest.raises(FamilyError, match="beyond the cap MAX_CODE_BITS"):
            sk.delsarte_goethals_code(2)


class TestFromBinaryCode:
    def test_antipodal_pair(self):
        code = BinaryCode.from_words(np.array([[0] * 6, [1] * 6], dtype=np.uint8))
        d = sk.from_binary_code(code)
        assert sk.coherence_profile(d).mu == pytest.approx(1.0, abs=1e-12)

    def test_equidistant_code_is_orthogonal(self):
        words = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]],
                         dtype=np.uint8)
        d = sk.from_binary_code(BinaryCode.from_words(words))
        assert sk.coherence_profile(d).mu < 1e-12

    def test_reed_muller_complements(self):
        code = reed_muller_1_3()
        d = sk.from_binary_code(code)
        assert sk.coherence_profile(d).mu == pytest.approx(1.0, abs=1e-12)
        # dropping complements leaves 8 words at pairwise distance 4 = m/2
        bits = code.bits()
        half = BinaryCode.from_words(bits[bits[:, 0] == 0])
        d2 = sk.from_binary_code(half)
        assert sk.coherence_profile(d2).mu < 1e-12

    def test_orientation(self):
        code = BinaryCode.from_words(np.array([[0, 0, 0, 0], [1, 0, 0, 0]], dtype=np.uint8))
        d = sk.from_binary_code(code)
        assert d.entries[0, 0] == pytest.approx(0.5)       # bit 0 -> +1/sqrt(m)
        assert d.entries[0, 1] == pytest.approx(-0.5)      # bit 1 -> -1/sqrt(m)


class TestRealify:
    def test_full_dft(self):
        d = sk.realify(sk.build_random_harmonic(8, 8, seed=0))
        assert (d.m, d.N) == (16, 8)
        assert sk.coherence_profile(d).mu < 1e-12

    def test_chirp3(self):
        d = sk.realify(sk.build_chirp(3))
        assert (d.m, d.N) == (6, 9)
        assert sk.coherence_profile(d).mu <= 1 / math.sqrt(3) + 1e-12

    def test_norms_exact_and_mu_never_grows(self):
        for seed in range(3):
            c = sk.build_random_harmonic(6, 12, seed=seed)
            r = sk.realify(c)
            assert np.abs(np.linalg.norm(r.entries, axis=0) - 1).max() < 1e-12
            assert sk.coherence_profile(r).mu <= sk.coherence_profile(c).mu + 1e-12

    def test_rejects_real_input(self):
        with pytest.raises(FamilyError):
            sk.realify(sk.build_gaussian(4, 4, seed=0))


class TestRecord:
    def test_shape_and_field_come_from_entries(self):
        assert [f.name for f in fields(Dictionary)] == [
            "name", "entries", "params", "seed", "code"]
        for entries, dtype, fld in [(np.eye(3, dtype=int)[:, :2], np.float64, "real"),
                                    ([[1j, 1.0]], np.complex128, "complex")]:
            d = Dictionary("d", entries)
            assert d.entries.dtype == dtype and d.field == fld
            assert (d.m, d.N) == np.shape(entries) and not d.entries.flags.writeable
            for name in ("m", "N", "field"):
                with pytest.raises(AttributeError):
                    setattr(d, name, 1)

    @pytest.mark.parametrize("entries", [np.ones(3), np.ones((1, 1, 1)),
                                         np.zeros((0, 2)), np.zeros((2, 0))])
    def test_rejects_non_matrix(self, entries):
        with pytest.raises(FamilyError, match="m x N matrix with m, N >= 1"):
            Dictionary("d", entries)

    # NaN compares False with the tolerance, so it once passed the check
    @pytest.mark.parametrize("entries", [
        [[math.nan, 0.0], [0.0, 1.0]],
        [[complex(1.0, math.nan), 0.0], [0.0, 1.0]],
        [[2.0, 0.0], [0.0, 1.0]],
        [[1e200, 0.0], [0.0, 1.0]],        # a square past float range
    ], ids=["nan-real", "nan-imag", "off-unit", "overflow"])
    def test_rejects_columns_off_unit_norm(self, entries):
        with pytest.raises(FamilyError, match="columns deviate from unit norm"):
            Dictionary("d", entries)


def _sdict(path, fld, m, n, doubles):
    path.write_bytes(f"SDICT 1\nfield={fld}\nm={m}\nN={n}\nname=x\ndata\n".encode()
                     + struct.pack(f"<{len(doubles)}d", *doubles))
    return path


class TestSerialization:
    @pytest.mark.parametrize("build", [
        lambda: sk.build_chirp(3),
        lambda: sk.build_gaussian(5, 9, seed=11),
        lambda: sk.build_delsarte_goethals(1),
        lambda: sk.build_random_harmonic(4, 8, seed=1),
    ])
    def test_round_trip_bit_exact(self, tmp_path, build):
        d = build()
        path = tmp_path / "d.dict"
        sk.save_dictionary(d, path)
        back = sk.load_dictionary(path)
        assert back.field == d.field and (back.m, back.N) == (d.m, d.N)
        assert np.array_equal(back.entries, d.entries)   # bit-exact
        assert back.params == d.params

    def test_payload_size_mismatch(self, tmp_path):
        d = sk.build_gaussian(4, 6, seed=0)
        path = tmp_path / "d.dict"
        sk.save_dictionary(d, path)
        blob = path.read_bytes()
        (tmp_path / "short.dict").write_bytes(blob[:-8])
        with pytest.raises(DictionaryFormatError):
            sk.load_dictionary(tmp_path / "short.dict")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dict"
        path.write_bytes(b"NOPE 1\ndata\n")
        with pytest.raises(DictionaryFormatError):
            sk.load_dictionary(path)

    @pytest.mark.parametrize("first", [b"SDICT", b"SDICT x"])
    def test_malformed_version_line(self, tmp_path, first):
        path = tmp_path / "bad.dict"
        path.write_bytes(first + b"\nfield=real\nm=1\nN=1\ndata\n" + bytes(8))
        with pytest.raises(DictionaryFormatError, match="bad header line"):
            sk.load_dictionary(path)

    @pytest.mark.parametrize("m, n", [(-1, -1), (0, 0), (0, 3), (2, -2)])
    def test_nonpositive_size(self, tmp_path, m, n):
        path = tmp_path / "bad.dict"
        path.write_bytes(b"SDICT 1\nfield=real\nm=%d\nN=%d\ndata\n" % (m, n)
                         + bytes(8 * abs(m * n)))
        with pytest.raises(DictionaryFormatError, match="m and N must be positive"):
            sk.load_dictionary(path)

    @pytest.mark.parametrize("build", [
        lambda: sk.build_gaussian(512, 2048, seed=5),
        lambda: sk.build_random_harmonic(256, 2048, seed=5),
    ], ids=["real", "complex"])
    def test_load_memory_is_one_copy(self, tmp_path, build):
        # the payload is read into the returned array; whole-file reads, a
        # payload copy and an m x N norm temporary once peaked at 4x
        d = build()
        assert d.entries.nbytes >= 8 * 2 ** 20
        sk.save_dictionary(d, tmp_path / "d.sdict")
        tracemalloc.start()
        try:
            back = sk.load_dictionary(tmp_path / "d.sdict")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.entries, d.entries)
        assert peak <= 1.5 * d.entries.nbytes

    def test_partial_double_payload(self, tmp_path):
        d = sk.build_gaussian(4, 6, seed=0)
        path = tmp_path / "d.dict"
        sk.save_dictionary(d, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DictionaryFormatError, match="not a whole number of doubles"):
            sk.load_dictionary(path)

    def test_code_is_kept_but_not_saved(self, tmp_path):
        code = sk.delsarte_goethals_code(1)
        d = sk.build_delsarte_goethals(1)
        assert np.array_equal(d.code.rows, code.rows) and d.code.distance_invariant
        assert "code" not in repr(d) and d == replace(d, code=None)
        sk.save_dictionary(d, tmp_path / "d.sdict")
        assert b"code" not in (tmp_path / "d.sdict").read_bytes().split(b"\ndata\n")[0]
        assert sk.load_dictionary(tmp_path / "d.sdict").code is None
        assert sk.realify(sk.build_chirp(3)).code is None

    def test_nonunit_columns_warn(self, tmp_path):
        d = sk.build_gaussian(4, 6, seed=0)
        path = tmp_path / "d.dict"
        sk.save_dictionary(d, path)
        blob = bytearray(path.read_bytes())
        head = blob.index(b"data\n") + 5
        payload = np.frombuffer(bytes(blob[head:]), dtype="<f8") * 1.5
        (tmp_path / "scaled.dict").write_bytes(bytes(blob[:head]) + payload.tobytes())
        with pytest.warns(UserWarning):
            back = sk.load_dictionary(tmp_path / "scaled.dict")
        assert back.column_norm_deviation() < 1e-10

    def test_unknown_field_header(self, tmp_path):
        with pytest.raises(DictionaryFormatError, match="unknown field 'foo'"):
            sk.load_dictionary(_sdict(tmp_path / "d.dict", "foo", 1, 1, [1.0]))

    def test_good_file_is_one_column_pass(self, tmp_path, monkeypatch):
        sk.save_dictionary(sk.build_delsarte_goethals(1), tmp_path / "d.sdict")
        calls = []
        spied = dictionaries._column_sq_norms
        monkeypatch.setattr(dictionaries, "_column_sq_norms",
                            lambda a: calls.append(a.shape) or spied(a))
        sk.load_dictionary(tmp_path / "d.sdict")
        assert calls == [(16, 128)]

    @pytest.mark.parametrize("fld, m, doubles, message", [
        ("real", 2, [math.nan, 0.0], "1 of 2 payload doubles are not finite"),
        ("complex", 1, [1.0, math.nan], "1 of 2 payload doubles are not finite"),
        ("real", 2, [1e308, 1e308],
         r"the norm of column 0 overflows float64 \(1 of 1 columns\)"),
    ])
    def test_bad_payload_messages(self, tmp_path, fld, m, doubles, message):
        path = _sdict(tmp_path / "d.dict", fld, m, 1, doubles)
        with pytest.raises(DictionaryFormatError, match=f"^{message}$"):
            sk.load_dictionary(path)

    def test_off_unit_payload_is_renormalized(self, tmp_path):
        path = _sdict(tmp_path / "d.dict", "real", 2, 1, [2.0, 0.0])
        with pytest.warns(UserWarning, match=r"^loaded columns deviate from unit "
                                             r"norm by 1\.000e\+00; renormalizing$"):
            back = sk.load_dictionary(path)
        assert back.entries.tolist() == [[1.0], [0.0]]

    def test_csv_identity(self, tmp_path, identity8):
        d = Dictionary("eye2", np.eye(2))
        path = tmp_path / "d.csv"
        sk.export_csv(d, path)
        rows = path.read_text().strip().splitlines()
        assert rows == ["1,0", "0,1"]

    def test_csv_complex_rendering(self, tmp_path):
        d = sk.build_chirp(3)
        path = tmp_path / "c.csv"
        sk.export_csv(d, path)
        first = path.read_text().splitlines()[0].split(",")[0]
        assert first.endswith("i") and ("+" in first or "-" in first)


_SIZE = st.one_of(st.integers(-3, 4), st.sampled_from(["", "x", "1.5", str(10 ** 30)]))
_PARAM = st.one_of(
    st.sampled_from(["1", '"s"', "[1, 2]", '{"a": null}', "NaN", "{", ""]),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
    st.text(max_size=6))


@st.composite
def sdict_files(draw):
    """SDICT bytes, mostly well-formed: the size, field, seed and param
    values may be junk, and the payload holds about m N doubles (one more or
    one fewer at times), some of them non-finite or far from unit norm."""
    m, n = draw(_SIZE), draw(_SIZE)
    field = draw(st.sampled_from(["real", "real", "complex", "quaternion"]))
    lines = [draw(st.sampled_from(["SDICT 1", "SDICT 1", "SDICT 2", "NOPE 1"])),
             f"field={field}", f"m={m}", f"N={n}"]
    if draw(st.booleans()):
        lines.append("seed=" + draw(st.sampled_from(["7", "-1", "x"])))
    for key in draw(st.lists(st.sampled_from(["family", "s", "x"]), max_size=2)):
        lines.append(f"param.{key}=" + draw(_PARAM))
    if isinstance(m, int) and isinstance(n, int):
        count = abs(m * n) * (2 if field == "complex" else 1)
        count = max(0, count + draw(st.sampled_from([0, 0, 0, -1, 1])))
    else:
        count = draw(st.integers(0, 4))
    values = draw(st.lists(
        st.one_of(st.floats(-2, 2), st.sampled_from([1e308, 1e-320, math.nan, math.inf])),
        min_size=count, max_size=count))
    header = "\n".join(lines) + "\ndata\n"
    return header.encode("utf-8") + struct.pack(f"<{count}d", *values)


@settings(max_examples=200, deadline=None)
@given(sdict_files())
def test_sdict_files_load_or_raise_value_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.dict"
        path.write_bytes(blob)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # renormalized columns
                d = sk.load_dictionary(path)
        except ValueError:
            return
        assert d.entries.shape == (d.m, d.N) and d.m >= 1 and d.N >= 1


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 24), seed=st.integers(0, 2 ** 32 - 1))
def test_gaussian_unit_columns_property(m, n, seed):
    d = sk.build_gaussian(m, n, seed)
    assert d.column_norm_deviation() <= 1e-10


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_harmonic_mean_sq_matches_formula(seed):
    d = sk.build_random_harmonic(6, 16, seed=seed)
    got = sk.coherence_profile(d).mean_sq
    M = d.params["rows_selected"]
    want = (16 - M) / (15 * M)
    assert got == pytest.approx(want, abs=1e-12)


def test_build_family_dispatch():
    d = sk.build_family("chirp", m=3)
    assert d.N == 9
    with pytest.raises(FamilyError):
        sk.build_family("nope")
    with pytest.raises(FamilyError):
        sk.build_family("chirp")   # missing m
    for bad in ("3", 3.0, True, None, [3]):
        with pytest.raises(FamilyError, match="'m' must be an integer"):
            sk.build_family("chirp", m=bad)


@pytest.mark.parametrize("family,args,accepted", [
    ("gaussian", {"m": 4, "N": 6, "seed": 1, "s": 1}, "m, N, seed"),
    ("harmonic", {"m": 4, "N": 6, "q": 5}, "m, N, seed"),
    ("chirp", {"m": 7, "seed": 3}, "m"),
    ("etf", {"q": 13, "m": 7}, "q"),
    ("dg", {"s": 1, "m": 99, "typo": 3}, "s, r"),
])
def test_build_family_rejects_stray_parameters(family, args, accepted):
    with pytest.raises(FamilyError, match=f"accepted keys: {accepted}$"):
        sk.build_family(family, **args)


@pytest.mark.parametrize("build", [
    lambda: sk.build_delsarte_goethals(1),
    lambda: sk.build_gaussian(6, 20, seed=3),
    lambda: sk.build_chirp(5),
    lambda: sk.build_gaussian(3, 1, seed=0),
])
def test_frame_is_cached_frame_spectrum(build):
    d = build()
    frame = d.frame
    assert d.frame is frame
    for got, want in zip(frame, frame_spectrum(d.entries)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
    w, v, mask = frame
    gram = d.entries @ d.entries.conj().T
    assert np.allclose((v * w) @ v.conj().T, gram, atol=1e-10)
    assert mask.sum() == np.linalg.matrix_rank(d.entries)


def test_full_space_helper_sanity():
    code = full_space(3)
    assert code.N == 8 and code.m == 3
