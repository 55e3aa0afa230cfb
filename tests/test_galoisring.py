import hashlib

import numpy as np
import pytest

from stripkit.dictionaries import delsarte_goethals_code, distance_counts
from stripkit.galoisring import (_PRIMITIVE, gray_map, hensel_lift,
                                 kerdock_binary_words,
                                 kerdock_generator_rows)


class GaloisRing4:
    """Test oracle: GR(4, degree) = Z4[x]/(h) with schoolbook arithmetic and
    the Frobenius trace, the textbook route to the Kerdock generator rows."""

    def __init__(self, degree: int):
        if degree not in _PRIMITIVE:
            raise ValueError(f"no primitive polynomial on file for degree {degree}")
        self.degree = degree
        self.modulus = hensel_lift(_PRIMITIVE[degree])
        self._teich_by_residue = {
            tuple(c % 2 for c in t): t for t in self.teichmuller()
        }

    def mul(self, a, b):
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % 4
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(d):
                    prod[k - d + j] = (prod[k - d + j] - c * self.modulus[j]) % 4
        return tuple(prod[:d])

    def teichmuller(self):
        """{0} followed by the powers of the root of the modulus."""
        d = self.degree
        zero = (0,) * d
        one = (1,) + (0,) * (d - 1)
        xi = (0, 1) + (0,) * (d - 2)
        reps = [zero, one]
        cur = one
        for _ in range(2 ** d - 2):
            cur = self.mul(cur, xi)
            reps.append(cur)
        if self.mul(cur, xi) != one:
            raise RuntimeError("root does not have order 2^d - 1")
        return reps

    def frobenius(self, w):
        """a + 2b -> a^2 + 2b^2 for Teichmuller a, b."""
        a = self._teich_by_residue[tuple(c % 2 for c in w)]
        diff = tuple((x - y) % 4 for x, y in zip(w, a))
        b = self._teich_by_residue[tuple((c // 2) % 2 for c in diff)]
        return tuple((x + 2 * y) % 4
                     for x, y in zip(self.mul(a, a), self.mul(b, b)))

    def trace(self, z):
        """Trace down to Z4: the sum of the degree Frobenius conjugates."""
        total = (0,) * self.degree
        for _ in range(self.degree):
            total = tuple((x + y) % 4 for x, y in zip(total, z))
            z = self.frobenius(z)
        if any(total[1:]):
            raise RuntimeError("trace did not land in Z4")
        return total[0]


def oracle_generator_rows(degree: int) -> np.ndarray:
    """Row j holds trace(xi^j * x) over the Teichmuller set, zero first."""
    gr = GaloisRing4(degree)
    teich = gr.teichmuller()
    xi_pow = (1,) + (0,) * (degree - 1)
    xi = (0, 1) + (0,) * (degree - 2)
    rows = np.empty((degree, len(teich)), dtype=np.int64)
    for j in range(degree):
        for col, x in enumerate(teich):
            rows[j, col] = gr.trace(gr.mul(xi_pow, x))
        xi_pow = gr.mul(xi_pow, xi)
    return rows


def test_hensel_lift_degree_three():
    # x^3 + x + 1 lifts to x^3 + 2x^2 + x + 3 over Z4
    assert list(hensel_lift([1, 1, 0, 1])) == [3, 1, 2, 1]


def test_lift_reduces_to_input_mod_two():
    for f in ([1, 1, 0, 1], [1, 0, 1, 0, 0, 1]):
        h = hensel_lift(f)
        assert [c % 2 for c in h] == f


def test_ring_multiplication_basics():
    gr = GaloisRing4(3)
    one = (1, 0, 0)
    xi = (0, 1, 0)
    assert gr.mul(one, xi) == xi
    # the Teichmuller set has 2^3 elements and the root has full order
    teich = gr.teichmuller()
    assert len(teich) == 8
    assert len(set(teich)) == 8


def test_trace_is_additive_and_z4_valued():
    gr = GaloisRing4(3)
    teich = gr.teichmuller()
    vals = [gr.trace(t) for t in teich]
    assert all(v in (0, 1, 2, 3) for v in vals)
    a, b = teich[2], teich[5]
    s = tuple((x + y) % 4 for x, y in zip(a, b))
    assert gr.trace(s) == (gr.trace(a) + gr.trace(b)) % 4


def test_gray_map_table():
    words = np.array([[0, 1, 2, 3]])
    bits = gray_map(words)
    assert bits.tolist() == [[0, 0, 0, 1, 1, 1, 1, 0]]


def test_gray_map_is_lee_isometry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.integers(0, 4, size=10)
        v = rng.integers(0, 4, size=10)
        lee = np.minimum((u - v) % 4, (v - u) % 4).sum()
        ham = (gray_map(u[None, :]) != gray_map(v[None, :])).sum()
        assert ham == lee


def test_generator_rows_shape_and_values():
    rows = kerdock_generator_rows(3)
    assert rows.shape == (3, 8)
    assert rows.min() >= 0 and rows.max() <= 3
    # column for the zero Teichmuller element carries trace(0) = 0
    assert np.all(rows[:, 0] == 0)


def test_difference_distances_match_exhaustive():
    # the dg s=1 code is distance-invariant: its weight histogram times N
    # is the exhaustive count over all ordered pairs
    code = delsarte_goethals_code(1)
    assert code.distance_invariant
    bits = code.bits()
    assert bits.tobytes() == kerdock_binary_words(3).tobytes()
    exhaustive = np.zeros(code.m + 1, dtype=np.int64)
    for word in bits:
        exhaustive += np.bincount((bits != word).sum(axis=1), minlength=code.m + 1)
    assert np.array_equal(distance_counts(code), exhaustive)
    assert exhaustive[0] == code.N
    assert set(np.flatnonzero(exhaustive[1:]) + 1) == {6, 8, 10}


@pytest.mark.parametrize("degree", [3, 5, 7])
def test_generator_rows_match_ring_oracle(degree):
    rows = kerdock_generator_rows(degree)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, oracle_generator_rows(degree))


# sha256 of kerdock_binary_words(degree).tobytes(), antipode-free
WORDS_SHA256 = {
    3: "eeadbf95f7147e32cc5e957f9c713e8e427cad5f9b9faa5dedcddd1f777829e7",
    5: "7bc3d5e1f19e9f81ccc53ea35df7510ea331cbf8452f9ce43cac4b8856fe5104",
    7: "6a13c0516c650b9754b67b17637b64540c6fd09207fe8e97b53343da950a12fb",
}


@pytest.mark.parametrize("degree", sorted(WORDS_SHA256))
def test_binary_words_pinned(degree):
    words = kerdock_binary_words(degree)
    assert words.shape == (2 * 4 ** degree, 2 ** (degree + 1))
    assert hashlib.sha256(words.tobytes()).hexdigest() == WORDS_SHA256[degree]


def test_unsupported_degree():
    with pytest.raises(ValueError):
        kerdock_generator_rows(4)
