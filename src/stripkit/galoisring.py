"""Kerdock-type codes over Z4 from the linear recurring sequence of a Hensel lift.

The quaternary route to low-coherence bipolar dictionaries, after Hammons,
Kumar, Calderbank, Sloane and Sole (IEEE Trans. IT, 1994). For odd d, lift a
primitive binary polynomial to the basic primitive polynomial h over Z4. The
Kerdock code is spanned over Z4 by the shifts of the linear recurring
sequence of h, whose terms are the power sums of the roots of h, and Gray-
mapped to bits. Only what the dictionary builders need is implemented.
"""

from __future__ import annotations

import numpy as np

# Primitive binary polynomials, low-order coefficients first, one per odd
# degree we support (degree d serves the bipolar length 2^(d+1) family).
_PRIMITIVE = {
    3: (1, 1, 0, 1),            # x^3 + x + 1
    5: (1, 0, 1, 0, 0, 1),      # x^5 + x^2 + 1
    7: (1, 1, 0, 0, 0, 0, 0, 1),            # x^7 + x + 1
    9: (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),      # x^9 + x^4 + 1
    11: (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),  # x^11 + x^2 + 1
}


def hensel_lift(f_bits) -> np.ndarray:
    """Graeffe lift of a binary polynomial to Z4: h(x^2) = (-1)^d f(x) f(-x)."""
    d = len(f_bits) - 1
    f = np.asarray(f_bits, dtype=np.int64)
    fneg = f.copy()
    fneg[1::2] = (-fneg[1::2]) % 4
    prod = np.zeros(2 * d + 1, dtype=np.int64)
    for i, a in enumerate(f):
        if a:
            prod[i:i + d + 1] = (prod[i:i + d + 1] + a * fneg) % 4
    h = prod[::2] % 4
    if d % 2 == 1:
        h = (-h) % 4
    if h[-1] != 1:
        raise ValueError("lift is not monic; input polynomial not monic?")
    return h


def kerdock_generator_rows(degree: int) -> np.ndarray:
    """Z4 generator rows of the trace code, shape (degree, 2^degree).

    Column 0 stands for the zero element and column c >= 1 for xi^(c-1), xi a
    root of h = hensel_lift(_PRIMITIVE[degree]); row j holds Tr(xi^j x), so
    row j is [0, p_j, ..., p_(j+2^degree-2)] with p_t = Tr(xi^t) the t-th
    power sum of the roots of h. Newton's identities give p_0 = degree and
    p_t = -(sum_{i<t} h_(d-i) p_(t-i) + t h_(d-t)) for t <= d; past d the
    power sums follow the recurrence of h.
    """
    if degree not in _PRIMITIVE:
        raise ValueError(f"no primitive polynomial on file for degree {degree}")
    h = hensel_lift(_PRIMITIVE[degree]).tolist()
    d, period = degree, 2 ** degree - 1
    p = [d % 4]
    for t in range(1, d + period - 1):
        s = sum(h[d - i] * p[t - i] for i in range(1, min(t, d + 1)))
        if t <= d:
            s += t * h[d - t]
        p.append(-s % 4)
    rows = np.zeros((d, period + 1), dtype=np.int64)
    rows[:, 1:] = np.asarray(p)[np.arange(d)[:, None] + np.arange(period)]
    return rows


def gray_map(words4: np.ndarray) -> np.ndarray:
    """Gray image of Z4 words: 0->00, 1->01, 2->11, 3->10, bit pairs adjacent."""
    w = np.asarray(words4)
    first = ((w == 2) | (w == 3)).astype(np.uint8)
    second = ((w == 1) | (w == 2)).astype(np.uint8)
    out = np.empty((w.shape[0], 2 * w.shape[1]), dtype=np.uint8)
    out[:, 0::2] = first
    out[:, 1::2] = second
    return out


def _offset_words(degree: int, offsets) -> np.ndarray:
    """Every Z4 combination of the generator rows plus each constant offset,
    as rows: combination-major, offset-minor."""
    rows = kerdock_generator_rows(degree)
    coeffs = np.indices((4,) * degree).reshape(degree, -1).T  # all Z4 tuples
    base = (coeffs @ rows) % 4                                # (4^degree, n4)
    words4 = (base[:, None, :] + np.asarray(offsets)[None, :, None]) % 4
    return words4.reshape(-1, rows.shape[1])


def kerdock_binary_words(degree: int) -> np.ndarray:
    """Binary Kerdock-type words of length 2^(degree+1), one of each
    complementary pair (offset + 2): the constant offset runs over {0,1}."""
    return gray_map(_offset_words(degree, (0, 1)))


def kerdock_difference_distances(degree: int):
    """Distinct pairwise Hamming distances of the binary code, cheaply.

    The Gray map is an isometry from Lee distance, and differences of
    (coefficients, offset) pairs sweep offsets {0, +-1}, so the distance
    multiset equals the Lee weights of those difference words: no N^2 pair
    enumeration needed. Returns (distinct nonzero distances, count of
    duplicate codewords).
    """
    words4 = _offset_words(degree, (0, 1, 3))
    lee = np.minimum(words4, 4 - words4).sum(axis=1)
    lee = lee[1:]     # the (0, 0) difference is the zero word; drop it
    return np.unique(lee[lee > 0]), int((lee == 0).sum())
