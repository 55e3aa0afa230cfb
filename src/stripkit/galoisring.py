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
    w = np.asarray(words4, dtype=np.uint8)
    out = np.empty((w.shape[0], 2 * w.shape[1]), dtype=np.uint8)
    # the pair is the Gray code w ^ (w >> 1), written in place
    np.right_shift(w, 1, out=out[:, 0::2])
    np.bitwise_xor(w, out[:, 0::2], out=out[:, 1::2])
    out[:, 1::2] &= 1
    return out


def kerdock_binary_words(degree: int) -> np.ndarray:
    """Binary Kerdock-type words of length 2^(degree+1): every Z4 combination
    of the generator rows plus the constant offset 0, then 1, as rows
    (combination-major, offset-minor). That is one of each complementary pair
    (offset + 2). The Z4 symbols are uint8: a dot product is at most
    9 * degree <= 99 before the reduction mod 4."""
    rows = kerdock_generator_rows(degree).astype(np.uint8)
    coeffs = np.indices((4,) * degree, dtype=np.uint8).reshape(degree, -1).T
    words4 = (coeffs @ rows)[:, None, :] + np.arange(2, dtype=np.uint8)[:, None]
    words4 %= 4                                    # (4^degree, 2, n4)
    return gray_map(words4.reshape(-1, rows.shape[1]))
