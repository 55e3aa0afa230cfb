"""Sampling-dictionary constructions: random and deterministic families.

Every builder returns a column-normalized ``Dictionary``; constructions are
pure functions of (parameters, seed), so identical inputs give bit-identical
matrices.
"""

from __future__ import annotations

import inspect
import json
import os
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .galoisring import kerdock_binary_words

UNIT_COLUMN_TOL = 1e-10

# bytes held at once by the |Gram| row blocks and by the xor blocks of
# distance_counts
GRAM_BLOCK_BYTES = 8 * 2 ** 20

# codeword bits (N x m) a constructed binary code (a GV span, a dg code) may
# hold. Building one and its bipolar dictionary peaks at about 9.3 bytes per
# bit (GV l=14, dg s=3 under tracemalloc: 8 for the float64 dictionary, 1 for
# its sign mask, the rest for the packed code), so 2^32 bits needs about
# 37 GiB, past what a desk machine can allocate. dg s=4 (2^29 bits) is under
# the cap, dg s=5 (2^35) over it.
MAX_CODE_BITS = 2 ** 32

# Bernoulli row-mask draws of build_random_harmonic before an empty one fails
HARMONIC_MAX_RETRIES = 64

_MAGIC = "SDICT"
_FORMAT_VERSION = 1


class FamilyError(ValueError):
    """Unsupported or invalid construction parameters."""


class DictionaryFormatError(ValueError):
    """Malformed dictionary file."""


@dataclass(frozen=True, eq=False)
class Dictionary:
    """An m x N sampling matrix with unit-norm columns plus build metadata;
    ``m``, ``N`` and ``field`` ("complex" or "real") are read from ``entries``.
    Immutable (no field can be reassigned, ``entries`` is read-only) and
    compared and hashed by identity.

    ``code`` is the binary code whose bipolar image the entries are, set only
    by ``from_binary_code``: it is never inferred from entries, never saved,
    and left out of ``repr``."""

    name: str
    entries: np.ndarray             # (m, N) float64 or complex128
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None
    code: Optional[BinaryCode] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", np.ascontiguousarray(
            self.entries,
            dtype=np.complex128 if np.iscomplexobj(self.entries) else np.float64))
        if self.entries.ndim != 2 or 0 in self.entries.shape:
            raise FamilyError("entries must be an m x N matrix with m, N >= 1, "
                              f"got shape {self.entries.shape}")
        with np.errstate(over="ignore"):
            dev = self.column_norm_deviation()
        if not dev <= UNIT_COLUMN_TOL:      # NaN fails too
            raise FamilyError(f"columns deviate from unit norm by {dev:.3e}")
        self.entries.flags.writeable = False

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def N(self) -> int:
        return self.entries.shape[1]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.entries) else "real"

    def column_norm_deviation(self) -> float:
        return float(np.abs(np.sqrt(_column_sq_norms(self.entries)) - 1.0).max())

    def gram(self) -> np.ndarray:
        return self.entries.conj().T @ self.entries

    @cached_property
    def mu(self) -> float:
        """Coherence, the largest off-diagonal |Gram| entry; computed once,
        since a ``Dictionary`` is immutable.

        With a distance-invariant ``code`` it is the largest of the exact
        ``coherence_levels``, rounded once; otherwise the largest entry of
        the row blocks of ``_abs_gram_blocks``."""
        levels = _exact_levels(self)
        if levels is not None:
            return float(max(levels, default=0))
        return max(float(g.max()) for _, g in _abs_gram_blocks(self))

    @cached_property
    def frame(self):
        """``frame_spectrum(entries)``, computed once: the eigenpairs of the
        frame operator A A^* and the mask of its numerical range, read-only."""
        spectrum = frame_spectrum(self.entries)
        for arr in spectrum:
            arr.flags.writeable = False
        return spectrum


def _column_sq_norms(a: np.ndarray) -> np.ndarray:
    """Per-column sums of squares of an (m, N) array, real and imaginary
    parts apart, without an m x N temporary."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return sum(np.einsum("ij,ij->j", p, p) for p in parts)


def _exact_levels(d: Dictionary) -> Optional[dict]:
    """``coherence_levels(d.code)`` when ``d`` carries a distance-invariant
    code, else None. Every |Gram| row of such a code is the same multiset,
    so ``Dictionary.mu``, ``coherence_profile`` and ``moment_mu_l`` read it
    from the weight histogram instead of ``_abs_gram_blocks``."""
    if d.code is None or not d.code.distance_invariant:
        return None
    return coherence_levels(d.code)


def _abs_gram_blocks(d: Dictionary):
    """Yield (start, |G[start:start + rows]|) over the Gram row blocks of about
    GRAM_BLOCK_BYTES, each with its diagonal zeroed, in row order.

    A block of every row is the product of ``d.gram()``: for real entries
    numpy hands both to the one syrk. A real block of fewer rows is a gemm,
    which may round in the last place unlike that syrk; ``Dictionary.mu``,
    ``coherence_profile`` and ``moment_mu_l`` all read these blocks for a
    dictionary without ``_exact_levels``, so they agree bit for bit.
    """
    a = d.entries
    rows = max(1, GRAM_BLOCK_BYTES // (a.itemsize * d.N))
    for start in range(0, d.N, rows):
        g = np.abs(a[:, start:start + rows].conj().T @ a)
        np.fill_diagonal(g[:, start:], 0.0)
        yield start, g


def frame_spectrum(a: np.ndarray):
    """Eigenpairs of A A^*, clamped at zero, and the mask of its numerical range."""
    w, v = np.linalg.eigh(a @ a.conj().T)
    w = np.maximum(w, 0.0)
    return w, v, (w > w.max() * 1e-14 if w.size else w > 0)


@dataclass
class BinaryCode:
    """N distinct binary words of length m: row i of ``rows`` is word i in
    ``np.packbits`` bit order over ceil(m/64) uint64 words, pad bits zero. A
    linear code keeps its generator; its rows are span_of_generator(generator).
    Build codes with ``from_words`` or ``from_generator``, which check them.

    ``distance_invariant`` records, from the construction, that the distances
    from every codeword are the codeword weights (a linear code, the Gray
    image of a Z4-linear code); only the builders that prove it set it."""

    m: int
    rows: np.ndarray                        # (N, ceil(m/64)) uint64
    generator: Optional[np.ndarray] = None  # (m, l) uint8; code = {G u : u in F2^l}
    distance_invariant: bool = False

    @property
    def N(self) -> int:
        return len(self.rows)

    @classmethod
    def from_words(cls, words) -> "BinaryCode":
        """The code of the distinct 0/1 rows of an (N, m) matrix."""
        words = np.ascontiguousarray(words, dtype=np.uint8)
        if words.ndim != 2:
            raise FamilyError(f"words must be an (N, m) matrix, got shape {words.shape}")
        if words.size and words.max() > 1:
            raise FamilyError("words must be 0/1")
        rows = _pack_rows(words)
        if len(_row_set(rows)) != len(rows):
            raise FamilyError("codewords are not distinct")
        return cls(words.shape[1], rows)

    @classmethod
    def from_generator(cls, generator) -> "BinaryCode":
        """The linear code {G u : u in F2^l} of an (m, l) 0/1 generator, its
        rows in span order."""
        g = np.ascontiguousarray(generator, dtype=np.uint8)
        rows = span_of_generator(g)
        # two words coincide iff their sum, a nonzero combination, has weight 0
        if not _weights(rows[1:]).all():
            raise FamilyError("codewords are not distinct")
        return cls(g.shape[0], rows, g, distance_invariant=True)

    def bits(self) -> np.ndarray:
        """The words as an (N, m) uint8 matrix of 0/1."""
        return np.unpackbits(self.rows.view(np.uint8), axis=1, count=self.m)


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 matrix packed as in ``BinaryCode.rows``."""
    n, m = bits.shape
    packed = np.zeros((n, -(-m // 64) * 8), dtype=np.uint8)
    packed[:, :-(-m // 8)] = np.packbits(bits, axis=1)
    return packed.view(np.uint64)


def _weights(rows: np.ndarray) -> np.ndarray:
    """The Hamming weight of each packed row."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.intp)


def distance_counts(code: BinaryCode) -> np.ndarray:
    """counts[w] = # ordered pairs of codewords (i = j included) at Hamming
    distance w, for w = 0..m.

    A distance-invariant code is its own difference set: counts = N * its
    weight histogram. Otherwise dist(i, j) is the popcount of the xor
    of rows i and j, summed over their words, in row blocks whose
    (rows x N) uint64 xor holds about GRAM_BLOCK_BYTES.
    """
    if code.distance_invariant:
        return code.N * np.bincount(_weights(code.rows), minlength=code.m + 1)
    counts = np.zeros(code.m + 1, dtype=np.int64)
    block = max(1, GRAM_BLOCK_BYTES // (8 * max(1, code.N)))
    for start in range(0, code.N, block):
        rows = code.rows[start:start + block]
        dist = np.zeros((len(rows), code.N), dtype=np.min_scalar_type(code.m))
        for k in range(code.rows.shape[1]):
            dist += np.bitwise_count(rows[:, k, None] ^ code.rows[:, k])
        counts += np.bincount(dist.ravel(), minlength=code.m + 1)
    return counts


def coherence_levels(code: BinaryCode) -> dict:
    """{|Gram| value: # ordered pairs i != j at it} of the bipolar image of
    ``code``: each value is the exact rational |m - 2w|/m of a distance w of
    ``distance_counts``. The words are distinct, so distance 0 comes only
    from i = j."""
    counts = distance_counts(code)
    counts[0] -= code.N
    levels: dict = {}
    for w in np.flatnonzero(counts).tolist():
        level = Fraction(abs(code.m - 2 * w), code.m)
        levels[level] = levels.get(level, 0) + int(counts[w])
    return levels


def span_of_generator(generator: np.ndarray) -> np.ndarray:
    """All 2^l combinations G @ u mod 2 of the generator columns, as packed
    rows (see ``BinaryCode``). Row u combines the columns j with bit l-1-j
    of u set.

    Built by doubling: after the columns l-1, ..., j the rows are the span of
    those columns, and column j - 1 appends their xor with it as the rows
    whose next bit is set."""
    cols = _pack_rows(np.asarray(generator, dtype=np.uint8).T)
    l = len(cols)
    rows = np.zeros((1 << l, cols.shape[1]), dtype=np.uint64)
    for k in range(l):
        n = 1 << k
        np.bitwise_xor(rows[:n], cols[l - 1 - k], out=rows[n:2 * n])
    return rows


def _row_set(rows: np.ndarray) -> np.ndarray:
    """The distinct packed rows in lexicographic bit order: lexsorted on
    their bytes, which hold the bits in order, then each row kept when it
    differs from its predecessor."""
    if rows.shape[1] == 0:                   # m = 0: all rows are equal
        return rows[:1]
    rows = rows[np.lexsort(rows.view(np.uint8).T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _normalize_columns(entries: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(entries, axis=0)
    if np.any(norms == 0):
        raise FamilyError("zero column cannot be normalized")
    return entries / norms


def _need_seed(seed: int) -> None:
    if seed < 0:
        raise FamilyError(f"seed must be nonnegative, got {seed}")


def build_gaussian(m: int, N: int, seed: int = 0) -> Dictionary:
    """I.i.d. standard-normal entries, each column rescaled to unit norm."""
    if m < 1 or N < 1:
        raise FamilyError("m and N must be positive")
    _need_seed(seed)
    rng = np.random.default_rng(seed)
    entries = _normalize_columns(rng.standard_normal((m, N)))
    return Dictionary(f"gaussian(m={m},N={N},seed={seed})", entries,
                      params={"family": "gaussian"}, seed=seed)


def build_random_harmonic(m: int, N: int, seed: int = 0) -> Dictionary:
    """Bernoulli(m/N) row subsample of the N x N DFT, columns renormalized.

    The realized row count |M| is recorded in params and drives the
    closed-form mean-square coherence (N-|M|)/((N-1)|M|).
    """
    if not (1 <= m <= N):
        raise FamilyError("need 1 <= m <= N")
    _need_seed(seed)
    rng = np.random.default_rng(seed)
    for _ in range(HARMONIC_MAX_RETRIES):
        mask = rng.random(N) < (m / N)
        if mask.any():
            rows = np.flatnonzero(mask)
            break
    else:
        raise FamilyError(f"empty row set after {HARMONIC_MAX_RETRIES} retries")
    j = np.arange(N)
    # row r of the DFT evaluated at all columns, then unit-column scaling
    phases = np.exp(2j * np.pi * np.outer(rows, j) / N)
    entries = phases / np.sqrt(len(rows))
    return Dictionary(
        f"harmonic(N={N},target_m={m},seed={seed})", entries,
        params={"family": "harmonic", "target_m": m, "rows_selected": len(rows)},
        seed=seed)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n ** 0.5) + 1):
        if n % p == 0:
            return False
    return True


def build_chirp(m: int) -> Dictionary:
    """m x m^2 chirp dictionary, entries exp(2 pi i (b t^2 + a t)/m)/sqrt(m).

    Column index a*m + b carries linear rate a and quadratic rate b; for
    prime m > 2 every cross-rate pair has coherence exactly 1/sqrt(m).
    """
    if not _is_prime(m):
        raise FamilyError(f"chirp needs prime m, got {m}")
    t = np.arange(m)
    a = np.arange(m)
    b = np.arange(m)
    # exponent[t, a, b] = b t^2 + a t
    expo = (np.multiply.outer(t ** 2, b)[:, None, :] + np.multiply.outer(t, a)[:, :, None]) % m
    entries = np.exp(2j * np.pi * expo / m).reshape(m, m * m) / np.sqrt(m)
    return Dictionary(f"chirp(m={m})", entries, params={"family": "chirp"})


def build_etf_paley(q: int) -> Dictionary:
    """Real equiangular tight frame of size ((q+1)/2) x (q+1) from the Paley
    conference matrix, q prime with q = 1 mod 4."""
    if not _is_prime(q) or q % 4 != 1:
        raise FamilyError(f"need prime q = 1 mod 4, got {q}")
    residues = np.zeros(q, dtype=np.int64)
    residues[np.unique((np.arange(1, q) ** 2) % q)] = 1
    chi = np.where(residues == 1, 1.0, -1.0)
    chi[0] = 0.0
    n = q + 1
    conf = np.zeros((n, n))
    conf[0, 1:] = 1.0
    conf[1:, 0] = 1.0
    diff = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    conf[1:, 1:] = chi[diff]
    gram = np.eye(n) + conf / np.sqrt(q)
    vals, vecs = np.linalg.eigh(gram)
    m = n // 2
    top = vals[-m:]
    if top.min() < 1e-8:
        raise FamilyError("conference-matrix Gram factorization failed")
    entries = (vecs[:, -m:] * np.sqrt(top)).T
    entries = _normalize_columns(entries)  # absorb float roundoff
    return Dictionary(f"etf_paley(q={q})", entries,
                      params={"family": "etf_paley", "q": q})


def from_binary_code(code: BinaryCode, name: str = "code",
                     params: Optional[dict] = None) -> Dictionary:
    """Bipolar image of a binary code: bit 0 -> +1/sqrt(m), bit 1 -> -1/sqrt(m).
    ``params`` extend, or override, the family "binary_code"."""
    if code.N < 1:
        raise FamilyError("empty code")
    entries = np.full((code.m, code.N), 1.0 / np.sqrt(code.m))
    np.negative(entries, out=entries, where=code.bits().T.view(bool))
    return Dictionary(name, entries, params={"family": "binary_code", **(params or {})},
                      code=code)


def delsarte_goethals_code(s: int) -> BinaryCode:
    """Kerdock-type binary code behind the DG(s, r=0) dictionary.

    Length 2^(2s+2), one representative per complementary pair (the offset
    coordinate runs over {0,1} instead of Z4), so N = 2^(4s+3) and all
    pairwise distances sit in the band m/2 +- sqrt(m)/2. The code is the
    Gray image of the Z4-linear Kerdock code cut to offsets {0, 1}; the
    distances from any word a are the Lee weights of a - b, which sweep the
    same multiset from every a, so the code is distance-invariant.
    """
    if s < 1:
        raise FamilyError("need s >= 1")
    N, m = 2 ** (4 * s + 3), 2 ** (2 * s + 2)
    if N * m > MAX_CODE_BITS:
        raise FamilyError(
            f"s={s} needs a {N} x {m} code ({N * m} bits), beyond the cap "
            f"MAX_CODE_BITS = {MAX_CODE_BITS}")
    return replace(BinaryCode.from_words(kerdock_binary_words(2 * s + 1)),
                   distance_invariant=True)


def build_delsarte_goethals(s: int, r: int = 0) -> Dictionary:
    """Bipolar Kerdock-family dictionary: m = 2^(2s+2), coherence 2^r/sqrt(m).

    Only r = 0 is constructed; any other r is refused.
    """
    if s < 1:
        raise FamilyError("need s >= 1")
    if r != 0:
        raise FamilyError(f"(s={s}, r={r}) unsupported: only r=0 is constructed")
    d = from_binary_code(delsarte_goethals_code(s),
                         name=f"delsarte_goethals(s={s},r={r})",
                         params={"family": "delsarte_goethals", "s": s, "r": r,
                                 "antipode_free": True})
    # exact contract check: d.mu reads the weights of the distance-invariant code
    if d.mu > 1 / np.sqrt(d.m) + 1e-12:
        raise FamilyError(f"code violates the coherence contract: mu={d.mu:.4f}")
    return d


def realify(d: Dictionary) -> Dictionary:
    """Stack real and imaginary parts: complex m x N -> real 2m x N.

    Column norms are preserved exactly and the new Gram is the real part of
    the old one, so coherence never increases.
    """
    if d.field != "complex":
        raise FamilyError("realify expects a complex dictionary")
    entries = np.vstack([d.entries.real, d.entries.imag])
    return Dictionary(f"realified({d.name})", entries,
                      params=dict(d.params, realified=True), seed=d.seed)


# ---------------------------------------------------------------------------
# serialization

def save_dictionary(d: Dictionary, path) -> None:
    """Write the line-oriented header plus raw little-endian float64 payload."""
    lines = [f"{_MAGIC} {_FORMAT_VERSION}", f"field={d.field}", f"m={d.m}",
             f"N={d.N}", f"name={d.name}"]
    if d.seed is not None:
        lines.append(f"seed={d.seed}")
    for key in sorted(d.params):
        lines.append(f"param.{key}={json.dumps(d.params[key])}")
    lines.append("data")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    # "<c16" is the little-endian (re, im) double pairs that load_dictionary reads
    payload = d.entries.astype("<c16" if d.field == "complex" else "<f8", copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def load_dictionary(path) -> Dictionary:
    """Read a ``save_dictionary`` file, holding about one copy of the entries:
    the payload is read into the array it fills, and the constructor's
    column check is the one pass over the columns of a good file."""
    with open(path, "rb") as fh:
        # the header ends at the first "data" line after the first line
        lines = [fh.readline()]
        while lines[-1].endswith(b"\n"):
            lines.append(fh.readline())
            if lines[-1] == b"data\n":
                break
        else:
            raise DictionaryFormatError("missing data marker")
        header = b"".join(lines).decode("utf-8").splitlines()
        if not header or not header[0].startswith(_MAGIC):
            raise DictionaryFormatError("bad magic string")
        try:
            version = int(header[0].split()[1])
        except (IndexError, ValueError):
            raise DictionaryFormatError(f"bad header line {header[0]!r}")
        if version != _FORMAT_VERSION:
            raise DictionaryFormatError(f"unsupported format version {version}")
        fields: dict = {"params": {}}
        for line in header[1:-1]:
            key, _, value = line.partition("=")
            if key.startswith("param."):
                try:
                    fields["params"][key[len("param."):]] = json.loads(value)
                except RecursionError:
                    raise DictionaryFormatError(f"{key} is nested too deeply")
            else:
                fields[key] = value
        try:
            fld = fields["field"]
            m = int(fields["m"])
            N = int(fields["N"])
        except KeyError as exc:
            raise DictionaryFormatError(f"missing header key {exc}")
        if fld not in ("real", "complex"):
            raise DictionaryFormatError(f"unknown field {fld!r}")
        if m < 1 or N < 1:
            raise DictionaryFormatError(f"m and N must be positive, got m={m}, N={N}")
        nbytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if nbytes % 8:
            raise DictionaryFormatError(
                f"payload holds {nbytes} bytes, not a whole number of doubles")
        expect = m * N * (2 if fld == "complex" else 1)
        if nbytes // 8 != expect:
            raise DictionaryFormatError(
                f"payload holds {nbytes // 8} doubles, expected {expect}"
            )
        # the little-endian (re, im) double pairs are the "<c16" layout
        entries = np.empty((m, N), dtype="<c16" if fld == "complex" else "<f8")
        if fh.readinto(entries.reshape(-1).view(np.uint8)) != nbytes:
            raise DictionaryFormatError("file shrank while it was read")
    meta = {"name": fields.get("name", "loaded"), "params": fields["params"],
            "seed": int(fields["seed"]) if "seed" in fields else None}
    try:
        return Dictionary(entries=entries, **meta)
    except FamilyError:     # the columns are refused: say why, or renormalize
        pass
    with np.errstate(over="ignore"):
        norms = np.sqrt(_column_sq_norms(entries))
    if not np.isfinite(norms).all():
        doubles = entries.reshape(-1).view("<f8")
        bad = int(doubles.size - np.isfinite(doubles).sum())
        if bad:
            raise DictionaryFormatError(
                f"{bad} of {doubles.size} payload doubles are not finite")
        overflow = np.flatnonzero(~np.isfinite(norms))
        raise DictionaryFormatError(
            f"the norm of column {overflow[0]} overflows float64 "
            f"({overflow.size} of {N} columns)")
    dev = float(np.abs(norms - 1.0).max())
    warnings.warn(
        f"loaded columns deviate from unit norm by {dev:.3e}; renormalizing",
        stacklevel=2,
    )
    return Dictionary(entries=_normalize_columns(entries), **meta)


def export_csv(d: Dictionary, path) -> None:
    """One CSV row per matrix row; complex entries rendered as a+bi."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in d.entries:
            if d.field == "complex":
                cells = [f"{z.real:.17g}{z.imag:+.17g}i" for z in row]
            else:
                cells = [f"{x:.17g}" for x in row]
            fh.write(",".join(cells) + "\n")


# family -> builder; its signature gives the family's parameters
_FACTORIES = {"gaussian": build_gaussian, "harmonic": build_random_harmonic,
              "chirp": build_chirp, "etf": build_etf_paley,
              "dg": build_delsarte_goethals}


def build_family(family: str, **args) -> Dictionary:
    """Dispatch table used by the command line."""
    if family not in _FACTORIES:
        raise FamilyError(f"unknown family {family!r}; pick from {sorted(_FACTORIES)}")
    build = _FACTORIES[family]
    accepted = inspect.signature(build).parameters
    stray = sorted(set(args) - set(accepted))
    if stray:
        raise FamilyError(f"family {family!r} does not take {stray}; accepted keys: "
                          f"{', '.join(accepted)}")
    for key, value in args.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise FamilyError(f"family {family!r} parameter {key!r} must be an "
                              f"integer, got {value!r}")
    for key, p in accepted.items():
        if p.default is p.empty and key not in args:
            raise FamilyError(f"family {family!r} is missing parameter {key!r}")
    return build(**args)
