"""Statistical isometry / incoherence certification and closed-form sufficient
conditions.

Probability estimates over uniformly random supports come in two flavors:
exhaustive enumeration of all k-subsets (exact, budget-capped) and Monte
Carlo with 99% Clopper-Pearson intervals. Monte Carlo draws come in blocks
of MC_BLOCK trials, one derived rng stream per (seed, property, block), so
the draws of a T-trial call are the first T of any longer call. The
estimators keep the Gram and the per-support tables of the last dictionary
they certified for the next call on it (``_Slot``).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import product
from typing import Optional

import numpy as np

from .dictionaries import Dictionary
from .seeding import check_seed, derive_rng

EXHAUSTIVE_CAP = 10 ** 6
CI_LEVEL = 0.99
# Monte Carlo trials per derived rng stream. Changing it changes every MC draw.
MC_BLOCK = 1024
# bytes of the largest arrays one chunk of b supports builds: StRIP's (m, b, k)
# column gather (with its conjugate copy when complex), or its (b, k, k) Gram
# block, and SINC's (b, k, N) cross-correlation
CHUNK_BYTES = 32 * 2 ** 20


class BudgetError(ValueError):
    """Exhaustive enumeration would exceed EXHAUSTIVE_CAP supports."""


@dataclass
class CertificationReport:
    property: str                 # "strip" | "sinc" | "wsinc"
    params: dict
    method: str                   # "exhaustive" | "monte_carlo"
    trials: int
    successes: int
    estimate: float
    ci: tuple                     # two-sided 99% Clopper-Pearson (degenerate if exhaustive)
    seed: Optional[int] = None
    wsinc_lhs: Optional[float] = None
    wsinc_threshold: Optional[float] = None

    def as_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "property": self.property,
            "params": self.params,
            "method": self.method,
            "trials": self.trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "ci": list(self.ci),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.wsinc_lhs is not None:
            out["wsinc_lhs"] = self.wsinc_lhs
            out["wsinc_threshold"] = self.wsinc_threshold
        return out


def clopper_pearson(successes: int, trials: int, level: float = CI_LEVEL) -> tuple:
    """Two-sided exact binomial confidence interval."""
    if trials < 1:
        raise ValueError("need at least one trial")
    # imported here so that importing stripkit does not load scipy
    from scipy.special import betaincinv
    alpha = 1.0 - level
    lo = 0.0 if successes == 0 else float(
        betaincinv(successes, trials - successes + 1, alpha / 2))
    hi = 1.0 if successes == trials else float(
        betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return (lo, hi)


def sample_support(N: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted uniform k-subset of range(N)."""
    if not (1 <= k <= N):
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    return np.sort(rng.choice(N, size=k, replace=False))


@dataclass
class _Slot:
    """What the estimators know of one dictionary at one k: its Gram (None
    past N = 3000) and ``tables``, which maps "strip" and "sinc" to that
    statistic of every row of ``_enumerate_supports(N, k)``, each built at
    its first read."""
    gram: Optional[np.ndarray]
    k: int
    tables: dict = field(default_factory=dict)


# the slot of the last (dictionary, k) certified, keyed by that dictionary,
# which it never keeps alive; emptied when the dictionary is collected
_last: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _slot(d: Dictionary, k: int) -> _Slot:
    """The slot of (d, k): the last one if it holds this very dictionary at
    k; else a new one, which keeps the last one's Gram when only k changed.
    A ``Dictionary`` is immutable and hashed by identity, so equal copies
    share nothing."""
    slot = _last.get(d)
    if slot is None:
        _last.clear()
        # the full Gram while it still fits comfortably (15-18 ms to form on
        # dg s=2), kept for the next call on this dictionary
        slot = _last[d] = _Slot(d.gram() if d.N <= 3000 else None, k)
    elif slot.k != k:
        slot = _last[d] = _Slot(slot.gram, k)
    return slot


@lru_cache(maxsize=1)
def _enumerate_supports(N: int, k: int) -> np.ndarray:
    """Every k-subset of range(N) as a sorted row, in ``combinations`` order.

    The last table built is kept, read-only, for the next call with the same
    (N, k): at most EXHAUSTIVE_CAP * k * 8 bytes, which the call that built
    it already held. A call past the cap raises every time."""
    total = math.comb(N, k)
    if total > EXHAUSTIVE_CAP:
        raise BudgetError(
            f"C({N},{k}) = {total} exceeds the exhaustive cap {EXHAUSTIVE_CAP}")
    # the last j columns are the j-subsets of range(k - j, N); prefixing a head
    # f takes the tail of those rows whose first index exceeds f
    table = np.arange(k - 1, N, dtype=np.int64)[:, None]
    for lo in range(k - 2, -1, -1):
        heads = np.arange(lo, N - k + lo + 1)
        starts = np.searchsorted(table[:, 0], heads + 1)
        lengths = len(table) - starts
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        table = np.column_stack((np.repeat(heads, lengths),
                                 table[np.arange(len(shift)) + shift]))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1)
def _rank_terms(N: int, k: int) -> tuple:
    """k read-only views; view i holds C(N - 1 - c, k - i) at every index c
    that column i of a sorted support can take, i <= c <= N - k + i. The
    views share one buffer of k (N - k + 1) entries, no more than the
    C(N, k) rows of k that ``_enumerate_supports`` holds."""
    width = N - k + 1
    flat = np.array([math.comb(N - 1 - c, k - i)
                     for i in range(k) for c in range(i, i + width)], dtype=np.int64)
    flat.flags.writeable = False
    # view i starts i (N - k) entries in, so that index c lands on its slot
    return tuple(flat[i * (N - k):] for i in range(k))


def _support_ranks(supports: np.ndarray, N: int) -> Optional[np.ndarray]:
    """Row of each sorted support (B, k) of range(N), as ``_mc_draws`` draws
    them, in ``_enumerate_supports(N, k)``, by the combinatorial number
    system; None unless B > C(N, k), so that some support repeats, and the
    table is within EXHAUSTIVE_CAP. Works one column at a time: numpy runs a
    reduction along the short k axis as B loops of length k."""
    B, k = supports.shape
    total = math.comb(N, k)
    if not (total < B and total <= EXHAUSTIVE_CAP):
        return None
    # the lexicographic rank of c_0 < ... < c_{k-1} is
    # C(N, k) - 1 - sum_i C(N - 1 - c_i, k - i)
    ranks = np.full(B, total - 1, dtype=np.int64)
    for terms, col in zip(_rank_terms(N, k), supports.T):
        ranks -= terms[col]
    return ranks


def _floyd_supports(N: int, k: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` sorted uniform k-subsets of range(N): Floyd's algorithm run on
    every row at once. Column c draws t ~ U[0, j], j = N-k+c, and takes j
    wherever t is already in the row. Memory is O(rows k), whatever N is."""
    sups = np.empty((rows, k), dtype=np.int64)
    taken = np.empty(rows, dtype=bool)
    for c in range(k):
        j = N - k + c
        t = rng.integers(0, j + 1, size=rows)
        taken.fill(False)
        for p in range(c):
            taken |= sups[:, p] == t
        t[taken] = j
        sups[:, c] = t
    sups.sort(axis=1)
    return sups


def _mc_draws(N: int, k: int, seed: int, label: str, trials: int, probe: bool):
    """``trials`` uniform supports (trials, k) and, with ``probe``, a uniform
    index outside each one (else None).

    Block b of MC_BLOCK trials draws its supports, then its outside indices,
    from the stream (seed, label, b). Every block is drawn whole and the last
    one truncated, so a T-trial call sees the first T rows of a longer call.
    """
    sups, probes = [], []
    for b in range(-(-trials // MC_BLOCK)):
        rng = derive_rng(seed, label, b)
        block = _floyd_supports(N, k, rng, MC_BLOCK)
        sups.append(block)
        if probe:
            # r-th index outside the sorted support
            r = rng.integers(0, N - k, size=MC_BLOCK)
            for c in range(k):
                r += block[:, c] <= r
            probes.append(r)
    return (np.concatenate(sups)[:trials],
            np.concatenate(probes)[:trials] if probe else None)


def _chunks(supports: np.ndarray, bytes_per_support: int):
    """(slice, supports[slice]) over the rows of ``supports`` (B, k), as many
    per chunk as keep its largest array within CHUNK_BYTES (at least one)."""
    step = max(1, CHUNK_BYTES // bytes_per_support)
    for lo in range(0, len(supports), step):
        part = slice(lo, lo + step)
        yield part, supports[part]


def hollow_gram_norms(d: Dictionary, supports: np.ndarray,
                      gram: Optional[np.ndarray] = None) -> np.ndarray:
    """Spectral norms of Phi_I^H Phi_I - Id for a batch of supports (B, k)."""
    B, k = supports.shape
    out = np.empty(B)
    eye = np.eye(k)
    copies = 2 if gram is None and np.iscomplexobj(d.entries) else 1
    rows = k if gram is not None else d.m
    for part, sup in _chunks(supports, copies * rows * k * d.entries.itemsize):
        if gram is not None:
            sub = gram[sup[:, :, None], sup[:, None, :]]
        else:
            cols = d.entries[:, sup]                       # (m, b, k)
            sub = np.einsum("mbi,mbj->bij", cols.conj(), cols)
            del cols               # free it before the next chunk's is built
        vals = np.linalg.eigvalsh(sub - eye)
        out[part] = np.maximum(np.abs(vals[:, 0]), np.abs(vals[:, -1]))
    return out


def _sinc_stats(d: Dictionary, supports: np.ndarray, gram, probes=None):
    """Worst outside-column energy max_{i not in I} ||Phi_I^H phi_i||^2 of each
    support (B, k), and the energy at each of ``probes`` (B,) if given."""
    B, k = supports.shape
    worst = np.empty(B)
    at_probe = None if probes is None else np.empty(B)
    for part, sup in _chunks(supports, k * d.N * d.entries.itemsize):
        if gram is not None:
            cross = gram[sup, :]                           # (b, k, N)
        else:
            cross = (d.entries[:, sup.ravel()].conj().T @ d.entries).reshape(-1, k, d.N)
        if np.iscomplexobj(cross):
            cross = np.abs(cross)
        col_sq = np.square(cross, out=cross).sum(axis=1)  # (b, N)
        del cross                  # free it before the next chunk's is built
        if probes is not None:
            at_probe[part] = col_sq[np.arange(len(sup)), probes[part]]
        np.put_along_axis(col_sq, sup, -np.inf, axis=1)
        worst[part] = col_sq.max(axis=1)
    return worst, at_probe


def _per_support(slot: _Slot, kind: str, d: Dictionary, supports: np.ndarray,
                 rows) -> np.ndarray:
    """StRIP norms (``kind`` "strip") or SINC worst energies ("sinc") of each
    support (B, k): with ``rows``, those rows of the slot's table, built at
    its first read; with ``rows`` None, the kernel run on ``supports``."""
    def kernel(sups):
        if kind == "strip":
            return hollow_gram_norms(d, sups, slot.gram)
        return _sinc_stats(d, sups, slot.gram)[0]
    if rows is None:
        return kernel(supports)
    if kind not in slot.tables:
        table = kernel(_enumerate_supports(d.N, slot.k))
        table.flags.writeable = False
        slot.tables[kind] = table
    return slot.tables[kind][rows]


def _probe_energies(gram: np.ndarray, supports: np.ndarray,
                    probes: np.ndarray) -> np.ndarray:
    """||Phi_I^H phi_i||^2 of each support (B, k) at its probe (B,), read off
    the Gram. The k terms are added one column at a time, in order, as
    ``_sinc_stats`` adds them along the k axis of its (b, k, N) chunk; a sum
    along the last axis of a (B, k) gather would pair them otherwise."""
    energy = np.zeros(len(supports))
    for col in supports.T:
        energy += np.square(np.abs(gram[col, probes]))
    return energy


def _estimate(prop: str, d: Dictionary, k: int, k_max: int, params: dict,
              statistic, method: str, trials: int, seed: int,
              probe: bool = False) -> CertificationReport:
    """Probability over uniform k-subsets that ``statistic`` flags a success.

    ``statistic(slot, supports, rows, probes)`` returns a boolean success
    per support and per-support weights (or None); weights average into
    ``wsinc_lhs``. ``slot`` is ``_slot(d, k)``, and ``rows`` each support's
    row in ``_enumerate_supports(d.N, k)``: all of them when exhaustive, the
    ranks when Monte Carlo draws repeat supports, else None. A None
    statistic means the property holds vacuously.
    """
    if not (1 <= k <= k_max):
        raise ValueError(f"need 1 <= k <= {k_max}, got k={k}")
    if not all(map(math.isfinite, params.values())):
        raise ValueError(f"{prop} parameters must be finite: {params}")
    if method not in ("exhaustive", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}")
    mc = method == "monte_carlo"
    if mc:
        if trials < 1:
            raise ValueError("need at least one trial")
        check_seed(seed)        # a vacuous estimate draws nothing, yet reports it
    if statistic is None:
        return CertificationReport(prop, params, method, 1, 1, 1.0, (1.0, 1.0),
                                   seed=seed if mc else None)
    if mc:
        sups, probes = _mc_draws(d.N, k, seed, prop, trials, probe)
        rows = _support_ranks(sups, d.N)
    else:
        sups, probes, rows = _enumerate_supports(d.N, k), None, slice(None)
    hit, weight = statistic(_slot(d, k), sups, rows, probes)
    n, hits = hit.size, int(hit.sum())
    est = hits / n
    return CertificationReport(
        prop, params, method, n, hits, est,
        clopper_pearson(hits, n) if mc else (est, est), seed=seed if mc else None,
        wsinc_lhs=None if weight is None else float(weight.sum() / n))


def strip_estimate(d: Dictionary, k: int, delta: float, method: str = "monte_carlo",
                   trials: int = 10_000, seed: int = 0) -> CertificationReport:
    """P over uniform k-subsets I of ||Phi_I^H Phi_I - Id|| <= delta."""
    def statistic(slot, sups, rows, _):
        return _per_support(slot, "strip", d, sups, rows) <= delta, None
    return _estimate("strip", d, k, d.N, {"k": k, "delta": delta}, statistic,
                     method, trials, seed)


def sinc_estimate(d: Dictionary, k: int, alpha: float, method: str = "monte_carlo",
                  trials: int = 10_000, seed: int = 0) -> CertificationReport:
    """P over uniform k-subsets I of max_{i not in I} ||Phi_I^H phi_i||^2 <= alpha."""
    def statistic(slot, sups, rows, _):
        return _per_support(slot, "sinc", d, sups, rows) <= alpha, None
    # k = N leaves no outside column: the condition is vacuous
    return _estimate("sinc", d, k, d.N, {"k": k, "alpha": alpha},
                     None if k == d.N else statistic, method, trials, seed)


def _square(value: float, name: str, expr: str) -> float:
    """value ** 2, or a ValueError naming ``name`` when it overflows."""
    try:
        return value ** 2
    except OverflowError:
        raise ValueError(f"{name} is out of range: {expr} overflows") from None


def wsinc_weight(delta: float, t):
    """Discount factor exp(-(1-delta)^2 / (8 t^2)), elementwise; at t = 0 it
    is 0 (1 when delta >= 1)."""
    gap_sq = _square(1.0 - delta, "delta", "(1 - delta)^2")
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.exp(-gap_sq / (8.0 * t * t))
    w = np.where(t > 0.0, w, 0.0 if delta < 1.0 else 1.0)
    return w if w.ndim else float(w)


def wsinc_estimate(d: Dictionary, k: int, delta: float, alpha: float,
                   trials: int = 10_000, seed: int = 0,
                   eps: Optional[float] = None) -> CertificationReport:
    """Monte Carlo estimate of the weighted incoherence sum.

    Samples a uniform support I plus a uniform extra index i outside it and
    averages 1{I violates the alpha-incoherence} * weight(delta, ||Phi_I^H phi_i||).
    ``successes`` counts the violation events themselves, so the plain
    estimate is P(I in A_alpha); at delta = 1 the weighted sum equals it.
    """
    if eps is not None and not math.isfinite(eps):
        raise ValueError("eps must be finite")
    _square(1.0 - delta, "delta", "(1 - delta)^2")    # before any sampling
    eps_sq = None if eps is None else _square(eps, "eps", "eps^2")

    def statistic(slot, sups, rows, probes):
        if slot.gram is None:
            worst, energy = _sinc_stats(d, sups, None, probes)
        else:
            worst = _per_support(slot, "sinc", d, sups, rows)
            energy = _probe_energies(slot.gram, sups, probes)
        violated = worst > alpha
        return violated, np.where(violated, wsinc_weight(delta, np.sqrt(energy)), 0.0)
    rep = _estimate("wsinc", d, k, d.N - 1, {"k": k, "delta": delta, "alpha": alpha},
                    statistic, "monte_carlo", trials, seed, probe=True)
    rep.wsinc_threshold = None if eps is None else eps_sq / (d.N - k)
    return rep


# ---------------------------------------------------------------------------
# closed-form sufficient conditions

@dataclass
class SufficientConditionVerdict:
    condition: str
    inputs: dict
    satisfied: bool
    slack: dict                   # per-inequality margin, RHS - LHS
    derived: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}


def _verdict(condition, inputs, slack, derived=None):
    derived = derived or {}
    values = [*slack.values()] + [x for v in derived.values()
                                  for x in (v.values() if isinstance(v, dict) else [v])]
    if not all(map(math.isfinite, values)):    # it would not serialize
        raise ValueError(f"{condition}: inputs {inputs} give a non-finite margin")
    ok = all(v >= 0 for v in slack.values())
    return SufficientConditionVerdict(condition, inputs, ok, slack, derived)


def _need_positive(**values):
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"need {name} > 0")


def _need_nonnegative(**values):
    # no coherence, moment or distortion is negative; squared or subtracted,
    # a negative one would turn into a passing margin
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"need {name} >= 0")


_A_LATTICE = tuple(float(a) for a in np.geomspace(1e-4, 1 - 1e-4, 41))
_ABC_LATTICE = np.geomspace(1e-6, 0.99, 12)


def _best_on_lattice(evaluate, key, *axes):
    """The verdict ``evaluate(*point)`` over the product of ``axes`` whose
    worst entry of ``derived[key]`` is largest; the first such point wins."""
    return max((evaluate(*point) for point in product(*axes)),
               key=lambda v: min(v.derived[key].values()))


def _ratio(rhs: float, lhs: float) -> float:
    # capped so payloads stay strict JSON (no Infinity literals)
    if lhs <= 0:
        return 1e300
    return min(rhs / lhs, 1e300)


def sinc_sufficient(mu: float, theta: float, k: int, N: int, eps: float,
                    a: Optional[float] = 0.5,
                    beta: float = 1.0) -> SufficientConditionVerdict:
    """Coherence-moment test implying the (k, alpha, eps)-SINC property with
    alpha = beta / ln(2N/eps).

    ``a`` splits the budget between the two moment inequalities; passing
    ``None`` searches it for the best worst-case margin.
    """
    _need_positive(k=k, N=N)
    _need_nonnegative(mu=mu, theta=theta)
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    if a is None:
        return _best_on_lattice(
            lambda aa: sinc_sufficient(mu, theta, k, N, eps, aa, beta),
            "margin_ratio", _A_LATTICE)
    if not (0 < a < 1) or beta <= 0:
        raise ValueError("need 0 < a < 1 and beta > 0")
    L = math.log(2 * N / eps)
    rhs1 = (1 - a) ** 2 * beta ** 2 / (32 * k * L ** 3)
    rhs2 = a * beta / (k * L)
    slack = {"mu4": rhs1 - mu ** 4, "theta": rhs2 - theta}
    return _verdict("sinc_coherence",
                    {"mu": mu, "theta": theta, "k": k, "N": N, "eps": eps,
                     "a": a, "beta": beta},
                    slack,
                    {"alpha": beta / L,
                     "margin_ratio": {"mu4": _ratio(rhs1, mu ** 4),
                                      "theta": _ratio(rhs2, theta)}})


def sinc_tail_sufficient(mu: float, theta: float, k: int, alpha: float,
                         beta: float, a: float = 0.5) -> SufficientConditionVerdict:
    """Tail variant: under the two moment bounds, the chance that a random
    support accumulates squared coherence above alpha is at most 2 e^{-beta/alpha}."""
    _need_positive(k=k)
    _need_nonnegative(mu=mu, theta=theta)
    if not (0 < a < 1) or alpha <= 0 or beta <= 0:
        raise ValueError("need 0 < a < 1 and positive alpha, beta")
    slack = {
        "alpha_range": beta / math.log(2) - alpha,
        "mu4": (1 - a) ** 2 * alpha ** 3 / (32 * beta * k) - mu ** 4,
        "ktheta": a * alpha - k * theta,
    }
    return _verdict("sinc_tail",
                    {"mu": mu, "theta": theta, "k": k, "alpha": alpha,
                     "beta": beta, "a": a},
                    slack, {"tail_bound": 2 * math.exp(-beta / alpha)})


def strip_sufficient_via_sinc(mu: float, theta: float, k: int, delta: float,
                              eps1: float,
                              a: Optional[float] = 0.5) -> SufficientConditionVerdict:
    """StRIP through the incoherence route; admits mu up to order k^(-3/4)."""
    _need_positive(k=k)
    _need_nonnegative(mu=mu, theta=theta, delta=delta)
    if not 0 < eps1 < 1:        # a failure probability
        raise ValueError("need 0 < eps1 < 1")
    if a is None:
        return _best_on_lattice(
            lambda aa: strip_sufficient_via_sinc(mu, theta, k, delta, eps1, aa),
            "margin_ratio", _A_LATTICE)
    if not (0 < a < 1):
        raise ValueError("need 0 < a < 1")
    rhs1 = a * delta ** 2 / k ** 2
    rhs2 = (1 - a) ** 2 * delta ** 4 / (32 * k ** 3 * math.log(2 * k / eps1))
    slack = {"theta": rhs1 - theta, "mu4": rhs2 - mu ** 4}
    return _verdict("strip_via_sinc",
                    {"mu": mu, "theta": theta, "k": k, "delta": delta,
                     "eps1": eps1, "a": a},
                    slack,
                    {"margin_ratio": {"theta": _ratio(rhs1, theta),
                                      "mu4": _ratio(rhs2, mu ** 4)}})


def strip_sufficient_direct(mu: float, theta: float, k: int, N: int,
                            frame_norm: float, delta: float, eps: float,
                            a: Optional[float] = None, b: Optional[float] = None,
                            c: Optional[float] = None) -> SufficientConditionVerdict:
    """Direct StRIP condition; admits mu up to order (k log k log^3(1/eps))^(-1/4).

    With any of a, b, c omitted, grid-searches the omitted constants over a
    log lattice, keeping the given ones, and returns the triple with the best
    worst-case normalized slack.
    """
    _need_positive(k=k, N=N)
    _need_nonnegative(mu=mu, theta=theta, frame_norm=frame_norm, delta=delta)
    eps_max = min(1.0 / k, math.exp(1 - 1 / math.log(2)))
    if not (0 < eps < eps_max):
        raise ValueError(f"need 0 < eps < {eps_max:.4g}")
    if a is None or b is None or c is None:
        return _best_on_lattice(
            lambda aa, bb, cc: strip_sufficient_direct(mu, theta, k, N, frame_norm,
                                                       delta, eps, aa, bb, cc),
            "normalized_slack",
            *(_ABC_LATTICE if x is None else (x,) for x in (a, b, c)))
    if not all(0 < x < 1 for x in (a, b, c)):
        raise ValueError("need a, b, c in (0, 1)")
    L1 = math.log(1 / eps)
    lhs1 = k * mu ** 4
    rhs1 = min((1 - a) ** 2 * b ** 2 / (32 * math.log(2 * k) * math.log(math.e / eps)),
               c ** 2) / L1 ** 2
    lhs2 = k * theta
    rhs2 = a * b / L1
    lhs3 = math.sqrt(a) + math.sqrt(2 * a * b) + math.sqrt(c) \
        + 2 * k * frame_norm ** 2 / N
    rhs3 = math.exp(-0.25) * delta / (6 * math.sqrt(2))
    slack = {"kmu4": rhs1 - lhs1, "ktheta": rhs2 - lhs2, "constants": rhs3 - lhs3}
    norm_slack = {
        "kmu4": (rhs1 - lhs1) / max(rhs1, lhs1, 1e-300),
        "ktheta": (rhs2 - lhs2) / max(rhs2, lhs2, 1e-300),
        "constants": (rhs3 - lhs3) / max(rhs3, lhs3, 1e-300),
    }
    return _verdict("strip_coherence",
                    {"mu": mu, "theta": theta, "k": k, "N": N,
                     "frame_norm": frame_norm, "delta": delta, "eps": eps,
                     "a": a, "b": b, "c": c},
                    slack, {"normalized_slack": norm_slack})


def oa_strip_required_m(l: int, k: int, delta: float, eps: float) -> float:
    """Rows needed for StRIP via a strength-l orthogonal array."""
    if l < 2 or l % 2:
        raise ValueError("need even l >= 2")
    _need_positive(k=k, delta=delta, eps=eps)
    if eps >= 1:
        raise ValueError("need eps < 1")
    return 0.75 * l * (k / delta) ** 2 * (k / eps) ** (2.0 / l)


def oa_strip_sufficient(l: int, k: int, delta: float, eps: float,
                        m: int) -> SufficientConditionVerdict:
    _need_positive(m=m)
    required = oa_strip_required_m(l, k, delta, eps)
    return _verdict("strip_oa",
                    {"l": l, "k": k, "delta": delta, "eps": eps, "m": m},
                    {"rows": m - required}, {"required_m": required})


def dg_sparsity_bound(m: int, delta: float, eps: float,
                      constant: float = 0.52) -> float:
    """Max sparsity certified for the bipolar Kerdock-family dictionaries.

    ``constant`` = 0.52 is the generic strength-7 moment route; 0.95 uses the
    exact sixth-moment of the r=1 member (its eps = 0.001 specialization is
    the usual 0.35 delta^(6/7) m^(3/7) form).
    """
    _need_positive(m=m, eps=eps, constant=constant)
    if eps >= 1:
        raise ValueError("need eps < 1")
    _need_nonnegative(delta=delta)
    return constant * (delta ** 6 * eps * m ** 3) ** (1.0 / 7.0)


def gershgorin_sufficient(mu: float, k: int, delta: float) -> SufficientConditionVerdict:
    """Deterministic floor: coherence mu makes every k-subset (k-1)mu-isometric."""
    _need_positive(k=k)
    _need_nonnegative(mu=mu, delta=delta)
    return _verdict("gershgorin", {"mu": mu, "k": k, "delta": delta},
                    {"delta": delta - (k - 1) * mu})


def dg_sparsity_sufficient(m: int, delta: float, eps: float, k: int,
                           constant: float = 0.52) -> SufficientConditionVerdict:
    """Verdict form of the Kerdock-family sparsity ceiling."""
    bound = dg_sparsity_bound(m, delta, eps, constant)
    return _verdict("dg_sparsity",
                    {"m": m, "delta": delta, "eps": eps, "k": k,
                     "constant": constant},
                    {"k": bound - k}, {"max_k": bound})


EVALUATORS = {
    "sinc-coherence": sinc_sufficient,
    "sinc-tail": sinc_tail_sufficient,
    "strip-via-sinc": strip_sufficient_via_sinc,
    "strip-coherence": strip_sufficient_direct,
    "strip-oa": oa_strip_sufficient,
    "gershgorin": gershgorin_sufficient,
    "dg-sparsity": dg_sparsity_sufficient,
}
