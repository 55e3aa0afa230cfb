"""Basis Pursuit and Lasso solvers with verifiable optimality certificates.

Basis Pursuit runs operator-splitting (ADMM; Boyd et al. 2011) on the
constrained form with an exact projection onto {x : ||Phi x - y|| <= eps}.
The projection diagonalizes Phi Phi^T once and finds its multiplier by a
safeguarded Newton solve of the secular equation, returning the feasible end
of its bracket, or the minimum-norm correction where the multiplier leaves
float arithmetic (a tiny eps). Convergence is certified a posteriori through
an independently constructed dual-feasible point, so ``converged=True`` always
means a verified duality gap, never just small iterate motion. Polishing
tries a refit on the detected support before the raw iterate and stops at
the first certified candidate. The sign fit of a dense iterate (a support of
more than m columns) is one m x m solve of (A_S A_S^T) nu = A_S s, where
A_S A_S^T is the cached frame operator less the complement's columns once S
holds half of them; a support of every column reads the frame's eigenpairs,
and a rank-deficient frame takes a pseudo-inverse. Without noise the refit
is least squares. With
eps > 0 it is the exact optimum of BP restricted to the support and signs,
the least-squares fit moved onto the ball's boundary, and the support grows
by any column the residual correlates with more strongly than with the
support; the scaled residual then certifies it as soon as ADMM has the
support in view. ``info`` records the duality gap, which candidate was
certified (``certified_by``) and the number of polish calls. Both solvers
read the eigenpairs of Phi Phi^T from the dictionary's cached ``frame``.
One ADMM kernel solves every column of an m x T observation matrix at once:
its unsettled columns are held as rows, each step makes two block products
with Phi and small ones with the eigenbasis, in preallocated buffers, and
each column is polished on its own on the CHECK_EVERY schedule and leaves
the block when it certifies, meets the 1e-13 stop or reaches the cap;
``basis_pursuit`` is its one-column call, which runs the very products of a
one-vector loop.
Lasso runs accelerated proximal gradient at the fixed step 1/L, L the
largest of those eigenvalues, restarts its momentum when the step turns
against it, and is accepted only on a coordinatewise subgradient check,
made every 10th iteration. One FISTA kernel solves every column of an
m x T observation matrix at once with two matrix products per step, in
preallocated buffers; each column keeps its own momentum, read from a table
by its steps since its last restart, and is taken at its first passing
check, so iterations and non-convergence are reported per column. At each
check a block whose width is a multiple of LASSO_GROUP (8) narrows to its
unsettled columns in whole groups of 8, settled columns padding the last
group: BLAS rounds a row of the products the same at every such width, so
no float of a column moves. ``lasso`` is its one-column call; ``lam=None``
is the standard 2 sqrt(2 ln N).

One least-squares fit on a support (its normal equations) serves the polish,
the sign certificate (Fuchs 2004) and both off-support terms of the Lasso
conditions (Candes & Plan 2009); the last two share one support check and
one rule for a support Gram that cannot be inverted.

The numerics are module constants, not options: the iteration cap
``MAX_ITER``; BP's ``RHO``, ``OVER_RELAX``, polish period ``CHECK_EVERY``,
``SUPPORT_THRESHOLD`` (10 ``FEAS_TOL``) and acceptance tolerances
``FEAS_TOL`` (ball) and ``OBJ_TOL`` (relative gap); Lasso's ``KKT_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .dictionaries import Dictionary, frame_spectrum
if TYPE_CHECKING:     # signals imports this module for its sigma rule
    from .signals import SignalInstance

CONDITION_LIMIT = 1e12
MAX_ITER = 100_000
FEAS_TOL = 1e-8
OBJ_TOL = 1e-8
KKT_TOL = 1e-8
RHO = 1.0
OVER_RELAX = 1.8
CHECK_EVERY = 25
SUPPORT_THRESHOLD = 10.0 * FEAS_TOL
SOLVERS = ("bp", "lasso")
MAGNITUDE_MODELS = ("unit", "uniform", "compressible")
# A Lasso block narrows only to a multiple of LASSO_GROUP rows, settled rows
# padding the last group, so that no unsettled row's floats move. OpenBLAS
# 0.3.31 (Haswell kernels) rounds a row of v @ A^T or r @ A the same at every
# multiple of 8 rows on dg s=1, dg s=2, Gaussian 30 x 500 and 64 x 2048, but
# not always elsewhere: width 1 runs gemv, every width below 8 differs on
# 64 x 2048, and most widths off a multiple of 4 differ on 30 x 500.
LASSO_GROUP = 8


class SolverInputError(ValueError):
    pass


def check_recovery_inputs(*, sigma=None, lam=None, eps_noise=None, eps=None,
                          bound_tol=None, solver=None, magnitudes=None, p=None,
                          trials=None, names=None) -> None:
    """Each recovery-parameter rule, picked by keyword: sigma, the BP noise
    radius eps_noise and bound_tol are finite and >= 0, lam and the
    compressible decay exponent p finite and > 0 (p for every magnitude
    model), the error bound's failure probability eps in (0, 1), solver one
    of SOLVERS, "lasso" needs sigma > 0, the magnitude model one of
    MAGNITUDE_MODELS, and there is at least one trial. None skips an input;
    ``names`` renames one in messages."""
    names = names or {}
    for key, value in (("sigma", sigma), ("lam", lam), ("eps_noise", eps_noise),
                       ("bound_tol", bound_tol), ("p", p)):
        if value is None:
            continue
        if not math.isfinite(value):
            raise SolverInputError(f"{names.get(key, key)} must be finite")
        positive = key in ("lam", "p")
        if value < 0 or positive and value == 0:
            rule = "positive" if positive else "nonnegative"
            raise SolverInputError(f"{names.get(key, key)} must be {rule}")
    if eps is not None and not 0 < eps < 1:
        raise SolverInputError(f"{names.get('eps', 'eps')} must be in (0, 1)")
    if solver is not None and solver not in SOLVERS:
        raise SolverInputError(f"unknown solver {solver!r}")
    if solver == "lasso" and sigma == 0:
        raise SolverInputError("sigma must be positive (the penalty degenerates)")
    if magnitudes is not None and magnitudes not in MAGNITUDE_MODELS:
        raise SolverInputError(f"unknown magnitude model {magnitudes!r}")
    if trials is not None and trials < 1:
        raise SolverInputError("need at least one trial")


@dataclass
class RecoveryResult:
    x_hat: np.ndarray
    converged: bool
    iterations: int
    objective: float
    feas_residual: float          # max(0, ||Phi x - y|| - eps)
    kkt_residual: float
    err_on_l2: Optional[float] = None
    err_off_l1: Optional[float] = None
    bound_on: Optional[float] = None
    bound_off: Optional[float] = None
    info: dict = field(default_factory=dict)


@dataclass
class Certificate:
    v: Optional[np.ndarray]
    sup_off: float
    gram_conditioning: float      # lambda_max / lambda_min of the support Gram
    valid: bool


def _require_real(d: Dictionary):
    if d.field != "real":
        raise SolverInputError(
            "complex dictionary: apply realify() before solving")


def _observation(d: Dictionary, y, name: str = "y") -> np.ndarray:
    """y as a finite float vector of length m, else a ``SolverInputError``
    naming it as ``name``."""
    y = np.asarray(y, dtype=float)
    if y.shape != (d.m,):
        raise SolverInputError(f"{name} has shape {y.shape}, expected ({d.m},)")
    if not np.isfinite(y).all():
        raise SolverInputError(f"{name} must be finite")
    return y


def _soft(v: np.ndarray, t: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Soft threshold: v - t sign(v) where |v| > t, zero elsewhere; written
    into ``out`` (not v) when given."""
    out = np.maximum(v, -t, out=out)
    np.minimum(out, t, out=out)
    return np.subtract(v, out, out=out)


_MOMENTUM = np.zeros(0)


def _momentum_table(n: int) -> np.ndarray:
    """FISTA's momentum (t_c - 1) / t_(c+1) for c = 0, 1, ... (at least n
    terms), t_0 = 1 and t_(c+1) = (1 + sqrt(1 + 4 t_c^2)) / 2 in float64, the
    floats of the per-row recurrence. A pure function of c, so one read-only
    table serves every call; it grows by doubling, never at import."""
    global _MOMENTUM
    if _MOMENTUM.size < n:
        terms, t = [], 1.0
        for _ in range(max(n, 2 * _MOMENTUM.size)):
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            terms.append((t - 1.0) / t_next)
            t = t_next
        _MOMENTUM = np.array(terms)
        _MOMENTUM.flags.writeable = False
    return _MOMENTUM


def _range_solve(w: np.ndarray, v: np.ndarray, mask: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """(A A^T)^+ b for a vector b or each row of b, from the eigenpairs of
    A A^T, directions off the mask dropped (divided by inf)."""
    return (b @ v / np.where(mask, w, np.inf)) @ v.T


def _row_dots(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p[j] @ q[j] for every row j, each by the same BLAS dot as 1-d ``@``."""
    return np.vecdot(p, q)


def _row_norms(p: np.ndarray) -> np.ndarray:
    """np.linalg.norm(p[j]) for every row j, each by the same BLAS dot."""
    return np.sqrt(_row_dots(p, p))


def _multiplier(w: np.ndarray, dt: np.ndarray, eps: float) -> float:
    """The lam >= 0 with ||dt / (1 + lam w)|| = eps, to within
    1e-15 * max(1, lam) and on its feasible side (needs eps < ||dt||), for
    the ascending eigenvalues w of ``frame_spectrum``.

    As lam grows the residual falls to the mass of dt on the zero
    eigenvalues (those off the spectrum's mask): an eps at or below that
    mass is refused. Safeguarded Newton on the secular equation
    phi(lam) = 1/||dt / (1 + lam w)|| - 1/eps, which is increasing and
    concave, so a step from the infeasible side stays infeasible and
    converges monotonically. The bracket [lo, hi] has lo infeasible and
    hi feasible; a step that leaves it falls back to bisection (or to
    growing lo while no feasible point is known). Returns hi, or the limit
    inf, where the projection is the minimum-norm correction, once lam is
    past float arithmetic: 1/eps overflows (a subnormal eps), every term of
    the residual underflows to zero, the next lam w overflows, or no float
    lam is found to reach eps.
    """
    eps, top = float(eps), float(w[-1])
    floor = 1e-14 * top         # frame_spectrum's mask keeps w above it
    if w[0] <= floor and float(np.linalg.norm(dt[w <= floor])) >= eps:
        raise SolverInputError("projection failed: eps is not above the "
                               "residual outside the range of Phi")
    target = 1.0 / eps
    if target == math.inf:
        return math.inf
    lo, hi, lam = 0.0, math.inf, 0.0
    probe = 0.5e-15     # relative width of a probe past a converged step
    for _ in range(200):
        den = 1.0 + lam * w
        qq = (dt / den) ** 2
        f = float(qq.sum())
        if f == 0.0:
            return math.inf
        r = math.sqrt(f)
        feasible = r <= eps
        if feasible:
            hi = lam
        else:
            lo = lam
        if hi < math.inf and hi - lo <= 1e-15 * max(1.0, hi):
            break
        fr = f * r        # underflows to zero near a tiny eps
        slope = float((qq * w / den).sum()) / fr if fr > 0.0 else 0.0
        nxt = lam + ((target - 1.0 / r) / slope if slope > 0.0 else math.inf)
        # a step within the probe width means the root is within reach:
        # probe just past it, to the other side of the bracket; the width
        # doubles per probe, so a stretch where the float residual is flat
        # is crossed in a few steps
        if nxt >= hi or (feasible and nxt > hi - 0.5 * probe * max(1.0, hi)):
            nxt = hi - probe * max(1.0, hi)
            probe *= 2.0
        elif not feasible and nxt < lo + 0.5 * probe * max(1.0, lo):
            nxt = lo + probe * max(1.0, lo)
            probe *= 2.0
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 4.0 * max(lo, 0.25)
        if nxt * top == math.inf:
            return math.inf
        lam = nxt
    return hi


def _project(a: np.ndarray, spectrum, y: np.ndarray, eps: np.ndarray,
             rows: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of each row of the T x n ``rows`` onto
    {x : ||A x - y_j|| <= eps_j}, for the rows y_j of the T x m ``y`` and the
    T ``eps``, all zero or all positive; ``spectrum`` is
    ``frame_spectrum(a)``. With eps zero the caller has checked that each
    y_j is in the range of A."""
    w, v, mask = spectrum
    d = rows @ a.T - y
    inside = _row_norms(d) <= eps      # rows already in their ball stay
    coef = d @ v
    if not eps.any():
        # the minimum-norm correction, in the range of A A^T
        coef /= np.where(mask, w, np.inf)
    else:
        for dt, e, stays in zip(coef, eps, inside):
            if not stays:
                lam = _multiplier(w, dt, e)
                if lam < math.inf:
                    np.divide(lam * dt, 1.0 + lam * w, out=dt)
                else:       # the minimum-norm correction, as at eps zero
                    dt /= np.where(mask, w, np.inf)
    out = rows - (coef @ v.T) @ a
    if np.count_nonzero(inside):
        out[inside] = rows[inside]
    return out


def _support_fit(a: np.ndarray, support, r: np.ndarray):
    """(c, A_S c) for c solving (A_S^T A_S) c = r, A_S = a[:, support]; A_S c
    is the least-squares sign certificate when r is a sign pattern."""
    sub = a[:, support]
    coef = np.linalg.solve(sub.T @ sub, r)
    return coef, sub @ coef


def _off_support_max(v: np.ndarray, support) -> float:
    """max |v_j| over the j outside ``support``, 0 when there is none."""
    off = np.delete(v, support)
    return float(np.abs(off).max()) if off.size else 0.0


def _dense_sign_fit(a: np.ndarray, frame, support: np.ndarray,
                    sgn: np.ndarray) -> np.ndarray:
    """The least-squares nu of A_S^T nu = sgn on a support S of more than m
    columns, (A_S A_S^T) nu = A_S sgn; ``frame`` is ``frame_spectrum(a)``.

    A support of every column reads the eigenpairs of ``frame``. Otherwise,
    on a full-rank frame, A_S A_S^T is the frame operator V diag(w) V^T less
    A_c A_c^T for the complement c when S holds at least half the columns,
    else formed from A_S, and one solve gives nu. A rank-deficient frame, or
    a singular A_S A_S^T (a ``LinAlgError``), takes the pseudo-inverse
    through the eigenpairs of A_S A_S^T. Any nu is a dual point once
    ``_dual_gap`` scales it, so only the tightness of the bound depends on
    the route.
    """
    s_full = np.zeros(a.shape[1])
    s_full[support] = sgn
    rhs = a @ s_full
    w, v, mask = frame
    if support.size == a.shape[1]:
        return _range_solve(w, v, mask, rhs)
    if mask.all():
        if 2 * support.size >= a.shape[1]:
            comp = np.delete(a, support, axis=1)
            gram = (v * w) @ v.T - comp @ comp.T
        else:
            sub = a[:, support]
            gram = sub @ sub.T
        try:
            return np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            pass
    return _range_solve(*frame_spectrum(a[:, support]), rhs)


def _dual_gap(a: np.ndarray, frame, y: np.ndarray, eps: float, x: np.ndarray,
              support: np.ndarray, extra_nu=None) -> float:
    """Duality gap against the best of several constructed dual-feasible points.

    Dual: maximize <y, nu> - eps ||nu|| over ||A^T nu||_inf <= 1. Candidates:
    the least-squares sign certificate on the detected support, the scaled
    residual direction, and (when supplied) the splitting iteration's own
    dual variable lifted through the frame operator. ``frame`` is
    ``frame_spectrum(a)``. A support of more than m columns (a dense iterate)
    is fitted by ``_dense_sign_fit``: one m x m solve, no eigendecomposition
    on a full-rank frame.
    """
    obj = float(np.abs(x).sum())
    best = 0.0
    candidates = []
    if support.size:
        sgn = np.sign(x[support])
        try:
            if support.size <= a.shape[0]:
                _, nu = _support_fit(a, support, sgn)
            else:
                nu = _dense_sign_fit(a, frame, support, sgn)
            candidates.append(nu)
        except np.linalg.LinAlgError:
            pass
    r = y - a @ x
    rn = np.linalg.norm(r)
    if rn > 0:
        candidates.append(r / rn)
    if extra_nu is not None:
        candidates.append(extra_nu)
    for nu in candidates:
        scale = np.abs(a.T @ nu).max()
        if scale <= 0:
            continue
        nu = nu / scale     # dual value is positively homogeneous: go to the boundary
        val = float(y @ nu) - eps * float(np.linalg.norm(nu))
        best = max(best, val)
    return max(obj - best, 0.0)   # weak duality; negatives are float dust


def basis_pursuit(d: Dictionary, y: np.ndarray, eps_noise: float) -> RecoveryResult:
    """min ||x||_1 subject to ||Phi x - y||_2 <= eps_noise.

    Returns a feasible point whose objective is certified within OBJ_TOL of
    optimal by an explicit dual-feasible point; non-convergence inside the
    iteration cap is reported, never silently accepted.
    """
    _require_real(d)
    y = _observation(d, y)
    check_recovery_inputs(eps_noise=eps_noise)
    return _bp_columns(d, y[None], eps_noise)[0]


def _bp_columns(d: Dictionary, ys: np.ndarray, eps_noise: float) -> list:
    """``basis_pursuit`` of every row of the T x m matrix ``ys`` at the
    one ``eps_noise``, as T results; the caller has checked d, eps_noise and ys.
    At eps_noise = 0 a row outside the range of Phi is a ``SolverInputError``.

    One ADMM runs over the unsettled rows with two block products per step,
    in buffers allocated once per block width. Each row is polished on its
    own on the CHECK_EVERY schedule and leaves the block when it certifies,
    meets the 1e-13 stop or reaches MAX_ITER, so its iterations, polish calls
    and convergence are its own. Settled rows leave the block as in
    ``_lasso_columns``, but at once, not in groups of LASSO_GROUP, so a row's
    floats depend on its own row and on the rows still beside it at each
    step: a gemm rounds a row by the block's width. A support refit depends
    only on the support and signs it was fitted on, which are read off the
    iterate. T = 1 runs the very gemv and dot calls of a one-vector loop.
    """
    a = d.entries
    spectrum = d.frame
    rows = np.ascontiguousarray(ys)
    width = rows.shape[0]
    yn = _row_norms(rows)
    out = [None] * width
    trivial = yn <= eps_noise       # x = 0 is optimal (eps_noise >= 0)
    for j in np.flatnonzero(trivial):
        out[j] = RecoveryResult(np.zeros(d.N), True, 0, 0.0,
                                max(0.0, float(yn[j]) - eps_noise), 0.0)
    live = np.flatnonzero(~trivial)
    if not live.size:
        return out
    # scale-normalize so tolerances and rho act on unit-size problems
    ys = rows[live] / yn[live, None]
    es = eps_noise / yn[live]
    if not es.any():
        # A x - y has the null part of -y whatever x is, so y out of the
        # range of A leaves the set empty
        w, v, mask = spectrum
        null_mass = _row_norms(ys @ v[:, ~mask])
        if (null_mass > 1e-9 * np.maximum(1.0, _row_norms(ys))).any():
            raise SolverInputError("y is not in the range of Phi; eps=0 infeasible")
    z = _project(a, spectrum, ys, es, np.zeros((live.size, d.N)))
    u = np.zeros_like(z)
    # the step runs in these buffers, with the operands and association of
    # xr = OVER_RELAX x + (1 - OVER_RELAX) z, z_new = soft(xr + u), u + xr - z_new
    scratch, xr, z_new = (np.empty_like(z) for _ in range(3))
    best = [None] * width
    polish_calls = [0] * width
    for it in range(1, MAX_ITER + 1):
        np.subtract(z, u, out=scratch)
        # a fresh array: best[j] keeps views of it
        x = _project(a, spectrum, ys, es, scratch)
        np.multiply(x, OVER_RELAX, out=xr)
        np.multiply(z, 1.0 - OVER_RELAX, out=scratch)
        np.add(xr, scratch, out=xr)
        np.add(xr, u, out=scratch)
        _soft(scratch, 1.0 / RHO, out=z_new)
        np.add(u, xr, out=u)
        np.subtract(u, z_new, out=u)
        # the larger of the primal and dual residuals
        np.subtract(x, z_new, out=scratch)
        np.subtract(z_new, z, out=xr)
        motion = np.maximum(_row_norms(scratch), RHO * _row_norms(xr))
        z, z_new = z_new, z
        scheduled = it % CHECK_EVERY == 0
        if not (scheduled or it == MAX_ITER or motion.min() < 1e-12):
            continue
        done = (motion < 1e-13) | (it == MAX_ITER)
        due = np.arange(live.size) if scheduled else np.flatnonzero(motion < 1e-12)
        for i, nu_admm in zip(due, _range_solve(*spectrum, RHO * u[due] @ a.T)):
            j = live[i]
            polish_calls[j] += 1
            cand = _polish_candidate(a, spectrum, ys[i], es[i], x[i], z[i], nu_admm)
            if cand is None:
                continue
            if _certified(cand[0], cand[1]):
                best[j] = cand
                done[i] = True
            elif best[j] is None or cand[1] < best[j][1]:
                best[j] = (cand[0].copy(), *cand[1:])   # x[i] is a view of the block
        if not done.any():
            continue
        for i in np.flatnonzero(done):
            j = live[i]
            if best[j] is None:
                support = np.flatnonzero(np.abs(x[i]) > SUPPORT_THRESHOLD)
                nu_admm = _range_solve(*spectrum, RHO * u[i] @ a.T)
                best[j] = (x[i], _dual_gap(a, spectrum, ys[i], es[i], x[i], support,
                                           nu_admm), "iterate")
            out[j] = _bp_result(a, rows[j], eps_noise, yn[j], best[j], it,
                                polish_calls[j])
        if done.all():
            break
        keep = ~done
        live, ys, es, z, u = live[keep], ys[keep], es[keep], z[keep], u[keep]
        scratch, xr, z_new = (np.empty_like(z) for _ in range(3))
    return out


def _bp_result(a, y, eps_noise, yn, best, iterations, polish_calls) -> RecoveryResult:
    """The result of a column y of ``_bp_columns`` from its scaled candidate
    ``best`` = (point, gap, kind)."""
    xs, gap, kind = best
    x_hat = xs * yn
    feas = max(0.0, float(np.linalg.norm(a @ x_hat - y)) - eps_noise)
    objective = float(np.abs(x_hat).sum())
    rel_gap = float(gap / (1.0 + np.abs(xs).sum()))
    converged = bool(feas <= FEAS_TOL and _certified(xs, gap))
    info = {"duality_gap": float(gap * yn), "certified_by": kind if converged else None,
            "polish_calls": polish_calls}
    return RecoveryResult(x_hat, converged, iterations, objective, feas,
                          rel_gap, info=info)


def _certified(x: np.ndarray, gap: float) -> bool:
    """Duality gap within OBJ_TOL relative to the objective."""
    return gap <= OBJ_TOL * (1.0 + np.abs(x).sum())


def _polish_candidate(a, frame, y, eps, x, z, nu_admm=None):
    """Feasible candidate with the smallest duality gap among the iterate and
    the ``_boundary_refit`` on the detected support of z (tried first, when
    it lowers the l1 objective), as (point, gap, "refit" or "iterate"); a
    certified refit ends the scan; ``frame`` is ``frame_spectrum(a)``."""
    support = np.flatnonzero(np.abs(z) > SUPPORT_THRESHOLD)
    cands = [(x, np.flatnonzero(np.abs(x) > SUPPORT_THRESHOLD), "iterate")]
    if 0 < support.size <= a.shape[0]:
        support, coef = _boundary_refit(a, y, eps, support, np.sign(z[support]))
        refit = np.zeros(a.shape[1])
        refit[support] = coef
        if np.abs(refit).sum() <= np.abs(x).sum():
            cands.insert(0, (refit, support, "refit"))
    out = None
    for cand, sup, kind in cands:
        if np.linalg.norm(a @ cand - y) > eps + FEAS_TOL:
            continue
        gap = _dual_gap(a, frame, y, eps, cand, sup, nu_admm)
        if out is None or gap < out[1]:
            out = (cand, gap, kind)
        if _certified(cand, gap):
            break       # skip fitting the denser candidates after it
    return out


def _boundary_refit(a, y, eps, support, signs):
    """Optimum of BP restricted to the columns ``support`` and the sign
    pattern ``signs``, as (support, coefficients).

    Starts from the least-squares fit coef on ``support``. With
    G = A_S^T A_S and residual r0 = ||A_S coef - y|| < eps, the optimum of
    min signs^T c s.t. ||A_S c - y|| <= eps is c = coef - t G^{-1} signs,
    t = sqrt((eps^2 - r0^2) / signs^T G^{-1} signs), on the ball's boundary;
    it is the restricted BP optimum only while it keeps ``signs``. Its
    residual r has A_S^T r = t signs, so a column j off S with
    |a_j^T r| > t shows that S is too small: j joins S with the sign of
    a_j^T r and the fit is redone. Returns the last sign-consistent boundary
    point, or the least-squares fit when there is none, as always at eps = 0.
    """
    sub = a[:, support]
    coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
    out = support, coef
    while True:
        r0 = float(np.linalg.norm(sub @ coef - y))
        if not r0 < eps:
            return out
        try:
            h, _ = _support_fit(a, support, signs)
        except np.linalg.LinAlgError:
            return out
        q = float(signs @ h)
        if not q > 0.0:
            return out
        shifted = coef - math.sqrt((eps * eps - r0 * r0) / q) * h
        if not np.array_equal(np.sign(shifted), signs):
            return out
        out = support, shifted
        corr = a.T @ (y - sub @ shifted)
        top = np.abs(corr[support]).max()
        corr[support] = 0.0
        j = int(np.abs(corr).argmax())
        if support.size == a.shape[0] or not abs(corr[j]) > top:
            return out
        support = np.append(support, j)
        signs = np.append(signs, np.sign(corr[j]))
        sub = a[:, support]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)



def _lasso_kkt_rows(a: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                    penalty: float) -> np.ndarray:
    """``lasso_kkt_residual`` of every row pair (ys[j], xs[j])."""
    g = (xs @ a.T - ys) @ a
    viol = np.where(xs != 0, np.abs(g + penalty * np.sign(xs)), np.abs(g) - penalty)
    return np.maximum(viol.max(axis=1), 0.0)


def lasso_kkt_residual(a: np.ndarray, y: np.ndarray, x: np.ndarray,
                       penalty: float) -> float:
    """Worst coordinatewise violation of the Lasso subgradient conditions."""
    return float(_lasso_kkt_rows(a, np.atleast_2d(y), np.atleast_2d(x), penalty)[0])


def lasso(d: Dictionary, y: np.ndarray, lam: Optional[float],
          sigma: float) -> RecoveryResult:
    """min (1/2)||Phi x - y||^2 + lam sigma^2 ||x||_1 by accelerated proximal
    gradient (Beck & Teboulle 2009) at the step 1/L, L = ||Phi||^2, with the
    gradient-based momentum restart of O'Donoghue & Candes (2015).
    ``lam=None`` is the standard 2 sqrt(2 ln N) of Candes & Plan (2009)."""
    _require_real(d)
    check_recovery_inputs(sigma=sigma, lam=lam, solver="lasso")
    return _lasso_columns(d, _observation(d, y)[None], lam, sigma)[0]


def _lasso_columns(d: Dictionary, ys: np.ndarray, lam: Optional[float],
                   sigma: float) -> list:
    """``lasso`` of every row of the T x m matrix ``ys`` at once, as T
    results; the caller has checked d, lam, sigma and ys; lam=None is 2 sqrt(2 ln N).
    A penalty lam sigma^2 that under- or overflows is a ``SolverInputError``.

    Each row keeps its own momentum and restart and is taken at its first
    passing check (or at MAX_ITER), so its iterations and convergence are its
    own. The products are one BLAS gemm per step, which rounds row j the same
    for any values of the other rows but not at every width. When T is a
    multiple of LASSO_GROUP, each check narrows the block to its unsettled
    rows, filled up to a multiple of LASSO_GROUP with settled ones, whose
    results are already taken; every width stepped is then a multiple of 8,
    where a row rounds the same. Any other T is never narrowed. So a row's
    floats depend on its own row and on T only, and T = 1 runs the very gemv
    and dot calls of a one-vector loop.
    """
    a = d.entries
    rows = np.ascontiguousarray(ys)
    width = rows.shape[0]
    lam = 2.0 * math.sqrt(2.0 * math.log(d.N)) if lam is None else float(lam)
    sigma = float(sigma)
    penalty = lam * sigma * sigma
    # L >= 1: unit-norm columns put ||Phi||^2 at or above every column's norm
    step = 1.0 / float(d.frame[0].max())
    thresh = step * penalty
    if not (thresh > 0.0 and math.isfinite(penalty)):
        raise SolverInputError(
            f"lam * sigma^2 = {penalty!r} at lam={lam!r}, sigma={sigma!r}: the "
            "Lasso penalty must be a positive finite float64 (it under- or overflows)")
    # every step runs in these buffers, with the operands and association of
    # x_new = soft(v - step (v A^T - y) A), v = x_new + momentum (x_new - x)
    x, x_new, v, dx, work = (np.zeros((width, d.N)) for _ in range(5))
    resid = np.empty((width, d.m))
    since = np.zeros(width, dtype=int)     # steps since the last restart
    x_hat = np.zeros_like(x)
    iterations = np.zeros(width, dtype=int)
    kkt = np.zeros(width)
    # block row i solves row block[i] of ys, whose observation is obs[i]
    block, obs = np.arange(width), rows
    live = np.ones(width, dtype=bool)
    for it in range(1, MAX_ITER + 1):
        np.matmul(v, a.T, out=resid)
        np.subtract(resid, obs, out=resid)
        np.matmul(resid, a, out=work)
        np.multiply(work, step, out=work)
        np.subtract(v, work, out=work)
        _soft(work, thresh, x_new)
        np.subtract(x_new, x, out=dx)
        momentum = _momentum_table(it)[since]
        # where the step opposes the momentum, restart: v = x_new, t = 1
        np.subtract(v, x_new, out=work)
        restart = _row_dots(work, dx) > 0.0
        momentum[restart] = 0.0
        since += 1
        since[restart] = 0
        np.multiply(dx, momentum[:, None], out=v)
        np.add(v, x_new, out=v)
        x, x_new = x_new, x
        if it % 10 == 0 or it == MAX_ITER:
            kkt_rows = _lasso_kkt_rows(a, obs, x, penalty)
            settled = live & ((kkt_rows <= KKT_TOL) | (it == MAX_ITER))
            x_hat[block[settled]] = x[settled]
            iterations[block[settled]] = it
            kkt[block[settled]] = kkt_rows[settled]
            live &= ~settled
            n_live = np.count_nonzero(live)
            if not n_live:
                break
            narrow = -(-n_live // LASSO_GROUP) * LASSO_GROUP
            if narrow < x.shape[0] and x.shape[0] % LASSO_GROUP == 0:
                # the unsettled rows and, as padding, the first settled ones
                keep = live.copy()
                keep[np.flatnonzero(~live)[:narrow - n_live]] = True
                block, obs, x, v, since, live = (
                    arr[keep] for arr in (block, obs, x, v, since, live))
                x_new, dx, work = (np.empty_like(x) for _ in range(3))
                resid = np.empty((narrow, d.m))
    out = []
    for xj, yj, n, res in zip(x_hat, rows, iterations, kkt):
        r = a @ xj - yj
        objective = 0.5 * float(r @ r) + penalty * float(np.abs(xj).sum())
        out.append(RecoveryResult(xj, bool(res <= KKT_TOL), int(n), objective,
                                  0.0, float(res)))
    return out


def _checked_support(d: Dictionary, support, signs):
    """(indices, float signs, lambda_min, condition) of a nonempty support and
    its aligned signs, else a ``SolverInputError`` naming the problem. The
    condition is lambda_max / lambda_min of A_S^T A_S, inf when lambda_min
    <= 0; above CONDITION_LIMIT the support Gram counts as not invertible."""
    _require_real(d)
    idx = np.asarray(support)
    s = np.asarray(signs, dtype=float)
    if idx.ndim != 1 or s.shape != idx.shape:
        raise SolverInputError(f"support {idx.shape}, signs {s.shape}: must be 1-d and aligned")
    if not idx.size:
        raise SolverInputError("support is empty")
    if idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= d.N:
        raise SolverInputError(f"support must hold column indices in [0, {d.N})")
    if np.unique(idx).size != idx.size:
        raise SolverInputError("support must not repeat a column index")
    sub = d.entries[:, idx]
    vals = np.linalg.eigvalsh(sub.T @ sub)
    return idx, s, vals[0], math.inf if vals[0] <= 0 else float(vals[-1] / vals[0])


def dual_certificate(d: Dictionary, support, signs) -> Certificate:
    """Sign-interpolation certificate v = Phi^T Phi_I (Phi_I^T Phi_I)^{-1} s.

    Valid when the off-support sup-norm is at most 1/2 and the support Gram
    is numerically invertible (condition below 1e12).
    """
    idx, s, _, cond = _checked_support(d, support, signs)
    if cond > CONDITION_LIMIT:
        return Certificate(None, math.inf, cond, False)
    v = d.entries.T @ _support_fit(d.entries, idx, s)[1]
    v[idx] = s       # exact by construction; pin the float solve noise
    sup_off = _off_support_max(v, idx)
    return Certificate(v, sup_off, cond, sup_off <= 0.5)


@dataclass
class LassoConditions:
    inverse_gram_ok: bool
    noise_correlation_ok: bool
    certificate_ok: bool
    margins: dict

    @property
    def all_ok(self) -> bool:
        return (self.inverse_gram_ok and self.noise_correlation_ok
                and self.certificate_ok)


def cp_conditions(d: Dictionary, support, signs, z: np.ndarray) -> LassoConditions:
    """The three deterministic conditions under which the Lasso error bound
    ||Phi x - Phi x_hat||^2 <= C k log(N) sigma^2 is known to hold. A support
    Gram that ``dual_certificate`` counts as not invertible fails the inverse
    Gram and certificate conditions, with None margins."""
    idx, s, lam_min, cond = _checked_support(d, support, signs)
    z = _observation(d, z, "z")
    a, N = d.entries, d.N
    corr = np.abs(a.T @ z).max()
    # plain bool / float, not numpy scalars, so reports built from these serialize
    margins = {"inverse_gram": None,
               "noise_correlation": float(2.0 * math.sqrt(math.log(N)) - float(corr)),
               "certificate": None}
    if cond <= CONDITION_LIMIT:
        margins["inverse_gram"] = float(2.0 - 1.0 / lam_min)
        # max_{j off S} |phi_j^T Phi_S (Phi_S^T Phi_S)^{-1} r| for r = Phi_S^T z, s
        term_noise, term_sign = (_off_support_max(a.T @ _support_fit(a, idx, r)[1], idx)
                                 for r in (a[:, idx].T @ z, s))
        lhs3 = term_noise + math.sqrt(8.0 * math.log(N)) * term_sign
        margins["certificate"] = float(
            (2.0 - math.sqrt(2.0)) * math.sqrt(2.0 * math.log(N)) - lhs3)
    ok = {key: margin is not None and margin >= 0 for key, margin in margins.items()}
    return LassoConditions(inverse_gram_ok=ok["inverse_gram"],
                           noise_correlation_ok=ok["noise_correlation"],
                           certificate_ok=ok["certificate"], margins=margins)


def on_support_error_constant(N: int, eps: float) -> float:
    """Multiplier of the best k-term l1 error in the on-support l2 bound."""
    check_recovery_inputs(eps=eps)
    return 0.5 / math.sqrt(2.0 * math.log(2.0 * N / eps))


def error_report(inst: SignalInstance, result: RecoveryResult,
                 eps: float) -> RecoveryResult:
    """Fill on/off-support errors and their theoretical ceilings.

    The best k-sparse l1 approximation error of x is exactly its off-support
    l1 mass, so bound_off = 4 * tail and bound_on = tail * constant(N, eps).
    """
    x, x_hat = inst.x, result.x_hat
    if x.shape != x_hat.shape:
        raise SolverInputError("instance and result dimensions differ")
    on = inst.support
    off = np.setdiff1d(np.arange(x.shape[0]), on, assume_unique=True)
    err_on = float(np.linalg.norm(x[on] - x_hat[on]))
    err_off = float(np.abs(x[off] - x_hat[off]).sum())
    tail = inst.tail_l1
    return replace(result,
                   err_on_l2=err_on, err_off_l1=err_off,
                   bound_on=tail * on_support_error_constant(x.shape[0], eps),
                   bound_off=4.0 * tail)
