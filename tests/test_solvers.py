import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stripkit as sk
from stripkit import solvers
from stripkit.dictionaries import Dictionary, frame_spectrum
from stripkit.experiments import TRIAL_BLOCK, ExperimentConfig, _trial_instance
from stripkit.solvers import (SolverInputError, _boundary_refit, _lasso_columns,
                              _multiplier, _polish_candidate, _project,
                              lasso_kkt_residual)


def one_short_iteration(monkeypatch):
    """Cap BP at one iteration, polished, with an unreachable gap tolerance."""
    monkeypatch.setattr(solvers, "MAX_ITER", 1)
    monkeypatch.setattr(solvers, "CHECK_EVERY", 1)
    monkeypatch.setattr(solvers, "OBJ_TOL", 1e-14)


def bp_instance(d, k, seed, model="unit"):
    rng = sk.derive_rng(seed, "bp-test")
    inst = sk.sample_generic_signal(d.N, k, model, rng)
    return sk.observe(d, inst, sigma=0.0, rng=rng)


class TestBasisPursuit:
    def test_orthonormal_square(self, identity8):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8)
        res = sk.basis_pursuit(identity8, x.copy(), 0.0)
        assert res.converged
        assert np.abs(res.x_hat - x).max() < 1e-8

    def test_zero_observation(self, identity8):
        res = sk.basis_pursuit(identity8, np.zeros(8), 0.0)
        assert res.converged and np.all(res.x_hat == 0.0)

    def test_zero_is_optimal_inside_ball(self, identity8):
        y = np.full(8, 0.01)
        res = sk.basis_pursuit(identity8, y, eps_noise=1.0)
        assert res.converged and np.all(res.x_hat == 0.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_dg_exact_recovery(self, k):
        d = sk.build_delsarte_goethals(1)
        for t in range(40):
            inst = bp_instance(d, k, seed=100 + t)
            res = sk.basis_pursuit(d, inst.y, 0.0)
            assert res.converged
            assert np.linalg.norm(res.x_hat - inst.x) <= 1e-6

    def test_objective_never_exceeds_feasible_truth(self):
        # x itself is feasible at eps >= ||z||, so ||x_hat||_1 <= ||x||_1 + tol
        d = sk.build_gaussian(10, 30, seed=5)
        for t in range(10):
            rng = sk.derive_rng(t, "noisy")
            inst = sk.sample_generic_signal(30, 3, "unit", rng)
            obs = sk.observe(d, inst, sigma=0.05, rng=rng)
            eps = float(np.linalg.norm(obs.z)) + 1e-9
            res = sk.basis_pursuit(d, obs.y, eps)
            assert res.converged
            assert np.abs(res.x_hat).sum() <= np.abs(inst.x).sum() + 1e-6
            assert np.linalg.norm(d.entries @ res.x_hat - obs.y) <= eps + 1e-8

    def test_scaling_equivariance(self):
        d = sk.build_gaussian(8, 20, seed=2)
        inst = bp_instance(d, 3, seed=7)
        base = sk.basis_pursuit(d, inst.y, 0.0)
        for c in (0.01, 3.0, 1e4):
            scaled = sk.basis_pursuit(d, c * inst.y, 0.0)
            assert np.abs(scaled.x_hat - c * base.x_hat).max() <= 1e-6 * c

    def test_noisy_feasibility_and_gap(self):
        d = sk.build_delsarte_goethals(1)
        rng = sk.derive_rng(3, "noisy-dg")
        inst = sk.sample_generic_signal(d.N, 2, "unit", rng)
        obs = sk.observe(d, inst, sigma=0.02, rng=rng)
        res = sk.basis_pursuit(d, obs.y, obs.eps_noise)
        assert res.converged
        assert res.feas_residual <= 1e-8
        assert res.kkt_residual <= 1e-8

    def test_nonconvergence_is_reported(self, monkeypatch):
        d = sk.build_gaussian(8, 20, seed=2)
        inst = bp_instance(d, 3, seed=7)
        one_short_iteration(monkeypatch)
        res = sk.basis_pursuit(d, inst.y, 0.0)
        assert not res.converged        # diagnosed, not silently wrong

    def test_rejects_complex_and_bad_inputs(self):
        c = sk.build_chirp(3)
        with pytest.raises(SolverInputError):
            sk.basis_pursuit(c, np.zeros(3), 0.0)
        d = sk.build_gaussian(4, 8, seed=0)
        with pytest.raises(SolverInputError):
            sk.basis_pursuit(d, np.zeros(5), 0.0)
        with pytest.raises(SolverInputError):
            sk.basis_pursuit(d, np.zeros(4), -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, bad):
        d = sk.build_gaussian(4, 8, seed=0)
        with pytest.raises(SolverInputError, match="eps_noise must be finite"):
            sk.basis_pursuit(d, np.ones(4), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_observation(self, bad):
        d = sk.build_gaussian(4, 8, seed=0)
        y = np.array([1.0, bad, 0.0, 1.0])
        with pytest.raises(SolverInputError, match="y must be finite"):
            sk.basis_pursuit(d, y, 0.1)
        with pytest.raises(SolverInputError, match="y must be finite"):
            sk.lasso(d, y, 1.0, 1.0)

    def test_infeasible_zero_eps(self):
        # y outside range(Phi) cannot be matched exactly
        entries = np.zeros((3, 2))
        entries[0, 0] = 1.0
        entries[1, 1] = 1.0
        d = Dictionary("rank2", entries)
        with pytest.raises(SolverInputError, match="not in the range of Phi"):
            sk.basis_pursuit(d, np.array([0.0, 0.0, 1.0]), 0.0)

    def test_infeasible_row_of_a_block(self):
        # one row out of range leaves the whole noiseless block infeasible
        entries = np.zeros((3, 2))
        entries[0, 0] = 1.0
        entries[1, 1] = 1.0
        d = Dictionary("rank2", entries)
        ys = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 2.0, 0.0]])
        with pytest.raises(SolverInputError, match="not in the range of Phi"):
            solvers._bp_columns(d, ys, 0.0)
        assert all(res.converged for res in solvers._bp_columns(d, ys[[0, 2]], 0.0))

    def test_zero_eps_on_a_rank_deficient_frame(self):
        # y in range(Phi) is matched; the null direction of Phi Phi^T is dropped
        entries = np.zeros((3, 3))
        entries[:2, :2] = np.eye(2)
        entries[:2, 2] = math.sqrt(0.5)
        d = Dictionary("rank2", entries)
        assert not d.frame[2].all()
        res = sk.basis_pursuit(d, np.array([1.0, 2.0, 0.0]), 0.0)
        assert res.converged
        assert np.allclose(res.x_hat, [0.0, 1.0, math.sqrt(2.0)], atol=1e-7)


def noisy_instance(d, k, sigma, seed):
    rng = sk.derive_rng(seed, "noisy-dg")
    inst = sk.sample_generic_signal(d.N, k, "unit", rng)
    return sk.observe(d, inst, sigma=sigma, rng=rng)


class TestNoisyBasisPursuit:
    @pytest.mark.parametrize("build, k, sigma", [
        (lambda: sk.build_delsarte_goethals(1), 2, 0.01),
        (lambda: sk.build_gaussian(10, 30, seed=5), 2, 0.05),
        (lambda: sk.build_gaussian(10, 30, seed=5), 3, 0.05),
    ])
    def test_optimality_conditions_of_x_hat(self, build, k, sigma):
        # KKT of min ||x||_1 s.t. ||Phi x - y|| <= eps, read off x_hat alone:
        # the residual r sits on the ball and Phi^T r is t sign(x_hat) on the
        # support S and at most t in size off it
        d = build()
        for seed in range(8):
            obs = noisy_instance(d, k, sigma, seed)
            res = sk.basis_pursuit(d, obs.y, obs.eps_noise)
            assert res.converged
            r = obs.y - d.entries @ res.x_hat
            assert abs(np.linalg.norm(r) - obs.eps_noise) <= 1e-8
            on = np.abs(res.x_hat) > 1e-9 * np.abs(res.x_hat).max()
            corr = d.entries.T @ r
            t = np.abs(corr[on]).max()
            assert np.abs(corr[on] - t * np.sign(res.x_hat[on])).max() <= 1e-8 * t
            assert np.abs(corr[~on]).max() <= t * (1 + 1e-6)

    def test_dg_certified_within_500_iterations(self):
        # ADMM alone needs 2000+ iterations here to close the duality gap
        d = sk.build_delsarte_goethals(1)
        for seed in range(10):
            obs = noisy_instance(d, 2, 0.01, seed)
            res = sk.basis_pursuit(d, obs.y, obs.eps_noise)
            assert res.converged and res.iterations <= 500

    def test_boundary_shift_that_flips_a_sign_is_not_offered(self):
        # on the identity the least-squares refit is y itself; moving it to
        # the boundary along -(1, 1) would take x_2 = 0.05 below zero
        a = np.eye(2)
        y = np.array([1.0, 0.05])
        _, coef = _boundary_refit(a, y, 0.1, np.arange(2), np.ones(2))
        assert np.array_equal(coef, y)
        z = np.array([0.9, 0.02])
        cand = _polish_candidate(a, frame_spectrum(a), y, 0.1, y.copy(), z)
        assert np.array_equal(cand[0], y) and cand[2] == "refit"
        res = sk.basis_pursuit(Dictionary("identity2", a), y, 0.1)
        assert res.converged
        assert np.abs(res.x_hat - [1.0 - math.sqrt(0.0075), 0.0]).max() <= 1e-6

    def test_certificate_route_is_reported(self, monkeypatch):
        d = sk.build_delsarte_goethals(1)
        obs = noisy_instance(d, 1, 0.01, 0)
        res = sk.basis_pursuit(d, obs.y, obs.eps_noise)
        assert res.converged and res.info["certified_by"] == "refit"
        assert res.info["polish_calls"] >= 1
        one_short_iteration(monkeypatch)
        short = sk.basis_pursuit(d, obs.y, obs.eps_noise)
        assert not short.converged and short.info["certified_by"] is None
        assert short.info["polish_calls"] == 1

    @pytest.mark.parametrize("eps", [1e-28, 1e-30, 1e-100, 1e-150, 1e-300, 1e-307,
                                     5e-324])
    def test_tiny_noise_radius_is_reached(self, eps):
        # the multiplier grows like 1/eps. Here f r underflows at 1e-150,
        # every residual term at 1e-300, lam w overflows at 1e-307 and 1/eps
        # at 5e-324; past float arithmetic the projection takes its limit,
        # the minimum-norm correction
        d = sk.build_delsarte_goethals(1)
        x = sk.sample_generic_signal(d.N, 2, "unit", sk.derive_rng(1, "e")).x
        res = sk.basis_pursuit(d, d.entries @ x, eps)
        assert res.converged and res.feas_residual <= solvers.FEAS_TOL
        assert np.abs(res.x_hat - x).max() <= 1e-12

    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    @pytest.mark.parametrize("capped", [False, True])
    def test_row_without_a_polish_candidate(self, monkeypatch, sigma, capped):
        # no polish candidate is ever feasible: the row still finishes, on
        # its last iterate, converged exactly when that iterate is feasible
        # and its own duality gap certifies it
        polished, verdicts = [], []
        certified = solvers._certified

        def no_candidate(a, frame, y, eps, x, z, nu_admm=None):
            polished.append(x.copy())

        def certified_spy(x, gap):
            verdicts.append(certified(x, gap))
            return verdicts[-1]
        monkeypatch.setattr(solvers, "_polish_candidate", no_candidate)
        monkeypatch.setattr(solvers, "_certified", certified_spy)
        if capped:      # a polish period, so the last iterate is polished
            monkeypatch.setattr(solvers, "MAX_ITER", 2 * solvers.CHECK_EVERY)
        d = sk.build_delsarte_goethals(1)
        obs = noisy_instance(d, 2, sigma, 0)
        res = sk.basis_pursuit(d, obs.y, obs.eps_noise)
        assert res.info["polish_calls"] == len(polished) > 0
        assert np.array_equal(res.x_hat, polished[-1] * np.linalg.norm(obs.y))
        feasible = res.feas_residual <= solvers.FEAS_TOL
        assert res.converged == (feasible and verdicts == [True])
        assert res.converged != capped
        assert res.info["certified_by"] == ("iterate" if res.converged else None)


def bisection_multiplier(dt, w, eps):
    """The ball projector's former multiplier search, kept as an oracle:
    bracket lam by quadrupling, then bisect ||dt / (1 + lam w)|| = eps."""
    def resid(lam):
        return math.sqrt(float(((dt / (1.0 + lam * w)) ** 2).sum()))
    lo, hi = 0.0, 1.0
    while resid(hi) > eps:
        hi *= 4.0
        if hi > 1e30:
            raise SolverInputError("projection failed; frame operator singular?")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) > eps:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return hi


def projection_case(seed, spread, rank_deficient=False):
    """A with singular values 10^U(-spread, spread) (a third of them zero if
    rank_deficient), a point vec and y; returns them with the projector
    coordinates dt of A vec - y, its norm and its mass outside range(A A^T)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 12))
    n = 2 * m + 1
    svals = 10.0 ** rng.uniform(-spread, spread, m)
    if rank_deficient:
        svals[rng.permutation(m)[:max(1, m // 3)]] = 0.0
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, m)))
    a = (u * svals) @ v.T
    y = rng.standard_normal(m)
    vec = rng.standard_normal(n)
    _, v, mask = frame_spectrum(a)
    dt = v.T @ (a @ vec - y)
    null_mass = float(np.linalg.norm(dt[~mask]))
    return a, y, vec, dt, float(np.linalg.norm(dt)), null_mass


def project_one(a, y, eps, vec):
    """The projection of vec onto {x : ||A x - y|| <= eps}."""
    return _project(a, frame_spectrum(a), y[None], np.array([eps]), vec[None])[0]


class TestBallProjector:
    @staticmethod
    def check_multiplier(a, dt, eps):
        w = frame_spectrum(a)[0]
        lam = _multiplier(w, dt, eps)
        ref = bisection_multiplier(dt, w, eps)
        # both searches stop on a bracket of width 1e-15 * max(1, lam), so
        # below lam = 1 the agreement has that absolute floor
        assert abs(lam - ref) <= 1e-12 * ref + 2e-15
        # the returned end is feasible in the projection's own arithmetic
        assert math.sqrt(float(((dt / (1.0 + lam * w)) ** 2).sum())) <= eps
        return lam

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_newton_matches_bisection(self, seed, rank_deficient):
        a, y, vec, dt, r, null_mass = projection_case(seed, 0.3, rank_deficient)
        eps = null_mass + (r - null_mass) * (0.05 + 0.9 * (seed % 7) / 6)
        self.check_multiplier(a, dt, eps)
        assert np.linalg.norm(a @ project_one(a, y, eps, vec) - y) <= eps * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(24))
    def test_wide_spectra(self, seed):
        # singular values over two decades: the multiplier still matches, but
        # rounding in A p - y can exceed 1e-12 of eps, for either search
        a, y, vec, dt, r, null_mass = projection_case(100 + seed, 1.0, seed % 2 == 1)
        self.check_multiplier(a, dt, null_mass + 0.5 * (r - null_mass))

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6])
    def test_eps_just_below_residual(self, gap):
        for seed in range(8):
            a, y, vec, dt, r, _ = projection_case(200 + seed, 0.3)
            eps = r * (1.0 - gap)
            lam = self.check_multiplier(a, dt, eps)
            assert 0.0 < lam < 10.0 * gap
            assert np.linalg.norm(a @ project_one(a, y, eps, vec) - y) <= eps * (1 + 1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1e-9, 1e-12])
    def test_very_large_multiplier(self, scale):
        for seed in range(8):
            a, y, vec, dt, r, _ = projection_case(300 + seed, 0.3)
            lam = self.check_multiplier(a, dt, r * scale)
            assert lam > 0.1 / scale

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-8])
    def test_eps_just_above_null_mass(self, gap):
        # the root sits far out, where the float residual is flat over many
        # ulps of lam; the probes past a converged step must still cross it
        for seed in range(12):
            a, y, vec, dt, r, null_mass = projection_case(500 + seed, 0.3, True)
            self.check_multiplier(a, dt, null_mass * (1.0 + gap))

    def test_singular_frame_operator_raises(self):
        # zero rows make A A^T exactly singular: the residual mass on them
        # stays whatever lam is, so an eps below it cannot be reached
        rng = np.random.default_rng(5)
        for m in range(2, 10):
            a = np.zeros((m, 2 * m))
            rank = m // 2
            a[np.arange(rank), np.arange(rank)] = rng.uniform(0.5, 2.0, rank)
            y = rng.standard_normal(m)
            vec = rng.standard_normal(2 * m)
            eps = 0.5 * float(np.linalg.norm(y[rank:]))
            w, v, _ = frame_spectrum(a)
            dt = v.T @ (a @ vec - y)
            with pytest.raises(SolverInputError, match="projection failed"):
                bisection_multiplier(dt, w, eps)
            with pytest.raises(SolverInputError, match="projection failed"):
                _multiplier(w, dt, eps)
            with pytest.raises(SolverInputError, match="projection failed"):
                project_one(a, y, eps, vec)


def test_error_supports_contraction_inequality():
    # when the support Gram is well conditioned and every outside column has
    # small correlation energy, the recovery error concentrates off-support:
    # ||h_I||_2 <= ||h_Ic||_1 / sqrt(8 ln(2N/eps)). Needs genuinely tiny
    # coherence: an orthonormal basis plus one flat extra column gives
    # mu = 1/sqrt(m), which qualifies every support at m = 64, delta = 0.1.
    # The optimum is dense (an LP vertex with m active signs), so the gap
    # closes only once ADMM has that whole support: at OBJ_TOL these five
    # instances take 2.5k-14k iterations.
    m = 64
    entries = np.hstack([np.eye(m), np.full((m, 1), 1.0 / math.sqrt(m))])
    d = Dictionary("eye-plus-flat", entries)
    eps, delta = 0.5, 0.1
    s = 8 * math.log(2 * d.N / eps)
    assert 1.0 / m <= (1 - delta) ** 2 / s   # hypotheses hold for every support
    checked = 0
    nontrivial = 0
    for t in range(5):
        rng = sk.derive_rng(t, "contraction-chain")
        inst = sk.sample_generic_signal(d.N, 1, "compressible", rng)
        obs = sk.observe(d, inst, sigma=0.0, rng=rng)
        res = sk.basis_pursuit(d, obs.y, 0.0)
        assert res.converged
        h = inst.x - res.x_hat
        off = np.delete(np.arange(d.N), inst.support)
        checked += 1
        nontrivial += np.linalg.norm(h) > 1e-6
        assert (np.linalg.norm(h[inst.support])
                <= np.abs(h[off]).sum() / math.sqrt(s) + 1e-6)
    assert checked == 5 and nontrivial > 0


def backtracking_lasso(a, y, penalty, max_iter=100_000, kkt_tol=1e-8):
    """The former Lasso loop, kept as an oracle: accelerated proximal
    gradient from step 1, halved until the quadratic upper bound holds, with
    a momentum restart whenever the objective rises. Returns x."""
    def objective(xv):
        r = a @ xv - y
        return 0.5 * float(r @ r) + penalty * float(np.abs(xv).sum())

    def soft(vec, t):
        return np.sign(vec) * np.maximum(np.abs(vec) - t, 0.0)

    x = np.zeros(a.shape[1])
    v = x.copy()
    t, step = 1.0, 1.0
    f_prev = objective(x)
    for it in range(1, max_iter + 1):
        r = a @ v - y
        fv, gv = 0.5 * float(r @ r), a.T @ r
        while True:
            x_new = soft(v - step * gv, step * penalty)
            diff = x_new - v
            quad = fv + float(gv @ diff) + float(diff @ diff) / (2.0 * step)
            f_new = 0.5 * float(np.linalg.norm(a @ x_new - y) ** 2)
            if f_new <= quad + 1e-15 * max(1.0, abs(quad)):
                break
            step /= 2.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        v = x_new + ((t - 1.0) / t_new) * (x_new - x)
        f_cur = f_new + penalty * float(np.abs(x_new).sum())
        if f_cur > f_prev:
            v = x_new
            t_new = 1.0
        f_prev = f_cur
        x, t = x_new, t_new
        if (it % 10 == 0 or it < 10) and lasso_kkt_residual(a, y, x, penalty) <= kkt_tol:
            break
    return x


class TestLasso:
    @pytest.mark.parametrize("build", [
        lambda: sk.build_gaussian(64, 256, seed=12),
        lambda: sk.build_delsarte_goethals(1),
        lambda: sk.realify(sk.build_chirp(7)),
        lambda: sk.realify(sk.build_random_harmonic(24, 96, seed=4)),
    ], ids=["gaussian", "dg", "chirp", "harmonic"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_backtracking_oracle(self, build, seed):
        d = build()
        rng = sk.derive_rng(seed, "lasso-oracle")
        inst = sk.sample_generic_signal(d.N, 3, "unit", rng)
        obs = sk.observe(d, inst, sigma=0.05, rng=rng)
        lam = 2.0 * math.sqrt(2.0 * math.log(d.N))
        penalty = lam * 0.05 * 0.05
        res = sk.lasso(d, obs.y, lam, 0.05)
        ref = backtracking_lasso(d.entries, obs.y, penalty)
        assert res.converged and res.kkt_residual <= 1e-8
        assert lasso_kkt_residual(d.entries, obs.y, ref, penalty) <= 1e-8

        def objective(x):
            r = d.entries @ x - obs.y
            return 0.5 * float(r @ r) + penalty * float(np.abs(x).sum())
        assert res.objective == objective(res.x_hat)
        assert abs(res.objective - objective(ref)) <= 1e-9 * objective(ref)

    def test_zero_when_penalty_dominates(self):
        d = sk.build_gaussian(6, 12, seed=1)
        y = d.entries @ np.eye(12)[0]
        lam_sigma_sq = np.abs(d.entries.T @ y).max() * 1.01
        res = sk.lasso(d, y, lam=lam_sigma_sq, sigma=1.0)
        assert res.converged and np.all(res.x_hat == 0.0)

    def test_scalar_soft_threshold(self):
        d = Dictionary("one", np.array([[1.0]]))
        res = sk.lasso(d, np.array([3.0]), lam=1.0, sigma=1.0)
        assert res.converged
        assert abs(res.x_hat[0] - 2.0) < 1e-10

    def test_gaussian_kkt_and_ratio(self):
        d = sk.build_gaussian(64, 256, seed=12)
        rng = sk.derive_rng(0, "lasso")
        inst = sk.sample_generic_signal(256, 4, "unit", rng)
        obs = sk.observe(d, inst, sigma=0.05, rng=rng)
        lam = 2.0 * math.sqrt(2.0 * math.log(256))
        res = sk.lasso(d, obs.y, lam, 0.05)
        assert res.converged
        assert lasso_kkt_residual(d.entries, obs.y, res.x_hat,
                                  lam * 0.05 ** 2) <= 1e-8
        ratio = np.linalg.norm(d.entries @ (inst.x - res.x_hat)) ** 2 / (
            4 * math.log(256) * 0.05 ** 2)
        assert np.isfinite(ratio)   # reported, not asserted against a constant

    def test_rejects_degenerate_penalty(self):
        d = sk.build_gaussian(4, 8, seed=0)
        with pytest.raises(SolverInputError):
            sk.lasso(d, np.zeros(4), lam=1.0, sigma=0.0)
        with pytest.raises(SolverInputError):
            sk.lasso(d, np.zeros(4), lam=0.0, sigma=1.0)

    def test_default_lambda(self):
        d = sk.build_delsarte_goethals(1)
        y = lasso_block(d, 2, 0.01, 1)[:, 0]
        standard = sk.lasso(d, y, 2.0 * math.sqrt(2.0 * math.log(d.N)), 0.01)
        default = sk.lasso(d, y, None, 0.01)
        assert np.array_equal(default.x_hat, standard.x_hat)
        assert default.objective == standard.objective

    @pytest.mark.parametrize("lam, sigma", [(1.0, 1e-200), (1e300, 1e10)],
                             ids=["underflow", "overflow"])
    def test_rejects_penalty_out_of_range(self, lam, sigma):
        # lam sigma^2 of 0 would report a least-squares fit as a Lasso; of
        # inf, a nan objective
        d = sk.build_gaussian(4, 8, seed=0)
        with pytest.raises(SolverInputError, match=re.escape(f"lam={lam!r}, sigma={sigma!r}")):
            sk.lasso(d, np.ones(4), lam, sigma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["lam", "sigma"])
    def test_rejects_non_finite_penalty(self, name, bad):
        d = sk.build_gaussian(4, 8, seed=0)
        kw = {"lam": 1.0, "sigma": 1.0, name: bad}
        with pytest.raises(SolverInputError, match=f"{name} must be finite"):
            sk.lasso(d, np.ones(4), **kw)


def lasso_block(d, k, sigma, count, seed=5):
    """``count`` seeded noisy observations of k-sparse signals, as the
    columns of an m x count matrix."""
    ys = np.zeros((d.m, count))
    for j in range(count):
        rng = sk.derive_rng(seed, "lasso-block", j)
        inst = sk.sample_generic_signal(d.N, k, "unit", rng)
        ys[:, j] = sk.observe(d, inst, sigma=sigma, rng=rng).y
    return ys


class TestLassoColumns:
    @pytest.mark.parametrize("build, k, count", [
        (lambda: sk.build_family("dg", s=1), 2, 12),
        (lambda: sk.build_family("dg", s=2), 4, 4),
        (lambda: sk.build_gaussian(64, 256, seed=12), 4, 8),
    ], ids=["dg1", "dg2", "gaussian"])
    @pytest.mark.parametrize("sigma", [0.01, 0.1])
    def test_columns_match_one_column_lasso(self, build, k, count, sigma):
        # one gemm per step rounds each column apart from the one-column
        # gemv, by float dust only: the same iterations and the same estimate
        d = build()
        lam = 2.0 * math.sqrt(2.0 * math.log(d.N))
        ys = lasso_block(d, k, sigma, count)
        block = _lasso_columns(d, ys.T, lam, sigma)
        assert len(block) == count
        for j, res in enumerate(block):
            one = sk.lasso(d, ys[:, j], lam, sigma)
            assert res.converged and one.converged
            assert res.iterations == one.iterations
            assert (np.linalg.norm(res.x_hat - one.x_hat)
                    <= 1e-12 * np.linalg.norm(one.x_hat))

    def test_capped_column_reported_alone(self, monkeypatch):
        # a zero observation settles at the first check; the real one hits
        # the cap and is reported as not converged, with its own residual
        d = sk.build_family("dg", s=1)
        lam = 2.0 * math.sqrt(2.0 * math.log(d.N))
        ys = lasso_block(d, 2, 0.01, 1)
        assert sk.lasso(d, ys[:, 0], lam, 0.01).iterations > 30
        monkeypatch.setattr(solvers, "MAX_ITER", 25)
        zero, capped, zero_too = _lasso_columns(
            d, np.array([np.zeros(d.m), ys[:, 0], np.zeros(d.m)]), lam, 0.01)
        for res in (zero, zero_too):
            assert res.converged and res.iterations == 10
            assert not res.x_hat.any() and res.kkt_residual == 0.0
        assert not capped.converged and capped.iterations == 25
        assert capped.kkt_residual == pytest.approx(lasso_kkt_residual(
            d.entries, ys[:, 0], capped.x_hat, lam * 0.01 ** 2), rel=1e-9)
        assert capped.kkt_residual > solvers.KKT_TOL

    # bp_digest of the results, pinned before the FISTA step moved into
    # preallocated buffers and a momentum table: every float is unchanged.
    # dg s=1 is the benchmark's Lasso block (30 trials padded to 32); the
    # dg s=2 block restarts its momentum; the last is a one-column lasso
    PINNED = {
        "dg1-harness": ((1, 2, 30, 32, 2026),
                        "2663f2ed964f8370745bf767b478a2dce325aeeb169f016e8b76f58e0f129621"),
        "dg2-restarts": ((2, 4, 6, 8, 2026),
                         "5500cda56c7d621792a5d90df2d4b70dc31ce91a64d2e200f58d957ec049e20c"),
        "width-one": ((1, 2, 1, 1, 7),
                      "7704a555283509f38165b716ce7f090909aaab26dca938e82a4113df9b93bf3b"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_digest(self, case, monkeypatch):
        (s, k, trials, width, seed), digest = self.PINNED[case]
        d = sk.build_family("dg", s=s)
        cfg = ExperimentConfig(family="dg", family_args={"s": s}, k=k, sigma=0.01,
                               trials=trials, seed=seed, solver="lasso")
        ys = np.zeros((d.m, width))
        ys[:, :trials] = np.transpose([_trial_instance(d, cfg, t).y
                                       for t in range(trials)])
        restarts = []
        row_dots = solvers._row_dots

        def counted(p, q):
            out = row_dots(p, q)
            restarts.append(int((out > 0.0).sum()))
            return out
        monkeypatch.setattr(solvers, "_row_dots", counted)
        if width == 1:
            results = [sk.lasso(d, ys[:, 0], None, 0.01)]
        else:
            results = _lasso_columns(d, ys.T, None, 0.01)
        assert all(r.converged for r in results)
        assert sum(restarts) > 0
        assert bp_digest(results) == digest

    # bp_digest of every trial's result, with each block of TRIAL_BLOCK
    # padded by zero observations as the Lasso study pads it; pinned before
    # settled rows left the block, and equal at 1 and 2 BLAS threads there.
    # The dg s=1 study has two blocks, the second padded
    STUDY_PINNED = {
        "dg1-40": (("dg", {"s": 1}, 2, 0.01, 40),
                   "103f2bbc32d67c6d9bc3d4437834f39c3d7f94a740d3db18a29400d184241aa0"),
        "dg2-k8": (("dg", {"s": 2}, 8, 0.1, 32),
                   "2eeb5b590dda27f01e8f9c1009f3b0ac4e79d1bc98c644854c9073beb0a3e002"),
        "gaussian-30x500": (("gaussian", {"m": 30, "N": 500, "seed": 1}, 3, 0.01, 40),
                            "e53a7c7ce526e2eef08beaafa159f8351b3ef3c7fd4fd467938ed2006c129c85"),
    }

    @pytest.mark.parametrize("case", sorted(STUDY_PINNED))
    def test_pinned_study_digest(self, case):
        (family, args, k, sigma, trials), digest = self.STUDY_PINNED[case]
        d = sk.build_family(family, **args)
        cfg = ExperimentConfig(family=family, family_args=args, k=k, sigma=sigma,
                               trials=trials, seed=2026, solver="lasso")
        results = []
        for start in range(0, trials, TRIAL_BLOCK):
            ys, count = study_block(d, cfg, start)
            results += _lasso_columns(d, ys, None, sigma)[:count]
        assert all(r.converged for r in results)
        assert bp_digest(results) == digest

    def test_settled_rows_leave_in_groups(self, monkeypatch):
        # the benchmark's Lasso block (30 trials padded to 32) narrows to 24,
        # 16 and 8 rows as its rows settle: 17,120 row-steps, not
        # 32 x 800 = 25,600; 30 rows, off a multiple of LASSO_GROUP, keep
        # their width
        d = sk.build_family("dg", s=1)
        cfg = ExperimentConfig(family="dg", family_args={"s": 1}, k=2, sigma=0.01,
                               trials=30, seed=2026, solver="lasso")
        ys, _ = study_block(d, cfg, 0)
        widths = []
        row_dots = solvers._row_dots

        def counted(p, q):
            widths.append(p.shape[0])
            return row_dots(p, q)
        monkeypatch.setattr(solvers, "_row_dots", counted)
        results = _lasso_columns(d, ys, None, 0.01)
        last = max(r.iterations for r in results)
        assert len(widths) == last
        assert all(w % solvers.LASSO_GROUP == 0 for w in widths)
        assert widths[-1] == solvers.LASSO_GROUP
        assert sum(widths) < 0.75 * TRIAL_BLOCK * last
        widths.clear()
        assert [r.iterations for r in _lasso_columns(d, ys[:30], None, 0.01)] == [
            r.iterations for r in results[:30]]
        assert set(widths) == {30}


def study_block(d, cfg, start):
    """The observations of a Lasso study's trials from ``start`` as the rows
    of one TRIAL_BLOCK-wide block, zero-padded as the study pads it, and
    their count."""
    count = min(TRIAL_BLOCK, cfg.trials - start)
    ys = np.zeros((TRIAL_BLOCK, d.m))
    ys[:count] = [_trial_instance(d, cfg, t).y for t in range(start, start + count)]
    return ys, count


def bp_digest(results) -> str:
    """sha256 over each result's x_hat bytes and its other fields."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.x_hat.tobytes())
        h.update(json.dumps([r.iterations, r.converged, r.objective, r.feas_residual,
                             r.kkt_residual, r.info], sort_keys=True).encode())
    return h.hexdigest()


def bp_block(d, k, count, model="unit", sigma=0.0, seed=5):
    """``count`` seeded observations of k-sparse signals as the columns of an
    m x count matrix, and their common eps_noise."""
    insts = []
    for j in range(count):
        rng = sk.derive_rng(seed, "bp-block", j)
        inst = sk.sample_generic_signal(d.N, k, model, rng)
        insts.append(sk.observe(d, inst, sigma=sigma, rng=rng))
    return np.transpose([inst.y for inst in insts]), insts[0].eps_noise


class TestBpColumns:
    def test_width_one_is_the_one_vector_loop(self):
        # pinned from the one-vector ADMM loop that the block kernel
        # replaced, on solves certified on the raw iterate, whose floats
        # carry every product of the loop
        d = sk.build_delsarte_goethals(1)
        cfg = ExperimentConfig(family="dg", family_args={"s": 1}, k=2, eps=0.1,
                               trials=10, seed=3, magnitudes="compressible")
        results = [sk.basis_pursuit(d, _trial_instance(d, cfg, t).y, 0.0)
                   for t in range(10)]
        assert all(r.info["certified_by"] == "iterate" for r in results)
        assert (bp_digest(results)
                == "16231a589eb08d3db7337d9e71ef186ceeeff06ec1a042416a64bf94ed0a814f")

    @pytest.mark.parametrize("s, k, count, model, sigma", [
        (1, 2, 12, "unit", 0.0),
        (2, 4, 6, "unit", 0.0),
        (1, 2, 8, "compressible", 0.0),
        (1, 2, 8, "unit", 0.01),
    ], ids=["dg1", "dg2", "dg1-compressible", "dg1-noisy"])
    def test_columns_match_lone_solves(self, s, k, count, model, sigma):
        # a certified refit is a function of its support and signs alone;
        # an estimate certified on the iterate moves by float dust
        d = sk.build_family("dg", s=s)
        ys, eps = bp_block(d, k, count, model, sigma)
        block = solvers._bp_columns(d, ys.T, eps)
        assert len(block) == count
        for j, res in enumerate(block):
            one = sk.basis_pursuit(d, ys[:, j], eps)
            assert res.converged and one.converged
            assert res.info["certified_by"] == one.info["certified_by"]
            if one.info["certified_by"] == "refit":
                # the duality gap also scores the ADMM dual, which moves
                assert np.array_equal(res.x_hat, one.x_hat)
                assert ((res.iterations, res.info["polish_calls"])
                        == (one.iterations, one.info["polish_calls"]))
            else:
                assert (np.linalg.norm(res.x_hat - one.x_hat)
                        <= 1e-12 * np.linalg.norm(one.x_hat))

    def test_settled_columns_leave_the_block(self, monkeypatch):
        # zero and in-ball observations never enter; a certified column
        # leaves at its check; a capped one runs on alone to MAX_ITER
        d = sk.build_family("dg", s=1)
        easy = bp_block(d, 1, 1)[0][:, 0]
        hard = bp_block(d, 2, 1, "compressible", seed=3)[0][:, 0]
        assert sk.basis_pursuit(d, easy, 0.0).iterations == 25
        assert sk.basis_pursuit(d, hard, 0.0).iterations > 60
        widths = []
        project = solvers._project

        def spy(a, spectrum, y, eps, rows):
            widths.append(rows.shape[0])
            return project(a, spectrum, y, eps, rows)
        monkeypatch.setattr(solvers, "_project", spy)
        monkeypatch.setattr(solvers, "MAX_ITER", 60)
        zero, cert, capped = solvers._bp_columns(
            d, np.array([np.zeros(d.m), easy, hard]), 0.0)
        assert widths == [2] * 26 + [1] * 35
        assert zero.converged and zero.iterations == 0 and not zero.x_hat.any()
        assert cert.converged and cert.iterations == 25
        assert not capped.converged and capped.iterations == 60
        assert capped.info["polish_calls"] == 2
        inside = solvers._bp_columns(d, np.array([0.01 * easy, easy]), 0.05)[0]
        assert inside.converged and inside.iterations == 0 and not inside.x_hat.any()


    def test_certified_column_is_reported_converged(self):
        # the gap of 1.5e-8 at ||x||_1 = 0.5 sits exactly on the certificate's
        # bound OBJ_TOL (1 + ||x||_1), while gap / (1 + ||x||_1) reads one ulp
        # over OBJ_TOL; the column leaves the block certified, so it converged
        d = sk.build_delsarte_goethals(1)
        xs = np.zeros(d.N)
        xs[0] = 0.5
        gap = 1e-8 * 1.5
        assert solvers._certified(xs, gap)
        res = solvers._bp_result(d.entries, d.entries @ xs, 0.0, 1.0,
                                 (xs, gap, "refit"), 25, 1)
        assert res.kkt_residual > solvers.OBJ_TOL
        assert res.converged and res.info["certified_by"] == "refit"


def count_eigh(monkeypatch) -> list:
    """Patch np.linalg.eigh to record the shape of every matrix it is given."""
    shapes = []
    eigh = np.linalg.eigh

    def counted(mat, *args, **kw):
        shapes.append(mat.shape)
        return eigh(mat, *args, **kw)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


def pinv_sign_fit_gap(a, y, x, support):
    """The duality gap of the dense sign fit by the pseudo-inverse through the
    eigenpairs of A_S A_S^T, the only candidate when y = A x exactly."""
    sub = a[:, support]
    nu = solvers._range_solve(*frame_spectrum(sub), sub @ np.sign(x[support]))
    nu = nu / np.abs(a.T @ nu).max()
    return float(np.abs(x).sum()) - float(y @ nu)


@pytest.mark.parametrize("s", [1, 2])
def test_dense_dual_gap_reads_the_cached_frame(s, monkeypatch):
    # a support of every column needs the eigenpairs of A A^T, which the
    # dictionary holds
    d = sk.build_family("dg", s=s)
    a = d.entries
    x = np.random.default_rng(s).standard_normal(d.N)
    y = a @ x
    every = np.arange(d.N)
    fresh = solvers._dual_gap(a, frame_spectrum(a[:, every]), y, 0.0, x, every)
    frame = d.frame
    shapes = count_eigh(monkeypatch)
    assert solvers._dual_gap(a, frame, y, 0.0, x, every) == fresh
    assert shapes == []


@pytest.mark.parametrize("s", [1, 2])
def test_dense_sign_fit_is_one_solve(s, monkeypatch):
    # a dense proper subset on a full-rank frame is fitted by one m x m solve,
    # from the frame operator less the complement at or past N/2 columns and
    # from the support below; no eigendecomposition, and the gap of the
    # pseudo-inverse it replaced
    d = sk.build_family("dg", s=s)
    a, frame = d.entries, d.frame
    assert frame[2].all()
    rng = np.random.default_rng(s)
    x = rng.standard_normal(d.N)
    y = a @ x
    supports = [np.sort(rng.choice(d.N, size, replace=False))
                for size in (2 * d.m, d.N // 2 - 1, d.N // 2, d.N - 1)]
    refs = [pinv_sign_fit_gap(a, y, x, sup) for sup in supports]
    shapes = count_eigh(monkeypatch)
    for sup, ref in zip(supports, refs):
        assert solvers._dual_gap(a, frame, y, 0.0, x, sup) == pytest.approx(ref, rel=1e-9)
    assert shapes == []


def test_dense_sign_fit_on_a_rank_deficient_frame(monkeypatch):
    # the rank-2 frame of test_zero_eps_on_a_rank_deficient_frame, with two
    # more columns in its range so a support can hold more than m columns:
    # the sign fit takes the pseudo-inverse through its own eigenpairs
    entries = np.zeros((3, 5))
    entries[:2, :2] = np.eye(2)
    entries[:2, 2] = math.sqrt(0.5)
    entries[:2, 3] = [0.6, -0.8]
    entries[:2, 4] = [-0.8, -0.6]
    d = Dictionary("rank2", entries)
    a, frame = d.entries, d.frame
    assert not frame[2].all()
    x = np.array([1.0, -2.0, 0.5, 1.5, -1.0])
    y = a @ x
    support = np.arange(4)
    ref = pinv_sign_fit_gap(a, y, x, support)
    shapes = count_eigh(monkeypatch)
    assert solvers._dual_gap(a, frame, y, 0.0, x, support) == pytest.approx(ref, rel=1e-9)
    assert shapes == [(d.m, d.m)]


class TestDualCertificate:
    def test_identity_dictionary(self, identity8):
        cert = sk.dual_certificate(identity8, np.array([1, 4]), np.array([1.0, -1.0]))
        assert cert.valid
        assert cert.sup_off == 0.0
        assert np.array_equal(cert.v[[1, 4]], [1.0, -1.0])

    def test_orthogonal_blocks(self):
        # support block orthogonal to the rest: off-support certificate is zero
        entries = np.eye(6)[:, :4]
        entries[:, 2:] = 0.0
        entries[4, 2] = 1.0
        entries[5, 3] = 1.0
        d = Dictionary("blocks", entries)
        cert = sk.dual_certificate(d, np.array([0, 1]), np.array([1.0, 1.0]))
        assert cert.valid and cert.sup_off == 0.0

    def test_sign_interpolation_exact(self):
        d = sk.build_delsarte_goethals(1)
        rng = sk.derive_rng(0, "cert")
        inst = sk.sample_generic_signal(d.N, 4, "unit", rng)
        cert = sk.dual_certificate(d, inst.support, inst.signs)
        assert np.abs(cert.v[inst.support] - inst.signs).max() <= 1e-10

    def test_dg_validity_rate_against_sign_tail_bound(self):
        # with the support fixed, random signs make each off-support entry a
        # +-1 combination with small coefficients; the exponential tail bound
        # 2 (N-k) exp(-1/(8 max ||w_i||^2)) caps the invalidity rate
        d = sk.build_delsarte_goethals(1)
        k, trials = 4, 1000
        invalid = 0
        bounds = []
        for t in range(trials):
            rng = sk.derive_rng(t, "cert-rate")
            inst = sk.sample_generic_signal(d.N, k, "unit", rng)
            sub = d.entries[:, inst.support]
            gram = sub.T @ sub
            w = np.linalg.solve(gram, sub.T @ d.entries)
            w_sq = (w ** 2).sum(axis=0)
            w_sq[inst.support] = 0.0
            bounds.append(min(1.0, 2 * (d.N - k) * math.exp(-1 / (8 * w_sq.max()))))
            cert = sk.dual_certificate(d, inst.support, inst.signs)
            invalid += not cert.valid
        rate = invalid / trials
        cap = float(np.mean(bounds))
        sigma = math.sqrt(cap * (1 - cap) / trials) if 0 < cap < 1 else 0.0
        assert rate <= cap + 3 * sigma + 1e-9

    def test_ill_conditioned_flagged(self):
        base = sk.build_gaussian(8, 4, seed=1)
        entries = base.entries.copy()
        entries[:, 1] = entries[:, 0]          # duplicate column
        d = Dictionary("dup", entries)
        cert = sk.dual_certificate(d, np.array([0, 1]), np.array([1.0, 1.0]))
        assert not cert.valid
        assert not np.isfinite(cert.gram_conditioning) or cert.gram_conditioning > 1e12

    def test_gram_conditioning_is_eigenvalue_ratio(self):
        # a dg s=1 pair at |<a_i, a_j>| = 1/sqrt(16): the Gram [[1, c], [c, 1]]
        # has eigenvalues 1 -+ 1/4, so lambda_max / lambda_min = 5/3
        d = sk.build_delsarte_goethals(1)
        inner = d.entries[:, 0] @ d.entries
        j = int(np.flatnonzero(np.abs(np.abs(inner) - 0.25) < 1e-12)[0])
        cert = sk.dual_certificate(d, np.array([0, j]), np.array([1.0, -1.0]))
        assert cert.v is not None
        assert cert.gram_conditioning == pytest.approx((1 + 0.25) / (1 - 0.25), rel=1e-12)


class TestCpConditions:
    def test_identity_no_noise(self, identity8):
        conds = sk.cp_conditions(identity8, np.array([0, 3]),
                                 np.array([1.0, -1.0]), np.zeros(8))
        assert conds.all_ok
        assert conds.margins["noise_correlation"] == pytest.approx(
            2 * math.sqrt(math.log(8)))

    def test_large_noise_fails_condition_two(self, identity8):
        z = np.full(8, 10.0)
        conds = sk.cp_conditions(identity8, np.array([0]), np.array([1.0]), z)
        assert not conds.noise_correlation_ok
        assert conds.margins["noise_correlation"] < 0

    @pytest.mark.parametrize("angle", [0.0, 1e-7])
    def test_uninvertible_support_fails_without_raising(self, angle):
        # two equal columns (lambda_min <= 0) and two at an angle of 1e-7
        # (condition about 4e14, past CONDITION_LIMIT) follow the rule of
        # dual_certificate: both conditions on the support fail with None
        # margins, and the noise condition is still evaluated
        entries = np.zeros((4, 3))
        entries[0, 0] = 1.0
        entries[:2, 1] = math.cos(angle), math.sin(angle)
        entries[2, 2] = 1.0
        d = Dictionary("pair", entries)
        support, signs = np.array([0, 1]), np.array([1.0, -1.0])
        assert not sk.dual_certificate(d, support, signs).valid
        conds = sk.cp_conditions(d, support, signs, np.zeros(4))
        assert not (conds.inverse_gram_ok or conds.certificate_ok or conds.all_ok)
        assert conds.noise_correlation_ok
        assert conds.margins == {"inverse_gram": None, "certificate": None,
                                 "noise_correlation": 2 * math.sqrt(math.log(3))}

    def test_margins_match_direct_formulas(self):
        d = sk.build_gaussian(16, 40, seed=9)
        rng = sk.derive_rng(1, "cp")
        inst = sk.sample_generic_signal(40, 3, "unit", rng)
        obs = sk.observe(d, inst, sigma=0.1, rng=rng)
        conds = sk.cp_conditions(d, inst.support, inst.signs, obs.z)
        sub = d.entries[:, inst.support]
        gram = sub.T @ sub
        inv_norm = np.linalg.norm(np.linalg.inv(gram), 2)
        assert conds.margins["inverse_gram"] == pytest.approx(2 - inv_norm, abs=1e-12)
        corr = np.abs(d.entries.T @ obs.z).max()
        assert conds.margins["noise_correlation"] == pytest.approx(
            2 * math.sqrt(math.log(40)) - corr, abs=1e-12)
        off = np.setdiff1d(np.arange(40), inst.support)
        cross = d.entries[:, off].T @ sub
        lhs = (np.abs(cross @ np.linalg.solve(gram, sub.T @ obs.z)).max()
               + math.sqrt(8 * math.log(40))
               * np.abs(cross @ np.linalg.solve(gram, inst.signs)).max())
        want = (2 - math.sqrt(2)) * math.sqrt(2 * math.log(40)) - lhs
        assert conds.margins["certificate"] == pytest.approx(want, abs=1e-12)

    def test_sign_term_is_the_certificate_sup_off(self):
        # with z = 0 the noise term is 0, so the certificate margin is the
        # sign term scaled; it is dual_certificate's sup_off bit for bit
        d = sk.build_delsarte_goethals(1)
        n = d.N
        for t in range(50):
            inst = sk.sample_generic_signal(n, 3, "unit", sk.derive_rng(t, "cp-cert"))
            cert = sk.dual_certificate(d, inst.support, inst.signs)
            conds = sk.cp_conditions(d, inst.support, inst.signs, np.zeros(d.m))
            want = ((2.0 - math.sqrt(2.0)) * math.sqrt(2.0 * math.log(n))
                    - (0.0 + math.sqrt(8.0 * math.log(n)) * cert.sup_off))
            assert conds.margins["certificate"] == want


BAD_SUPPORTS = [
    ([], [], "support is empty"),
    ([0, 1], [1.0], "must be 1-d and aligned"),
    ([[0, 1]], [[1.0, -1.0]], "must be 1-d and aligned"),
    ([0, 128], [1.0, -1.0], r"column indices in \[0, 128\)"),
    ([-1, 2], [1.0, -1.0], "column indices"),
    ([0.0, 2.0], [1.0, -1.0], "column indices"),
    ([0, 0], [1.0, -1.0], "must not repeat a column index"),
]
# the noise z of cp_conditions on a good support of dg s=1 (m = 16)
BAD_NOISE = [
    (np.zeros((16, 2)), r"z has shape \(16, 2\), expected \(16,\)"),
    (np.full(16, np.nan), "z must be finite"),
    (np.zeros(15), r"z has shape \(15,\)"),
]


def bad_input_rows():
    """(check, support, signs, z, message): each bad support on both checks,
    each bad z on cp_conditions."""
    for i, (support, signs, message) in enumerate(BAD_SUPPORTS):
        for check in (sk.dual_certificate, sk.cp_conditions):
            yield pytest.param(check, support, signs, np.zeros(16), message,
                               id=f"support{i}-signs{i}-{message}-{check.__name__}")
    for i, (z, message) in enumerate(BAD_NOISE):
        yield pytest.param(sk.cp_conditions, [0, 1], [1.0, -1.0], z, message,
                           id=f"z{i}-{message}-cp_conditions")


@pytest.mark.parametrize("check, support, signs, z, message", bad_input_rows())
def test_bad_support_is_a_named_input_error(check, support, signs, z, message):
    d = sk.build_delsarte_goethals(1)
    args = (d, support, signs) + ((z,) if check is sk.cp_conditions else ())
    with pytest.raises(SolverInputError, match=message):
        check(*args)


class TestErrorReport:
    def test_exact_sparse_exact_recovery(self):
        d = sk.build_delsarte_goethals(1)
        inst = bp_instance(d, 2, seed=1)
        res = sk.basis_pursuit(d, inst.y, 0.0)
        rep = sk.error_report(inst, res, eps=0.1)
        assert rep.err_on_l2 <= 1e-8 and rep.err_off_l1 <= 1e-8
        assert rep.bound_on == 0.0 and rep.bound_off == 0.0

    def test_compressible_bounds(self):
        d = sk.build_delsarte_goethals(1)
        rng = sk.derive_rng(5, "err")
        inst = sk.sample_generic_signal(d.N, 2, "compressible", rng)
        obs = sk.observe(d, inst, sigma=0.0, rng=rng)
        res = sk.basis_pursuit(d, obs.y, 0.0)
        rep = sk.error_report(obs, res, eps=0.1)
        assert rep.bound_off == pytest.approx(4.0 * inst.tail_l1)

    def test_on_support_constant_frozen_value(self):
        # direct evaluation of 1/(2 sqrt(2 ln(2N/eps))) at N=256, eps=0.1
        assert sk.on_support_error_constant(256, 0.1) == pytest.approx(
            0.12097703629486811, abs=1e-15)

    # 0 and 2N divided by zero, -1 left the log's domain, nan passed through
    # and 1 < eps < 2N gave a constant that means nothing
    @pytest.mark.parametrize("eps", [0.0, 1.0, 256.0, -1.0, math.nan, 1.5])
    def test_eps_outside_unit_interval_refused(self, eps):
        d = sk.build_delsarte_goethals(1)
        inst = bp_instance(d, 2, seed=1)
        res = sk.basis_pursuit(d, inst.y, 0.0)
        for call in (lambda: sk.on_support_error_constant(d.N, eps),
                     lambda: sk.error_report(inst, res, eps)):
            with pytest.raises(SolverInputError, match=r"^eps must be in \(0, 1\)$"):
                call()


def test_bp_matches_linear_programming_oracle():
    # independent route: min sum(u+v) s.t. A(u-v) = y, u, v >= 0
    from scipy.optimize import linprog
    for seed in range(6):
        d = sk.build_gaussian(6, 14, seed=seed)
        inst = bp_instance(d, 2, seed=seed + 50)
        res = sk.basis_pursuit(d, inst.y, 0.0)
        assert res.converged
        a = d.entries
        n = d.N
        lp = linprog(c=np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=inst.y,
                     bounds=[(0, None)] * (2 * n), method="highs")
        assert lp.status == 0
        assert abs(res.objective - lp.fun) <= 1e-7 * (1 + lp.fun)


def test_bpdn_matches_lp_oracle_on_polyhedral_relaxation():
    # with an l_inf-ball noise set the problem stays an LP; our solver's
    # l2-ball solution must cost at least the LP optimum and at most the
    # equality-constrained one, bracketing the certified objective
    from scipy.optimize import linprog
    d = sk.build_gaussian(8, 20, seed=3)
    inst = bp_instance(d, 3, seed=9)
    eps = 0.05
    res = sk.basis_pursuit(d, inst.y, eps)
    assert res.converged
    a, n = d.entries, d.N
    # inner LP: ||Az - y||_inf <= eps / sqrt(m)  (subset of the l2 ball)
    box_in = eps / math.sqrt(d.m)
    lp_in = linprog(c=np.ones(2 * n),
                    A_ub=np.vstack([np.hstack([a, -a]), -np.hstack([a, -a])]),
                    b_ub=np.concatenate([inst.y + box_in, box_in - inst.y]),
                    bounds=[(0, None)] * (2 * n), method="highs")
    # outer LP: ||Az - y||_inf <= eps (superset of the l2 ball)
    lp_out = linprog(c=np.ones(2 * n),
                     A_ub=np.vstack([np.hstack([a, -a]), -np.hstack([a, -a])]),
                     b_ub=np.concatenate([inst.y + eps, eps - inst.y]),
                     bounds=[(0, None)] * (2 * n), method="highs")
    assert lp_in.status == 0 and lp_out.status == 0
    assert lp_out.fun - 1e-9 <= res.objective <= lp_in.fun + 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(1, 2))
def test_bp_certificate_implies_recovery(seed, k):
    # whenever the half-certificate validates, BP must recover exactly
    d = sk.build_delsarte_goethals(1)
    rng = np.random.default_rng(seed)
    inst = sk.sample_generic_signal(d.N, k, "unit", rng)
    cert = sk.dual_certificate(d, inst.support, inst.signs)
    if cert.valid:
        y = d.entries @ inst.x
        res = sk.basis_pursuit(d, y, 0.0)
        assert res.converged
        assert np.linalg.norm(res.x_hat - inst.x) <= 1e-6
