import gc
import hashlib
import json
import math
import sys
import threading
import tracemalloc
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stripkit as sk
from stripkit import certify
from stripkit.certify import (MC_BLOCK, BudgetError, _mc_draws, _sinc_stats,
                              hollow_gram_norms, wsinc_weight)
from stripkit.cli import main
from stripkit.seeding import derive_rng

EDGE = 1 + 1e-10   # ulp guard for floors evaluated exactly at (k-1) mu


class TestSampleSupport:
    def test_full_set(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(sk.sample_support(5, 5, rng), np.arange(5))

    def test_single_index_uniformity(self):
        rng = np.random.default_rng(42)
        counts = np.zeros(5)
        trials = 100_000
        for _ in range(trials):
            counts[sk.sample_support(5, 1, rng)[0]] += 1
        assert np.abs(counts / trials - 0.2).max() < 0.01

    def test_all_pairs_attainable(self):
        seen = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            seen.add(tuple(sk.sample_support(4, 2, rng)))
        assert seen == {tuple(sorted(c)) for c in combinations(range(4), 2)}

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sk.sample_support(4, 5, np.random.default_rng(0))


class TestStripEstimate:
    def test_identity_always_isometric(self, identity8):
        rep = sk.strip_estimate(identity8, 3, delta=0.01, method="exhaustive")
        assert rep.estimate == 1.0
        assert rep.ci == (1.0, 1.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_gershgorin_floor_chirp(self, k):
        d = sk.build_chirp(7)
        mu = sk.coherence_profile(d).mu
        rep = sk.strip_estimate(d, k, delta=(k - 1) * mu * EDGE, method="exhaustive")
        assert rep.estimate == 1.0

    def test_monte_carlo_vs_exhaustive(self):
        d = sk.build_gaussian(8, 16, seed=7)
        exact = sk.strip_estimate(d, 3, 0.6, "exhaustive")
        assert exact.trials == 560
        mc = sk.strip_estimate(d, 3, 0.6, "monte_carlo", trials=10_000, seed=1)
        assert mc.ci[0] <= exact.estimate <= mc.ci[1]

    def test_budget(self):
        d = sk.build_gaussian(8, 40, seed=0)
        with pytest.raises(BudgetError):
            sk.strip_estimate(d, 10, 0.5, "exhaustive")

    def test_monotone_in_delta(self):
        d = sk.build_gaussian(8, 16, seed=3)
        ests = [sk.strip_estimate(d, 3, delta, "monte_carlo", trials=2000, seed=5).estimate
                for delta in (0.2, 0.4, 0.6, 0.8)]
        assert all(a <= b for a, b in zip(ests, ests[1:]))

    def test_determinism(self):
        d = sk.build_gaussian(8, 16, seed=3)
        a = sk.strip_estimate(d, 3, 0.5, "monte_carlo", trials=500, seed=9)
        b = sk.strip_estimate(d, 3, 0.5, "monte_carlo", trials=500, seed=9)
        assert a.as_dict() == b.as_dict()


class TestSincEstimate:
    def test_orthonormal_square(self, identity8):
        rep = sk.sinc_estimate(identity8, 3, alpha=1e-12, method="exhaustive")
        assert rep.estimate == 1.0

    def test_alpha_above_k_mu_sq(self):
        d = sk.build_delsarte_goethals(1)
        mu = sk.coherence_profile(d).mu
        k = 3
        rep = sk.sinc_estimate(d, k, alpha=k * mu * mu * EDGE,
                               method="monte_carlo", trials=500, seed=0)
        assert rep.estimate == 1.0

    def test_monte_carlo_vs_exhaustive_subsampled(self):
        # exhaustive oracle on a column-subsampled dictionary
        full = sk.build_delsarte_goethals(1)
        sub = sk.Dictionary("dg-sub", full.entries[:, :20].copy())
        k, mu = 4, 0.25
        alpha = 0.6 * k * mu * mu
        exact = sk.sinc_estimate(sub, k, alpha, "exhaustive")
        mc = sk.sinc_estimate(sub, k, alpha, "monte_carlo", trials=8000, seed=3)
        assert mc.ci[0] <= exact.estimate <= mc.ci[1]

    def test_monotone_in_alpha(self):
        d = sk.build_gaussian(8, 16, seed=3)
        ests = [sk.sinc_estimate(d, 3, a, "monte_carlo", trials=2000, seed=5).estimate
                for a in (0.05, 0.1, 0.2, 0.4)]
        assert all(x <= y for x, y in zip(ests, ests[1:]))


def exhaustive_wsinc(d, k, delta, alpha):
    """Independent oracle: exact weighted sum over every (support, outside i)."""
    gram = d.gram()
    total = 0.0
    violations = 0
    count = 0
    for sup in combinations(range(d.N), k):
        idx = np.array(sup)
        cross = gram[idx, :]
        energy = (np.abs(cross) ** 2).sum(axis=0)
        energy[idx] = -np.inf
        violating = energy.max() > alpha
        for i in range(d.N):
            if i in sup:
                continue
            count += 1
            if violating:
                violations += 1
                t = math.sqrt(max(energy[i], 0.0))
                total += wsinc_weight(delta, t)
    return total / count, violations / count


class TestWsinc:
    def test_no_violations_means_zero(self):
        d = sk.build_delsarte_goethals(1)
        mu = 0.25
        k = 2
        rep = sk.wsinc_estimate(d, k, delta=0.5, alpha=k * mu * mu * EDGE,
                                trials=300, seed=0)
        assert rep.wsinc_lhs == 0.0
        assert rep.estimate == 0.0

    def test_delta_one_reduces_to_violation_probability(self):
        d = sk.build_gaussian(6, 12, seed=2)
        rep = sk.wsinc_estimate(d, 2, delta=1.0, alpha=0.05, trials=2000, seed=4)
        assert rep.wsinc_lhs == pytest.approx(rep.estimate, abs=1e-12)

    def test_monte_carlo_vs_exhaustive(self):
        d = sk.build_gaussian(6, 12, seed=2)
        k, delta, alpha = 2, 0.5, 0.05
        lhs, viol = exhaustive_wsinc(d, k, delta, alpha)
        rep = sk.wsinc_estimate(d, k, delta, alpha, trials=20_000, seed=11)
        # bounded-variable mean: conservative 4 sigma window
        margin = 4.0 / math.sqrt(rep.trials)
        assert abs(rep.wsinc_lhs - lhs) <= margin
        assert rep.ci[0] <= viol <= rep.ci[1]

    def test_threshold_reported(self):
        d = sk.build_gaussian(6, 12, seed=2)
        rep = sk.wsinc_estimate(d, 2, 0.5, 0.05, trials=100, seed=0, eps=0.1)
        assert rep.wsinc_threshold == pytest.approx(0.1 ** 2 / (12 - 2))


class TestSufficientConditions:
    def test_sinc_zero_coherence_always_satisfied(self):
        v = sk.sinc_sufficient(0.0, 0.0, k=5, N=100, eps=0.1, a=0.5, beta=1.0)
        assert v.satisfied
        assert v.derived["alpha"] == pytest.approx(1.0 / math.log(2000))

    def test_sinc_boundary(self):
        k, N, eps, a, beta = 5, 100, 0.1, 0.5, 1.0
        L = math.log(2 * N / eps)
        mu4 = (1 - a) ** 2 * beta ** 2 / (32 * k * L ** 3)
        ok = sk.sinc_sufficient((mu4 * (1 - 1e-12)) ** 0.25, 0.0, k, N, eps, a, beta)
        bad = sk.sinc_sufficient((mu4 * (1 + 1e-12)) ** 0.25, 0.0, k, N, eps, a, beta)
        assert ok.satisfied and not bad.satisfied
        assert abs(bad.slack["mu4"]) < 1e-12

    def test_via_sinc_chirp_numbers(self):
        # large prime chirp: mu = m^(-1/2), theta = 1/(m+1); evaluate directly
        m, k, delta, eps1, a = 10007, 10, 0.5, 0.01, 0.5
        mu, theta = m ** -0.5, 1.0 / (m + 1)
        v = sk.strip_sufficient_via_sinc(mu, theta, k, delta, eps1, a)
        want_theta_ok = theta <= a * delta ** 2 / k ** 2
        want_mu_ok = mu ** 4 <= (1 - a) ** 2 * delta ** 4 / (
            32 * k ** 3 * math.log(2 * k / eps1))
        assert v.satisfied == (want_theta_ok and want_mu_ok)
        assert v.satisfied   # recorded verdict for these numbers

    @pytest.mark.parametrize("eps1", [0.0, -0.5, 1.0, 7.99, math.nan])
    @pytest.mark.parametrize("a", [0.5, None])
    def test_via_sinc_eps1_is_a_probability(self, eps1, a):
        # eps1 is a failure probability; at 1 or more the verdict is vacuous
        with pytest.raises(ValueError, match=r"need 0 < eps1 < 1"):
            sk.strip_sufficient_via_sinc(0.1, 0.001, 4, 0.5, eps1, a)

    def test_via_sinc_scaling_law(self):
        # max admissible mu from bisection scales like k^(-3/4)
        delta, eps1, a = 0.5, 0.01, 0.5
        def mu_star(k):
            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if sk.strip_sufficient_via_sinc(mid, 0.0, k, delta, eps1, a).satisfied:
                    lo = mid
                else:
                    hi = mid
            return lo
        k1, k2 = 10, 10_000
        slope = (math.log(mu_star(k2)) - math.log(mu_star(k1))) / (
            math.log(k2) - math.log(k1))
        assert -0.80 < slope < -0.74

    def test_direct_limit_case(self):
        # mu = theta = 0 and negligible k/N reduces to the constants inequality
        v = sk.strip_sufficient_direct(0.0, 0.0, k=4, N=10 ** 9, frame_norm=1.0,
                                       delta=0.5, eps=0.01,
                                       a=1e-4, b=1e-4, c=1e-4)
        lhs = math.sqrt(1e-4) + math.sqrt(2e-8) + math.sqrt(1e-4)
        assert v.satisfied == (lhs <= math.exp(-0.25) * 0.5 / (6 * math.sqrt(2)))
        assert v.satisfied

    def test_direct_boundary_flip(self):
        kwargs = dict(theta=0.0, k=4, N=10 ** 6, frame_norm=1.0, delta=0.5,
                      eps=0.01, a=1e-4, b=1e-4, c=1e-4)
        lo = sk.strip_sufficient_direct(mu=0.0, **kwargs)
        assert lo.satisfied
        rhs1 = min((1 - 1e-4) ** 2 * 1e-8 / (32 * math.log(8) * math.log(math.e / 0.01)),
                   1e-8) / math.log(1 / 0.01) ** 2
        mu_edge = (rhs1 / 4) ** 0.25
        hi = sk.strip_sufficient_direct(mu=mu_edge * (1 + 1e-6), **kwargs)
        assert not hi.satisfied

    def test_direct_grid_search(self):
        # Kerdock-family scaling mu^4 = 1/m, theta = 1/m: admissible once m is
        # a large multiple of k log^3(1/eps); the grid helper finds a triple
        k, eps, delta = 4, 0.05, 0.9
        m = 2 ** 24
        mu = m ** -0.25
        theta = 1.0 / m
        v = sk.strip_sufficient_direct(mu, theta, k, N=10 ** 9, frame_norm=1.0,
                                       delta=delta, eps=eps)
        assert v.satisfied
        # relaxing coherence keeps it satisfied
        v2 = sk.strip_sufficient_direct(mu / 2, theta / 2, k, N=10 ** 9,
                                        frame_norm=1.0, delta=delta, eps=eps)
        assert v2.satisfied

    def test_direct_search_keeps_given_constants(self):
        # only the omitted c is searched; a and b stay as given
        args = (2 ** -6, 2.0 ** -24, 4, 10 ** 9, 1.0, 0.9, 0.05)
        v = sk.strip_sufficient_direct(*args, a=0.3, b=0.2)
        assert (v.inputs["a"], v.inputs["b"]) == (0.3, 0.2)
        best = max(certify._ABC_LATTICE, key=lambda c: min(
            sk.strip_sufficient_direct(*args, 0.3, 0.2, c)
            .derived["normalized_slack"].values()))
        assert v.as_dict() == sk.strip_sufficient_direct(*args, 0.3, 0.2, best).as_dict()

    def test_direct_eps_range(self):
        with pytest.raises(ValueError):
            sk.strip_sufficient_direct(0.1, 0.01, k=4, N=100, frame_norm=1.0,
                                       delta=0.5, eps=0.9, a=0.1, b=0.1, c=0.1)

    def test_oa_required_m(self):
        assert math.ceil(sk.oa_strip_required_m(6, 4, 0.5, 0.01)) == 2123
        v = sk.oa_strip_sufficient(6, 4, 0.5, 0.01, m=2123)
        assert v.satisfied
        assert not sk.oa_strip_sufficient(6, 4, 0.5, 0.01, m=2122).satisfied

    # eps is a failure probability: at 1 or above the verdict is vacuous
    @pytest.mark.parametrize("eps", [1.0, 1e6])
    def test_oa_and_dg_refuse_eps_at_least_one(self, eps):
        with pytest.raises(ValueError, match="^need eps < 1$"):
            sk.oa_strip_required_m(2, 4, 0.5, eps)
        with pytest.raises(ValueError, match="^need eps < 1$"):
            sk.oa_strip_sufficient(2, 4, 0.5, eps, m=100)
        with pytest.raises(ValueError, match="^need eps < 1$"):
            sk.dg_sparsity_bound(64, 0.5, eps)
        with pytest.raises(ValueError, match="^need eps < 1$"):
            certify.dg_sparsity_sufficient(64, 0.5, eps, 30)

    @pytest.mark.parametrize("m", [0, -5])
    def test_oa_refuses_nonpositive_m(self, m):
        with pytest.raises(ValueError, match="^need m > 0$"):
            sk.oa_strip_sufficient(6, 4, 0.5, 0.01, m=m)

    def test_oa_required_m_monotone_in_delta(self):
        ms = [sk.oa_strip_required_m(6, 4, d, 0.01) for d in (0.5, 0.25, 0.1, 0.01)]
        assert all(a < b for a, b in zip(ms, ms[1:]))

    def test_dg_sparsity_constants(self):
        # the quoted 0.35 coefficient is the exact-moment route at eps = 0.001
        coef = sk.dg_sparsity_bound(1, 1.0, 0.001, constant=0.95)
        assert round(coef, 2) == 0.35
        got = sk.dg_sparsity_bound(4096, 0.5, 0.001, constant=0.95)
        want = 0.95 * (0.001) ** (1 / 7) * 0.5 ** (6 / 7) * 4096 ** (3 / 7)
        assert got == pytest.approx(want, rel=1e-12)
        assert sk.dg_sparsity_bound(4096, 0.5, 0.001, constant=0.52) < got

    def test_gershgorin_evaluator(self):
        assert sk.gershgorin_sufficient(0.1, 3, delta=0.2).satisfied
        assert not sk.gershgorin_sufficient(0.1, 3, delta=0.19).satisfied

    # each refused before it could be squared or subtracted into a passing margin
    NEGATIVE = {
        "sinc mu": (lambda: sk.sinc_sufficient(-0.01, 1e-5, 4, 100, 0.1), "mu"),
        "sinc theta": (lambda: sk.sinc_sufficient(0.01, -1e-5, 4, 100, 0.1), "theta"),
        "sinc searched": (lambda: sk.sinc_sufficient(-0.01, 0.0, 4, 100, 0.1, a=None),
                          "mu"),
        "tail mu": (lambda: sk.sinc_tail_sufficient(-0.1, 0.01, 4, 0.5, 1.0), "mu"),
        "tail theta": (lambda: sk.sinc_tail_sufficient(0.1, -0.01, 4, 0.5, 1.0),
                       "theta"),
        "via sinc delta": (lambda: sk.strip_sufficient_via_sinc(0.01, 1e-5, 4, -0.5, 0.1),
                           "delta"),
        "via sinc mu": (lambda: sk.strip_sufficient_via_sinc(-0.01, 1e-5, 4, 0.5, 0.1),
                        "mu"),
        "direct delta": (lambda: sk.strip_sufficient_direct(
            0.0, 0.0, 4, 10 ** 9, 1.0, -0.5, 0.01, 1e-4, 1e-4, 1e-4), "delta"),
        "direct frame_norm": (lambda: sk.strip_sufficient_direct(
            0.0, 0.0, 4, 10 ** 9, -1.0, 0.5, 0.01, 1e-4, 1e-4, 1e-4), "frame_norm"),
        "gershgorin mu": (lambda: sk.gershgorin_sufficient(-0.1, 3, 0.1), "mu"),
        "gershgorin delta": (lambda: sk.gershgorin_sufficient(0.1, 3, -0.5), "delta"),
        "dg delta": (lambda: certify.dg_sparsity_sufficient(4096, -0.5, 0.001, 3), "delta"),
        "dg bound delta": (lambda: sk.dg_sparsity_bound(4096, -0.5, 0.001), "delta"),
    }

    @pytest.mark.parametrize("case", sorted(NEGATIVE))
    def test_negative_input_refused(self, case):
        call, name = self.NEGATIVE[case]
        with pytest.raises(ValueError, match=f"^need {name} >= 0$"):
            call()

    @pytest.mark.parametrize("constant", [0.0, -1.0])
    def test_nonpositive_dg_constant_refused(self, constant):
        with pytest.raises(ValueError, match="^need constant > 0$"):
            certify.dg_sparsity_sufficient(4096, 0.5, 0.001, 3, constant=constant)

    def test_zero_delta_is_legal(self):
        assert not sk.gershgorin_sufficient(0.1, 3, 0.0).satisfied
        assert sk.gershgorin_sufficient(0.0, 3, 0.0).satisfied
        assert sk.dg_sparsity_bound(4096, 0.0, 0.001) == 0.0

    def test_split_constant_search(self):
        # a=None picks the best budget split; it can only help
        mu, theta, k, N, eps = 0.02, 2e-6, 4, 4096, 0.1
        fixed = sk.sinc_sufficient(mu, theta, k, N, eps, a=0.5)
        searched = sk.sinc_sufficient(mu, theta, k, N, eps, a=None)
        assert searched.satisfied or not fixed.satisfied
        assert 0 < searched.inputs["a"] < 1
        w_fixed = sk.strip_sufficient_via_sinc(mu, theta, k, 0.5, 0.01, a=0.5)
        w_search = sk.strip_sufficient_via_sinc(mu, theta, k, 0.5, 0.01, a=None)
        assert w_search.satisfied or not w_fixed.satisfied
        # relaxing coherence preserves a satisfied searched verdict
        if w_search.satisfied:
            assert sk.strip_sufficient_via_sinc(mu / 2, theta / 2, k, 0.5,
                                                0.01, a=None).satisfied


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluator_monotone_in_mu_theta(data):
    # relaxing coherence never breaks a satisfied verdict
    k = data.draw(st.integers(2, 50))
    N = data.draw(st.integers(100, 10 ** 6))
    eps = data.draw(st.floats(1e-4, 0.4))
    a = data.draw(st.floats(0.05, 0.95))
    mu = data.draw(st.floats(0.0, 0.5))
    theta = data.draw(st.floats(0.0, 0.25))
    frac_mu = data.draw(st.floats(0.0, 1.0))
    frac_th = data.draw(st.floats(0.0, 1.0))
    v1 = sk.sinc_sufficient(mu, theta, k, N, eps, a, beta=1.0)
    v2 = sk.sinc_sufficient(mu * frac_mu, theta * frac_th, k, N, eps, a, beta=1.0)
    if v1.satisfied:
        assert v2.satisfied
    w1 = sk.strip_sufficient_via_sinc(mu, theta, k, 0.5, min(eps, 1.0), a)
    w2 = sk.strip_sufficient_via_sinc(mu * frac_mu, theta * frac_th, k, 0.5,
                                      min(eps, 1.0), a)
    if w1.satisfied:
        assert w2.satisfied


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(2, 4))
def test_gershgorin_floor_property(seed, k):
    # estimate is 1 for every delta at or above (k-1) mu, any dictionary
    d = sk.build_gaussian(6, 12, seed)
    mu = sk.coherence_profile(d).mu
    rep = sk.strip_estimate(d, k, (k - 1) * mu * EDGE, "exhaustive")
    assert rep.estimate == 1.0


def test_clopper_pearson_edges():
    lo, hi = sk.clopper_pearson(0, 100)
    assert lo == 0.0 and 0 < hi < 0.1
    lo, hi = sk.clopper_pearson(100, 100)
    assert hi == 1.0 and 0.9 < lo < 1.0
    lo, hi = sk.clopper_pearson(50, 100)
    assert lo < 0.5 < hi


def _cp_grid():
    rng = np.random.default_rng(5)
    for trials in range(1, 31):
        yield from ((s, trials) for s in range(trials + 1))
    for trials in (100, 2500, 10 ** 4, 10 ** 5):
        edges = {0, 1, 2, trials // 2, trials - 2, trials - 1, trials}
        sampled = rng.integers(0, trials + 1, size=12).tolist()
        yield from ((s, trials) for s in sorted(edges | set(sampled)))


def test_clopper_pearson_bit_equal_to_beta_ppf():
    # the interval calls betaincinv directly; it must reproduce the
    # scipy.stats beta quantiles it replaced, bit for bit
    from scipy import stats
    for level in (certify.CI_LEVEL, 0.99, 0.95, 0.999):
        alpha = 1.0 - level
        for s, n in _cp_grid():
            lo = 0.0 if s == 0 else float(stats.beta.ppf(alpha / 2, s, n - s + 1))
            hi = 1.0 if s == n else float(stats.beta.ppf(1 - alpha / 2, s + 1, n - s))
            assert sk.clopper_pearson(s, n, level) == (lo, hi), (s, n, level)


def test_per_trial_streams_are_stable():
    # trial t's support does not depend on how many trials run
    a = derive_rng(3, "strip", 5)
    b = derive_rng(3, "strip", 5)
    assert np.array_equal(sk.sample_support(20, 4, a), sk.sample_support(20, 4, b))


class TestBatchedDraws:
    def test_prefix_stable(self):
        short, _ = _mc_draws(2048, 5, 7, "strip", 500, probe=False)
        long_, _ = _mc_draws(2048, 5, 7, "strip", 3000, probe=False)
        assert short.shape == (500, 5) and long_.shape == (3000, 5)
        assert np.array_equal(short, long_[:500])
        assert (np.diff(long_, axis=1) > 0).all()
        assert long_.min() >= 0 and long_.max() < 2048

    def test_probe_prefix_stable(self):
        sups, probes = _mc_draws(40, 3, 2, "wsinc", 700, probe=True)
        sups2, probes2 = _mc_draws(40, 3, 2, "wsinc", MC_BLOCK + 5, probe=True)
        assert np.array_equal(sups, sups2[:700])
        assert np.array_equal(probes, probes2[:700])

    def test_pairs_and_outside_index_uniform(self):
        # every (pair, outside index) cell of N=5, k=2 has probability 1/30
        trials = 60_000
        sups, probes = _mc_draws(5, 2, 3, "wsinc", trials, probe=True)
        assert not (sups == probes[:, None]).any()
        pairs = {pair: i for i, pair in enumerate(combinations(range(5), 2))}
        cells = np.zeros((len(pairs), 5))
        for (a, b), i in zip(sups, probes):
            cells[pairs[(a, b)], i] += 1
        pair_freq = cells.sum(axis=1) / trials
        assert np.abs(pair_freq - 0.1).max() < 0.006
        joint = cells[cells > 0] / trials
        assert joint.size == 30
        assert np.abs(joint - 1 / 30).max() < 0.004

    def test_huge_n_needs_no_n_sized_buffer(self):
        # Floyd's algorithm needs no N-sized buffer; a huge N is fine
        sups, probes = _mc_draws(10 ** 12, 4, 0, "sinc", 3, probe=True)
        assert sups.shape == (3, 4) and (np.diff(sups, axis=1) > 0).all()
        assert not (sups == probes[:, None]).any()

    # sha256 of the int64 bytes of the supports and of the outside indices
    # (None without probes); pinned before the column-wise Floyd step, which
    # must not move a single draw. 3000 trials cross a block boundary.
    DRAWS_SHA256 = {
        (16, 3, 3, "wsinc", 2500): (
            "5d7dc379b507a45f57ea15e75778a66f609097f8d305ac968bb384e39912c414",
            "91534fc2b8e5be4b98c3f7b0ed917ef37f7c3d04353ecdcfd42bf7c85f489a94"),
        (40, 3, 2, "wsinc", MC_BLOCK + 5): (
            "0cf8e21d0c347c9c41b4a2fd1f4806e5f00bbfe85d3f8eca34ccced2b1d50853",
            "67822bd23455d902cb13ace3a1309a6c5478dd5b9aca234af7da4e4fda10cd3c"),
        (5, 2, 3, "wsinc", 60_000): (
            "119d37bab1be625244ea5fcb04981880b96854ad67820d8b7efcae635372aeac",
            "618b08584028b30de59b0113cdcf948e9f1fe92f8f9e5551eac70d8ac354ebba"),
        (2048, 5, 7, "strip", 3000): (
            "a20a1db0d9b7acbafbeecdf586a7df7ca17f41953e7d5f32dffffbf2c1561f0a", None),
        (2048, 8, 7, "strip", 3000): (
            "433d814b0d012c74969956e4219821dd333cd5fa606e9de0c86cf5a5add6c49e", None),
        (10 ** 12, 4, 0, "sinc", 2000): (
            "07f38742958c89d694728e29690eea26a0886142266bb7067102ac17c7190067",
            "5983012be0786e48a0177abdadc23e2620f79838a3a858f914018a84c9980ce6"),
    }

    @pytest.mark.parametrize("N, k, seed, label, trials", sorted(DRAWS_SHA256))
    def test_draws_pinned(self, N, k, seed, label, trials):
        want_sups, want_probes = self.DRAWS_SHA256[N, k, seed, label, trials]
        sups, probes = _mc_draws(N, k, seed, label, trials, probe=want_probes is not None)
        assert sups.dtype == np.int64 and sups.shape == (trials, k)
        assert hashlib.sha256(sups.tobytes()).hexdigest() == want_sups
        if want_probes is None:
            assert probes is None
        else:
            assert probes.dtype == np.int64
            assert hashlib.sha256(probes.tobytes()).hexdigest() == want_probes


def test_batched_wsinc_matches_per_trial_loop():
    d = sk.build_gaussian(6, 12, seed=2)
    k, delta, alpha, trials, seed = 2, 0.5, 0.05, 3000, 11
    rep = sk.wsinc_estimate(d, k, delta, alpha, trials=trials, seed=seed)
    sups, probes = _mc_draws(d.N, k, seed, "wsinc", trials, probe=True)
    gram = d.gram()
    total, violations = 0.0, 0
    for sup, i in zip(sups, probes):
        energy = (gram[sup, :] ** 2).sum(axis=0)
        energy[sup] = -np.inf
        if energy.max() > alpha:
            violations += 1
            total += wsinc_weight(delta, float(np.linalg.norm(gram[sup, i])))
    assert rep.successes == violations > 0
    assert rep.wsinc_lhs == pytest.approx(total / trials, rel=1e-12)


def test_wsinc_weight_vectorized():
    t = np.array([0.0, 0.1, 1.0])
    assert np.allclose(wsinc_weight(0.5, t), [wsinc_weight(0.5, x) for x in t])
    assert wsinc_weight(0.5, 0.0) == 0.0
    assert wsinc_weight(1.0, 0.0) == 1.0
    assert list(wsinc_weight(1.0, t)) == [1.0, 1.0, 1.0]


def test_gram_free_path_matches_direct():
    # N > 3000 takes the entries path for every statistic
    d = sk.build_gaussian(8, 3072, seed=5)
    k, trials, seed = 3, 40, 4
    sups, probes = _mc_draws(d.N, k, seed, "wsinc", trials, probe=True)
    a = d.entries
    norms, worst, at_probe = [], [], []
    for sup, i in zip(sups, probes):
        sub = a[:, sup].T @ a[:, sup] - np.eye(k)
        norms.append(np.linalg.norm(sub, 2))
        energy = ((a[:, sup].T @ a) ** 2).sum(axis=0)
        at_probe.append(energy[i])
        energy[sup] = -np.inf
        worst.append(energy.max())
    got_worst, got_probe = _sinc_stats(d, sups, None, probes)
    assert np.allclose(hollow_gram_norms(d, sups), norms, rtol=1e-12, atol=1e-12)
    assert np.allclose(got_worst, worst, rtol=1e-12)
    assert np.allclose(got_probe, at_probe, rtol=1e-12)
    delta, alpha = float(np.median(norms)), float(np.median(worst))
    strip = sk.strip_estimate(d, k, delta, trials=trials, seed=seed)
    strip_sups, _ = _mc_draws(d.N, k, seed, "strip", trials, probe=False)
    want = sum(np.linalg.norm(a[:, s].T @ a[:, s] - np.eye(k), 2) <= delta
               for s in strip_sups)
    assert strip.successes == want
    wsinc = sk.wsinc_estimate(d, k, 0.5, alpha, trials=trials, seed=seed)
    assert wsinc.successes == int((np.array(worst) > alpha).sum())


@pytest.mark.parametrize("trials", [0, -3])
def test_nonpositive_trials_rejected(trials):
    d = sk.build_gaussian(6, 12, seed=2)
    for call in (lambda: sk.strip_estimate(d, 2, 0.5, trials=trials),
                 lambda: sk.sinc_estimate(d, 2, 0.1, trials=trials),
                 lambda: sk.wsinc_estimate(d, 2, 0.5, 0.1, trials=trials)):
        with pytest.raises(ValueError, match="need at least one trial"):
            call()


@pytest.mark.parametrize("build, k", [
    (lambda: sk.build_family("dg", s=2), 8),
    (lambda: sk.build_gaussian(64, 2048, seed=1), 8),
    (lambda: sk.build_gaussian(8, 16, seed=1), 3),
    (lambda: sk.build_chirp(31), 4),                # complex entries
])
def test_sinc_stats_without_gram_bit_equal(build, k):
    # past the Gram cache the cross-correlation is one BLAS product, whose
    # rows are bit for bit the Gram rows the cached path reads
    d = build()
    sups, probes = _mc_draws(d.N, k, 5, "wsinc", 300, probe=True)
    direct = _sinc_stats(d, sups, None, probes)
    cached = _sinc_stats(d, sups, d.gram(), probes)
    assert all(np.array_equal(a, b) for a, b in zip(direct, cached))


@pytest.mark.parametrize("build, k, bound_mib", [
    (lambda: sk.build_gaussian(256, 3001, seed=5), 24, 64),
    (lambda: sk.build_random_harmonic(128, 4000, seed=2), 16, 48),  # complex
])
def test_strip_estimate_memory_within_chunk_budget(build, k, bound_mib):
    # past the Gram cache each chunk gathers (m, b, k) columns within
    # CHUNK_BYTES, and frees them before the next chunk gathers its own
    d = build()
    tracemalloc.start()
    try:
        sk.strip_estimate(d, k, 0.9, trials=5000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


@pytest.mark.parametrize("call", [
    lambda d: sk.strip_estimate(d, 2, math.nan, trials=10),
    lambda d: sk.sinc_estimate(d, 2, math.inf, trials=10),
    lambda d: sk.sinc_estimate(d, 2, -math.inf, "exhaustive"),
    lambda d: sk.wsinc_estimate(d, 2, math.inf, 0.1, trials=10),
    lambda d: sk.wsinc_estimate(d, 2, 0.5, math.nan, trials=10),
    lambda d: sk.wsinc_estimate(d, 2, 0.5, 0.1, trials=10, eps=math.inf),
])
def test_non_finite_threshold_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call(sk.build_gaussian(6, 12, seed=2))


@pytest.mark.parametrize("kw, name", [
    ({"delta": 1e200}, "delta"), ({"delta": -1e200}, "delta"),
    ({"delta": 0.5, "eps": 1e200}, "eps"), ({"delta": 0.5, "eps": -1e155}, "eps")])
def test_wsinc_overflowing_threshold_names_it(kw, name):
    # (1 - delta)^2 or eps^2 past the float range used to end in OverflowError
    d = sk.build_gaussian(6, 12, seed=2)
    with pytest.raises(ValueError, match=rf"^{name} is out of range"):
        sk.wsinc_estimate(d, 2, alpha=0.05, trials=50, seed=0, **kw)
    if "eps" not in kw:
        with pytest.raises(ValueError, match=r"^delta is out of range"):
            wsinc_weight(kw["delta"], 0.5)


@pytest.mark.parametrize("build", [
    lambda: sk.build_gaussian(8, 40, seed=3),
    lambda: sk.build_family("chirp", m=7),          # complex entries
])
def test_sinc_stats_independent_of_chunk_bytes(build, monkeypatch):
    d = build()
    sups, probes = _mc_draws(d.N, 3, 9, "wsinc", 50, probe=True)
    energy = (np.abs(d.gram()[sups]) ** 2).sum(axis=1)      # (B, N), one shot
    at_probe = np.take_along_axis(energy, probes[:, None], axis=1)[:, 0]
    np.put_along_axis(energy, sups, -np.inf, axis=1)
    got_worst, got_probe = _sinc_stats(d, sups, d.gram(), probes)
    assert np.array_equal(got_worst, energy.max(axis=1))
    assert np.array_equal(got_probe, at_probe)
    for gram in (d.gram(), None):
        whole = _sinc_stats(d, sups, gram, probes)
        # room for 7 supports' (k, N) cross-correlation rows per chunk
        monkeypatch.setattr(certify, "CHUNK_BYTES",
                            7 * 3 * d.N * d.entries.itemsize)
        chunked = _sinc_stats(d, sups, gram, probes)
        monkeypatch.undo()
        assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))


@pytest.mark.parametrize("N", range(1, 13))
def test_enumerate_supports_matches_itertools(N):
    for k in range(1, N + 1):
        got = certify._enumerate_supports(N, k)
        want = np.fromiter((i for sup in combinations(range(N), k) for i in sup),
                           dtype=np.int64).reshape(-1, k)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # ranks need more rows than supports; one row past the table will do
        assert certify._support_ranks(got, N) is None
        ranks = certify._support_ranks(np.concatenate([got, got[-1:]]), N)
        assert np.array_equal(ranks, np.append(np.arange(len(got)), len(got) - 1))


def test_enumerate_supports_cap_message_unchanged():
    for _ in range(2):      # a refused call is not cached: the next one refuses too
        with pytest.raises(BudgetError, match=r"^C\(40,10\) = 847660528 exceeds the "
                                              r"exhaustive cap 1000000$"):
            certify._enumerate_supports(40, 10)


def test_enumerate_supports_kept_read_only():
    table = certify._enumerate_supports(16, 3)
    assert certify._enumerate_supports(16, 3) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 5
    assert np.array_equal(table, list(combinations(range(16), 3)))
    # one table is kept: another (N, k) replaces it
    other = certify._enumerate_supports(7, 2)
    assert certify._enumerate_supports(16, 3) is not table
    assert np.array_equal(certify._enumerate_supports(16, 3), table)
    assert np.array_equal(other, list(combinations(range(7), 2)))


def test_rank_table_built_only_when_supports_repeat():
    # B <= C(N, k): no rank, and no N-wide table, at any N
    certify._rank_terms.cache_clear()
    sups, _ = _mc_draws(10 ** 9, 3, 1, "strip", 2000, probe=False)
    assert certify._support_ranks(sups, 10 ** 9) is None
    small = certify._enumerate_supports(6, 2)
    assert certify._support_ranks(small, 6) is None
    assert certify._rank_terms.cache_info().currsize == 0
    # B > C(N, k): one read-only table, reused by the next batch of that (N, k)
    ranks = certify._support_ranks(np.concatenate([small, small]), 6)
    assert np.array_equal(ranks, np.tile(np.arange(len(small)), 2))
    certify._support_ranks(small[::-1].repeat(2, axis=0), 6)
    info = certify._rank_terms.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    with pytest.raises(ValueError, match="read-only"):
        certify._rank_terms(6, 2)[0][0] = 1


@pytest.mark.parametrize("build, k, trials", [
    (lambda: sk.build_gaussian(8, 16, seed=1), 1, 100),
    (lambda: sk.build_gaussian(8, 16, seed=1), 2, 500),
    (lambda: sk.build_gaussian(8, 16, seed=1), 3, 2500),
    (lambda: sk.build_chirp(7), 2, 2000),           # complex entries
    (lambda: sk.build_chirp(7), 3, 20_000),
    (lambda: sk.build_gaussian(6, 10, seed=4), 8, 100),
])
def test_repeated_supports_bit_equal_to_one_row_calls(build, k, trials):
    # more draws than supports: the slot's tables, read by the ranks that
    # _estimate computes, hold bit for bit what the kernels return on the
    # draws themselves and on each support alone, with the Gram and without
    d = build()
    sups, probes = _mc_draws(d.N, k, 3, "wsinc", trials, probe=True)
    ranks = certify._support_ranks(sups, d.N)
    assert ranks is not None and trials > math.comb(d.N, k)
    table = certify._enumerate_supports(d.N, k)
    assert np.array_equal(table[ranks], sups)
    for gram in (d.gram(), None):
        slot = certify._Slot(gram, k)
        got = [certify._per_support(slot, kind, d, sups, ranks) for kind in ("strip", "sinc")]
        worst, at_probe = _sinc_stats(d, sups, gram, probes)
        assert np.array_equal(got[0], hollow_gram_norms(d, sups, gram))
        assert np.array_equal(got[1], worst)
        if gram is None and k == 1:
            # a one-row call's product is a matrix-vector product, whose sums
            # BLAS orders otherwise
            continue
        one_norm = np.array([hollow_gram_norms(d, s[None], gram)[0] for s in table])
        one_worst = np.array([_sinc_stats(d, s[None], gram)[0][0] for s in table])
        one_probe = [_sinc_stats(d, s[None], gram, p[None])[1][0]
                     for s, p in zip(sups[:1000], probes[:1000])]
        assert np.array_equal(got[0], one_norm[ranks])
        assert np.array_equal(got[1], one_worst[ranks])
        assert np.array_equal(at_probe[:1000], one_probe)


def test_unsorted_or_repeated_index_rows_take_the_per_row_path():
    # the kernels evaluate each row as given, whatever its order or repeats
    d = sk.build_gaussian(8, 16, seed=1)
    sups, _ = _mc_draws(d.N, 2, 3, "strip", 500, probe=False)
    unsorted = sups[:, ::-1].copy()
    repeated = sups.copy()
    repeated[0, 1] = repeated[0, 0]
    for rows in (unsorted, repeated):
        want = [hollow_gram_norms(d, s[None], d.gram())[0] for s in rows]
        assert np.array_equal(hollow_gram_norms(d, rows, d.gram()), want)


# sha256 of json.dumps([strip, sinc, wsinc reports], sort_keys=True) on
# build_gaussian(8, 16, seed), k=3, delta 0.6, alpha 1.5 mu^2, MC seed = seed;
# pinned before the repeated-support table path, which must not move them
MC_REPORT_SHA256 = {
    (0, 2500): "1dbc053e343b1fdc07d0d181589c893a7c95280d0e7015c9eb0af078baadd9ed",
    (0, 10000): "dc082273175acaf2871c4681963acba371d3c99ae8eb15b3719c378c02192ecf",
    (1, 2500): "a6ed6cef86e07041fc8a4117b4c19eb3e9650842de7dad4f7fcbf7a150d50a96",
    (1, 10000): "71be75d15f548312e15b66dc22a1ec871407c3625fc214c84a1fbf116563daae",
    (2, 2500): "c51749ed350076989815d1072361b12279bfc6b5d3a7f166a1f8b3dfdcbc4cf5",
    (2, 10000): "16c0245e4051a6d1ed0fa2c5527ef47db4cb354bd72308f67d6fa6fb4185797c",
    (3, 2500): "465935f1e669d2c3ea79bafd1b676da9839bcad7241d77925e388228d75dfbec",
    (3, 10000): "fa3879da4328c69c1e986d8a2a90191af4988d9cfffe7b0cdbcd0ad96ece8d09",
}


@pytest.mark.parametrize("seed, trials", sorted(MC_REPORT_SHA256))
def test_mc_reports_pinned(seed, trials):
    d = sk.build_gaussian(8, 16, seed=seed)
    alpha = 1.5 * sk.coherence_profile(d).mu ** 2
    reports = [sk.strip_estimate(d, 3, 0.6, trials=trials, seed=seed),
               sk.sinc_estimate(d, 3, alpha, trials=trials, seed=seed),
               sk.wsinc_estimate(d, 3, 0.6, alpha, trials=trials, seed=seed)]
    text = json.dumps([r.as_dict() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MC_REPORT_SHA256[seed, trials]


# the same for the Gram-free path (N > 3000): sha256 of the Monte Carlo
# StRIP, SINC and WSINC reports (then exhaustive StRIP and SINC at k = 1) on
# build_gaussian(m, N, seed=2), MC seed 7, delta 0.6, alpha = factor k mu^2;
# at 1.5 every support is incoherent, at 0.5 SINC and WSINC split the draws.
# Pinned before the WSINC statistic read its draws instead of the enumeration
GRAM_FREE_REPORT_SHA256 = {
    (8, 3072, 1, 5000, 1.5): "23abbf4d9fbdca87b7943affadd09c1c5906c175e6a1c7d87707839d6cbc1b80",
    (8, 3072, 1, 5000, 0.5): "a0d1c754cb38dd01f1491999633b5e52f0bb30a320bca1f8774a44c5ec6837bb",
    (8, 3072, 3, 2000, 1.5): "180e0960dc82390c5e5352d1c4efbcfb01ea41f9174a315ef2a35a14d57b13ad",
    (8, 3072, 3, 2000, 0.5): "02659579d8a3fc40a324aed93a3e22ab8005f9b9d15338832b0508362978e98e",
    (64, 4096, 2, 3000, 1.5): "e2c71a5943e706da641e752a0ed0d830cf0a20e45dffa71bb7b84c5ef7eaad5f",
    (64, 4096, 2, 3000, 0.5): "a5a52787cc87ae5412e94ac92a658c611c33582ae1f03962b82946e2d787dd1b",
}


@pytest.mark.parametrize("m, N, k, trials, factor", sorted(GRAM_FREE_REPORT_SHA256))
def test_gram_free_reports_pinned(m, N, k, trials, factor):
    d = sk.build_gaussian(m, N, seed=2)
    alpha = factor * k * d.mu ** 2
    calls = [lambda: sk.strip_estimate(d, k, 0.6, trials=trials, seed=7),
             lambda: sk.sinc_estimate(d, k, alpha, trials=trials, seed=7),
             lambda: sk.wsinc_estimate(d, k, 0.6, alpha, trials=trials, seed=7)]
    if k == 1:
        calls += [lambda: sk.strip_estimate(d, k, 0.6, "exhaustive"),
                  lambda: sk.sinc_estimate(d, k, alpha, "exhaustive")]
    text = json.dumps([call().as_dict() for call in calls], sort_keys=True)
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
            == GRAM_FREE_REPORT_SHA256[m, N, k, trials, factor])


def test_readme_mc_sinc_stdout_pinned(tmp_path, capsys):
    # README: certify --property sinc --k 2 --alpha 0.2 --trials 10000 --seed 7
    # on dg s=1, whose 10000 draws outnumber the C(128, 2) = 8128 supports
    path = str(tmp_path / "dg.dict")
    assert main(["build", "--family", "dg", "--s", "1", "--out", path]) == 0
    capsys.readouterr()
    assert main(["certify", "--dict", path, "--property", "sinc", "--k", "2",
                 "--alpha", "0.2", "--trials", "10000", "--seed", "7"]) == 0
    assert (hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            == "7574170f9ae60d08e170d584590285758709b1ddf7f2be50243054b8dae6da96")


def test_seed_outside_64_bits_refused():
    # the stream key is 64 bits wide: -1 would draw what 2^64 - 1 draws
    d = sk.build_gaussian(8, 16, seed=1)
    assert sk.strip_estimate(d, 2, 0.5, trials=10, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    for seed in (-1, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            derive_rng(seed, "strip", 0)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            sk.strip_estimate(d, 2, 0.5, trials=10, seed=seed)
        # a vacuous estimate draws nothing, yet would report the seed
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            sk.sinc_estimate(d, d.N, 0.5, trials=10, seed=seed)


def test_vacuous_exhaustive_report_has_no_seed():
    # k = N leaves no outside column; an exhaustive report draws nothing and
    # names no seed, a Monte Carlo one still reports the seed it was given
    d = sk.build_gaussian(6, 12, seed=2)
    assert "seed" not in sk.sinc_estimate(d, d.N, 0.5, "exhaustive").as_dict()
    assert sk.sinc_estimate(d, d.N, 0.5, trials=10, seed=4).as_dict()["seed"] == 4


def _five_calls(d, k, trials):
    """Criterion 4's five estimator calls on one dictionary."""
    delta, alpha, seed = 0.6, k * d.mu ** 2 / 2, 11
    return [
        lambda: sk.strip_estimate(d, k, delta, "exhaustive"),
        lambda: sk.strip_estimate(d, k, delta, trials=trials, seed=seed),
        lambda: sk.sinc_estimate(d, k, alpha, "exhaustive"),
        lambda: sk.sinc_estimate(d, k, alpha, trials=trials, seed=seed),
        lambda: sk.wsinc_estimate(d, k, delta, alpha, trials=trials, seed=seed),
    ]


def _text(report):
    return json.dumps(report.as_dict(), sort_keys=True)


@pytest.mark.parametrize("build, k, trials", [
    (lambda: sk.build_gaussian(8, 16, seed=1), 3, 2500),
    (lambda: sk.build_gaussian(6, 10, seed=4), 8, 100),     # k >= 8 sums
    (lambda: sk.build_chirp(7), 2, 2000),                   # complex entries
    (lambda: sk.build_chirp(7), 3, 20_000),
    (lambda: sk.build_chirp(7), 3, 500),                    # fewer draws than supports
    (lambda: sk.build_gaussian(8, 3072, seed=2), 1, 5000),  # no Gram
])
def test_reports_independent_of_call_order(build, k, trials):
    # each call cold (on a dictionary of its own), after the other four on
    # the same dictionary, and all five in reverse order: the same bytes
    cold = [_text(_five_calls(build(), k, trials)[i]()) for i in range(5)]
    for i in range(5):
        calls = _five_calls(build(), k, trials)
        for j in range(5):
            if j != i:
                calls[j]()
        assert _text(calls[i]()) == cold[i]
    calls = _five_calls(build(), k, trials)
    assert [_text(call()) for call in calls[::-1]] == cold[::-1]


def _count_calls(monkeypatch, owner, name, counted=lambda *args: True):
    """Patch ``owner.name`` to count the calls for which ``counted`` holds."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(counted(*args))
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return lambda: sum(calls)


def _counters(monkeypatch):
    """Counts of Gram formations and of StRIP and SINC evaluations of a
    whole enumeration."""
    def whole(d, sups, *_):
        return sups is certify._enumerate_supports(d.N, sups.shape[1])
    return (_count_calls(monkeypatch, sk.Dictionary, "gram"),
            _count_calls(monkeypatch, certify, "hollow_gram_norms", whole),
            _count_calls(monkeypatch, certify, "_sinc_stats", whole))


def test_five_calls_form_the_gram_and_each_table_once(monkeypatch):
    grams, strip_tables, sinc_tables = _counters(monkeypatch)
    d = sk.build_gaussian(8, 16, seed=1)
    for call in _five_calls(d, 3, 2500):
        call()
    assert (grams(), strip_tables(), sinc_tables()) == (1, 1, 1)
    # another k keeps the Gram and builds its own tables
    for call in _five_calls(d, 2, 2500):
        call()
    assert (grams(), strip_tables(), sinc_tables()) == (1, 2, 2)


def test_slot_releases_a_deleted_dictionary():
    d = sk.build_gaussian(8, 16, seed=1)
    sk.strip_estimate(d, 3, 0.6, "exhaustive")
    ref = weakref.ref(d)
    assert list(certify._last) == [d]
    del d
    gc.collect()
    assert ref() is None
    assert len(certify._last) == 0


def test_second_dictionary_replaces_the_first(monkeypatch):
    grams, strip_tables, _ = _counters(monkeypatch)
    first, second = sk.build_gaussian(8, 16, seed=1), sk.build_gaussian(8, 16, seed=2)
    for d in (first, second, first):
        sk.strip_estimate(d, 3, 0.6, "exhaustive")
    assert list(certify._last) == [first]
    assert (grams(), strip_tables()) == (3, 3)


def test_equal_dictionary_is_evaluated_anew(monkeypatch):
    grams, strip_tables, _ = _counters(monkeypatch)
    d = sk.build_gaussian(8, 16, seed=1)
    copy = sk.Dictionary(d.name, d.entries.copy(), d.params, d.seed)
    same = sk.Dictionary(d.name, d.entries, d.params, d.seed)     # same array
    assert np.array_equal(copy.entries, d.entries) and same.entries is d.entries
    want = _text(sk.strip_estimate(d, 3, 0.6, "exhaustive"))
    for c in (copy, same):
        assert _text(sk.strip_estimate(c, 3, 0.6, "exhaustive")) == want
    assert (grams(), strip_tables()) == (3, 3)


def test_probe_energies_bit_equal_to_chunk_sums():
    # the Gram gather adds the k terms in the order the (b, k, N) chunk sum
    # does, at every k, past the 8 at which numpy's pairwise sum of a row
    # would start to pair them
    d = sk.build_gaussian(8, 30, seed=6)
    gram = d.gram()
    for k in range(1, 25):
        sups, probes = _mc_draws(d.N, k, 1, "wsinc", 200, probe=True)
        assert np.array_equal(certify._probe_energies(gram, sups, probes),
                              _sinc_stats(d, sups, gram, probes)[1])


def test_threads_sharing_the_slot_read_the_same_reports():
    # threads that replace each other's slot between calls (two dictionaries,
    # two k) lose only reuse: every report has the bytes of a serial call
    dicts = [sk.build_gaussian(8, 16, seed=1), sk.build_chirp(5)]
    jobs = [(d, k) for d in dicts for k in (2, 3)]
    want = {(i, j): [_text(call()) for call in _five_calls(d, k, 500)]
            for i, d in enumerate(dicts) for j, k in enumerate((2, 3))}
    got, errors = [], []

    def work(offset):
        try:
            for n in range(40):
                i, j = divmod((n + offset) % 4, 2)
                d, k = jobs[2 * i + j]
                got.append(((i, j), [_text(call()) for call in _five_calls(d, k, 500)]))
        except Exception as exc:     # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(got) == 160 and all(texts == want[key] for key, texts in got)
