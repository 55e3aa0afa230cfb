import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stripkit as sk
from stripkit import certify
from stripkit.certify import (MC_BLOCK, BudgetError, _mc_draws, _sinc_stats,
                              wsinc_weight)
from stripkit.coherence import hollow_gram_norms
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
            sk.strip_estimate(d, 10, 0.5, "exhaustive", cap=1000)

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

    def test_direct_eps_range(self):
        with pytest.raises(ValueError):
            sk.strip_sufficient_direct(0.1, 0.01, k=4, N=100, frame_norm=1.0,
                                       delta=0.5, eps=0.9, a=0.1, b=0.1, c=0.1)

    def test_oa_required_m(self):
        assert math.ceil(sk.oa_strip_required_m(6, 4, 0.5, 0.01)) == 2123
        v = sk.oa_strip_sufficient(6, 4, 0.5, 0.01, m=2123)
        assert v.satisfied
        assert not sk.oa_strip_sufficient(6, 4, 0.5, 0.01, m=2122).satisfied

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
        monkeypatch.setattr(certify, "CROSS_CHUNK_BYTES",
                            7 * 3 * d.N * d.entries.itemsize)
        chunked = _sinc_stats(d, sups, gram, probes)
        monkeypatch.undo()
        assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))
