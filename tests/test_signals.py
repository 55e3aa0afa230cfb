import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stripkit as sk
from stripkit.signals import default_noise_bound


class TestSampling:
    def test_full_support_unit(self):
        rng = np.random.default_rng(0)
        inst = sk.sample_generic_signal(6, 6, "unit", rng)
        assert np.all(np.abs(inst.x) == 1.0)
        assert inst.tail_l1 == 0.0

    def test_support_uniformity(self):
        rng = np.random.default_rng(7)
        trials = 100_000
        counts = Counter()
        for _ in range(trials):
            inst = sk.sample_generic_signal(10, 2, "unit", rng)
            counts[tuple(inst.support)] += 1
        p = 1 / 45
        sigma = math.sqrt(p * (1 - p) / trials)
        assert len(counts) == 45
        worst = max(abs(c / trials - p) for c in counts.values())
        assert worst <= 4 * sigma

    def test_sign_symmetry(self):
        rng = np.random.default_rng(3)
        trials = 20_000
        total = sum(sk.sample_generic_signal(8, 3, "unit", rng).signs.sum()
                    for _ in range(trials))
        assert abs(total / (3 * trials)) <= 3 / math.sqrt(3 * trials)

    def test_uniform_magnitudes_in_range(self):
        rng = np.random.default_rng(5)
        inst = sk.sample_generic_signal(20, 6, "uniform", rng)
        mags = np.abs(inst.x[inst.support])
        assert np.all((0.5 <= mags) & (mags <= 1.0))

    def test_compressible_tail(self):
        rng = np.random.default_rng(5)
        inst = sk.sample_generic_signal(30, 4, "compressible", rng, p=0.5)
        off = np.setdiff1d(np.arange(30), inst.support)
        tail = np.sort(np.abs(inst.x[off]))[::-1]
        want = 0.5 * np.arange(1, 27, dtype=float) ** -2.0
        assert np.allclose(tail, want)
        assert inst.tail_l1 == pytest.approx(want.sum())

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
    def test_compressible_needs_finite_positive_p(self, p):
        rule = "finite" if not math.isfinite(p) else "positive"
        with pytest.raises(ValueError, match=f"^p must be {rule}$"):
            sk.sample_generic_signal(10, 2, "compressible", np.random.default_rng(0), p=p)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            sk.sample_generic_signal(10, 2, "cauchy", np.random.default_rng(0))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 10 ** 6),
       model=st.sampled_from(["unit", "uniform", "compressible"]))
def test_dominance_invariant(n, seed, model):
    rng = np.random.default_rng(seed)
    k = max(1, n // 3)
    inst = sk.sample_generic_signal(n, k, model, rng)
    on = np.abs(inst.x[inst.support])
    off = np.delete(np.abs(inst.x), inst.support)
    assert inst.support.shape == (k,)
    if off.size:
        assert on.min() > off.max()


class TestObserve:
    def test_noiseless_exact(self):
        d = sk.build_gaussian(6, 12, seed=1)
        rng = np.random.default_rng(0)
        inst = sk.sample_generic_signal(12, 3, "unit", rng)
        obs = sk.observe(d, inst, sigma=0.0, rng=rng)
        assert np.array_equal(obs.y, d.entries @ inst.x)
        assert obs.eps_noise == 0.0

    def test_noise_energy(self):
        d = sk.build_gaussian(32, 32, seed=1)
        zero = sk.SignalInstance(x=np.zeros(32), support=np.array([0]),
                                 signs=np.array([1.0]), tail_l1=0.0)
        total = 0.0
        for t in range(1000):
            rng = np.random.default_rng(t)
            obs = sk.observe(d, zero, sigma=1.0, rng=rng)
            total += (obs.y ** 2).sum() / 32
        assert abs(total / 1000 - 1.0) < 0.1

    def test_observe_identity_is_exact(self):
        d = sk.build_delsarte_goethals(1)
        rng = np.random.default_rng(2)
        inst = sk.sample_generic_signal(d.N, 2, "unit", rng)
        obs = sk.observe(d, inst, sigma=0.3, rng=rng)
        # y is literally the sum as constructed: recomputing it reproduces bits
        assert np.array_equal(obs.y, d.entries @ obs.x + obs.z)

    def test_gershgorin_energy_bound(self):
        d = sk.build_delsarte_goethals(1)
        mu = 0.25
        for t in range(20):
            rng = np.random.default_rng(t)
            inst = sk.sample_generic_signal(d.N, 2, "unit", rng)
            obs = sk.observe(d, inst, sigma=0.0, rng=rng)
            bound = math.sqrt(1 + (2 - 1) * mu) * np.linalg.norm(inst.x)
            assert np.linalg.norm(obs.y) <= bound + 1e-12

    def test_rejects_complex(self):
        d = sk.build_chirp(3)
        rng = np.random.default_rng(0)
        inst = sk.sample_generic_signal(9, 2, "unit", rng)
        with pytest.raises(ValueError, match="realify"):
            sk.observe(d, inst, sigma=0.0, rng=rng)

    # 1e200: sigma^2 overflows; 1e154: only y.y does; 1e308: so does the noise
    @pytest.mark.parametrize("sigma", [1e200, 1e154, 1e308])
    def test_rejects_sigma_past_float_range(self, sigma):
        d = sk.build_delsarte_goethals(1)
        rng = np.random.default_rng(0)
        inst = sk.sample_generic_signal(d.N, 2, "unit", rng)
        with pytest.raises(ValueError, match="^sigma is out of range: "):
            sk.observe(d, inst, sigma=sigma, rng=rng)

    def test_dimension_mismatch(self):
        d = sk.build_gaussian(4, 8, seed=0)
        rng = np.random.default_rng(0)
        inst = sk.sample_generic_signal(9, 2, "unit", rng)
        with pytest.raises(ValueError):
            sk.observe(d, inst, sigma=0.0, rng=rng)

    def test_default_noise_bound_holds_whp(self):
        m, sigma = 64, 0.5
        bound = default_noise_bound(m, sigma)
        rng = np.random.default_rng(8)
        exceed = sum(np.linalg.norm(sigma * rng.standard_normal(m)) > bound
                     for _ in range(2000))
        assert exceed == 0
