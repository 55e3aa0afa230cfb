"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Two clauses are implemented faithfully but marked strict-xfail because they
are provably unattainable at the stated dimensions (see notes below and the
attainable-contract companion tests):

* criterion 3's 16x256 / ||Phi||=4 / mean-sq 1/17 / strength-7 / sixth-moment
  subclaims: a 16x256 real dictionary with coherence 1/4 violates the
  fourth-moment packing bound (max 153 columns), and a strength-7 orthogonal
  array on 16 columns needs at least 1152 rows (Rao bound), so no
  construction can satisfy them together with mu = 0.25;
* criterion 6's "certificate valid in every trial" clause at k = 2: the
  exact worst case of the half-threshold sign certificate on this dictionary
  is 2/3 > 1/2, while exact recovery is still guaranteed because the
  exact-recovery coefficient k mu/(1-(k-1)mu) = 2/3 stays below 1.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import math
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import stripkit as sk
from stripkit.coherence import pless_relative_residual, tight_frame_mean_sq
from stripkit.experiments import ExperimentConfig, parse_config_file

MASTER_SEED = 2026


def _line(num: int, ok: bool, desc: str):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")


def _note(num: int, desc: str):
    print(f"\nACCEPTANCE {num:02d} (note) {desc}")


@pytest.fixture(scope="module")
def dg1():
    return sk.build_delsarte_goethals(1)


@pytest.fixture(scope="module")
def dg2():
    return sk.build_delsarte_goethals(2)


# --------------------------------------------------------------------------
# criterion 1: chirp m = 7 closed-form statistics

def test_criterion_01_chirp():
    t0 = time.perf_counter()
    d = sk.build_chirp(7)
    p = sk.coherence_profile(d)
    elapsed = time.perf_counter() - t0
    ok = (abs(p.mu - 1 / math.sqrt(7)) <= 1e-12
          and abs(p.mean_sq - 1 / 8) <= 1e-12
          and abs(p.spectral_norm - math.sqrt(7)) <= 1e-9
          and p.invariant and elapsed < 1.0)
    _line(1, ok, f"chirp m=7: mu={p.mu:.15f}, mean_sq={p.mean_sq:.15f}, "
                 f"norm={p.spectral_norm:.12f}, invariant={p.invariant}, "
                 f"{elapsed:.2f}s")
    assert abs(p.mu - 1 / math.sqrt(7)) <= 1e-12
    assert abs(p.mean_sq - 1 / 8) <= 1e-12
    assert abs(p.spectral_norm - math.sqrt(7)) <= 1e-9
    assert p.invariant
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# criterion 2: random harmonic frames at N = 64

def test_criterion_02_harmonic():
    t0 = time.perf_counter()
    results = []
    for seed in (0, 1, 7, 42, 2026):
        d = sk.build_random_harmonic(16, 64, seed=seed)
        p = sk.coherence_profile(d)
        M = d.params["rows_selected"]
        want = (64 - M) / (63 * M)
        results.append((seed, M, abs(p.mean_sq - want), p.invariant))
    elapsed = time.perf_counter() - t0
    ok = all(err <= 1e-12 and inv for _, _, err, inv in results) and elapsed < 1.0
    worst = max(err for _, _, err, _ in results)
    _line(2, ok, f"harmonic N=64, 5 seeds: worst |mean_sq - formula| = {worst:.2e}, "
                 f"all invariant, {elapsed:.2f}s")
    for seed, M, err, inv in results:
        assert err <= 1e-12, (seed, M)
        assert inv, seed
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# criterion 3: the Kerdock-family dictionary

def test_criterion_03_attainable_contract(dg1):
    """The family contract this construction honestly satisfies."""
    t0 = time.perf_counter()
    p = sk.coherence_profile(dg1)
    code = sk.delsarte_goethals_code(1)
    dist = sk.distance_distribution(code)
    r2 = pless_relative_residual(dist, 2)
    r4 = pless_relative_residual(dist, 4)
    elapsed = time.perf_counter() - t0
    _note(3, f"attainable contract: 16x{dg1.N}, mu={p.mu} (exactly 1/4), "
             f"norm=sqrt(N/m)={p.spectral_norm:.6f}, "
             f"mean_sq=(N-m)/(m(N-1))={p.mean_sq:.6f}, "
             f"pless l=2,4 residuals {r2:.1e},{r4:.1e}, {elapsed:.1f}s")
    assert p.mu == 0.25
    assert r2 <= 1e-9 and r4 <= 1e-9
    assert abs(p.spectral_norm - math.sqrt(dg1.N / dg1.m)) <= 1e-9
    assert abs(p.mean_sq - tight_frame_mean_sq(dg1.m, dg1.N)) <= 1e-12
    assert p.invariant
    assert elapsed < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="16x256 with mu=1/4 exceeds the fourth-moment packing bound "
           "(max 153 columns) and strength-7 on 16 columns violates the Rao "
           "bound (needs N >= 1152): these subclaims are jointly impossible; "
           "the shipped construction keeps mu = 0.25 exactly at N = 128.")
def test_criterion_03_as_specified(dg1):
    t0 = time.perf_counter()
    p = sk.coherence_profile(dg1)
    code = sk.delsarte_goethals_code(1)
    dist = sk.distance_distribution(code)
    residuals = {l: pless_relative_residual(dist, l) for l in (2, 4, 6)}
    strength = sk.oa_strength(code, t_max=7)
    elapsed = time.perf_counter() - t0
    checks = {
        "dims 16x256": (dg1.m, dg1.N) == (16, 256),
        "mu = 0.25": p.mu == 0.25,
        "norm = 4": abs(p.spectral_norm - 4.0) <= 1e-9,
        "mean_sq = 1/17": abs(p.mean_sq - 1 / 17) <= 1e-12,
        "strength >= 7": strength.exact and strength.strength >= 7,
        "pless l=2,4,6": all(residuals[l] <= 1e-9 for l in (2, 4, 6)),
        "runtime < 30s": elapsed < 30.0,
    }
    _line(3, all(checks.values()),
          "as specified: " + ", ".join(f"{k}: {'ok' if v else 'FAIL'}"
                                       for k, v in checks.items()))
    assert (dg1.m, dg1.N) == (16, 256)
    assert p.mu == 0.25
    assert abs(p.spectral_norm - 4.0) <= 1e-9
    assert abs(p.mean_sq - 1 / 17) <= 1e-12
    assert strength.exact and strength.strength >= 7
    assert all(residuals[l] <= 1e-9 for l in (2, 4, 6))
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# criterion 4: Monte Carlo vs exhaustive oracle equivalence

def run_oracle_equivalence(master_seed: int = MASTER_SEED) -> dict:
    per_seed = []
    for s in range(20):
        d = sk.build_gaussian(8, 16, seed=s)
        mu = sk.coherence_profile(d).mu
        row = {"dict_seed": s}
        exact = sk.strip_estimate(d, 3, 0.6, "exhaustive")
        mc = sk.strip_estimate(d, 3, 0.6, "monte_carlo", trials=10_000,
                               seed=master_seed + s)
        row["strip"] = {"exhaustive": exact.estimate, "mc": mc.estimate,
                        "ci": list(mc.ci),
                        "hit": bool(mc.ci[0] <= exact.estimate <= mc.ci[1])}
        alpha = 3 * mu * mu / 2
        exact = sk.sinc_estimate(d, 3, alpha, "exhaustive")
        mc = sk.sinc_estimate(d, 3, alpha, "monte_carlo", trials=10_000,
                              seed=master_seed + s)
        row["sinc"] = {"alpha": alpha,
                       "exhaustive": exact.estimate, "mc": mc.estimate,
                       "ci": list(mc.ci),
                       "hit": bool(mc.ci[0] <= exact.estimate <= mc.ci[1])}
        per_seed.append(row)
    return {
        "seeds": per_seed,
        "strip_hits": sum(r["strip"]["hit"] for r in per_seed),
        "sinc_hits": sum(r["sinc"]["hit"] for r in per_seed),
    }


@pytest.fixture(scope="module")
def oracle_payload():
    t0 = time.perf_counter()
    payload = run_oracle_equivalence()
    payload_json = json.dumps(payload, sort_keys=True)
    return payload, payload_json, time.perf_counter() - t0


def test_criterion_04_oracle_equivalence(oracle_payload):
    payload, _, elapsed = oracle_payload
    ok = (payload["strip_hits"] >= 19 and payload["sinc_hits"] >= 19
          and elapsed < 120)
    _line(4, ok, f"oracle equivalence: strip {payload['strip_hits']}/20, "
                 f"sinc {payload['sinc_hits']}/20 inside 99% CP interval, "
                 f"{elapsed:.1f}s")
    assert payload["strip_hits"] >= 19
    assert payload["sinc_hits"] >= 19
    assert elapsed < 120


# --------------------------------------------------------------------------
# criterion 5: Gershgorin floor

def test_criterion_05_gershgorin_floor(dg1):
    t0 = time.perf_counter()
    edge = 1 + 1e-10       # delta = (k-1) mu itself sits on an eigenvalue tie
    failures = []
    chirp = sk.build_chirp(7)
    mu_c = sk.coherence_profile(chirp).mu
    for k in (2, 3):
        rep = sk.strip_estimate(chirp, k, (k - 1) * mu_c * edge, "exhaustive")
        if rep.estimate != 1.0:
            failures.append(("chirp", k, rep.estimate))
    mu_d = sk.coherence_profile(dg1).mu
    for k in (2, 3):
        rep = sk.strip_estimate(dg1, k, (k - 1) * mu_d * edge, "exhaustive")
        if rep.estimate != 1.0:
            failures.append(("dg", k, rep.estimate))
    for k in (4, 5):
        rep = sk.strip_estimate(dg1, k, (k - 1) * mu_d * edge, "monte_carlo",
                                trials=10_000, seed=MASTER_SEED + k)
        if rep.estimate != 1.0:
            failures.append(("dg-mc", k, rep.estimate))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60
    _line(5, ok, f"Gershgorin floor: chirp k=2,3 + DG k=2..5 all estimate 1.0, "
                 f"{elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""))
    assert not failures
    assert elapsed < 60


# --------------------------------------------------------------------------
# criterion 6: Basis Pursuit exact recovery in the coherence-guaranteed regime

def run_bp_recovery(dg, master_seed: int = MASTER_SEED) -> dict:
    out = {}
    for k in (1, 2):
        records = []
        for t in range(200):
            rng = sk.derive_rng(master_seed, "bp-recovery", k, t)
            inst = sk.sample_generic_signal(dg.N, k, "unit", rng)
            inst = sk.observe(dg, inst, sigma=0.0, rng=rng)
            res = sk.basis_pursuit(dg, inst.y, 0.0)
            cert = sk.dual_certificate(dg, inst.support, inst.signs)
            records.append({
                "trial": t,
                "converged": bool(res.converged),
                "err": float(np.linalg.norm(res.x_hat - inst.x)),
                "cert_valid": bool(cert.valid),
                "cert_sup_off": float(cert.sup_off),
            })
        conv = [r for r in records if r["converged"]]
        out[f"k{k}"] = {
            "records": records,
            "converged": len(conv),
            "recovered": sum(r["err"] <= 1e-6 for r in conv),
            "certs_valid": sum(r["cert_valid"] for r in conv),
        }
    return out


@pytest.fixture(scope="module")
def bp_recovery_payload(dg1):
    t0 = time.perf_counter()
    payload = run_bp_recovery(dg1)
    return payload, json.dumps(payload, sort_keys=True), time.perf_counter() - t0


def test_criterion_06_recovery(bp_recovery_payload):
    payload, _, elapsed = bp_recovery_payload
    _note(6, "recovery clause: " + ", ".join(
        f"k={k[-1]}: {v['recovered']}/{v['converged']} exact "
        f"(certs valid {v['certs_valid']}/{v['converged']})"
        for k, v in payload.items()) + f", {elapsed:.1f}s")
    for k, v in payload.items():
        assert v["converged"] == 200, k
        assert v["recovered"] == v["converged"], k
    assert payload["k1"]["certs_valid"] == 200
    assert elapsed < 180


@pytest.mark.xfail(
    strict=True,
    reason="the half-threshold certificate is not implied by the k < 2.5 "
           "coherence regime: its exact worst case over k=2 supports and "
           "signs on this dictionary is 2/3 > 1/2 (recovery itself is 100%).")
def test_criterion_06_as_specified(bp_recovery_payload):
    payload, _, elapsed = bp_recovery_payload
    recovered_ok = all(v["recovered"] == v["converged"] == 200
                       for v in payload.values())
    certs_ok = all(v["certs_valid"] == v["converged"]
                   for v in payload.values())
    _line(6, recovered_ok and certs_ok and elapsed < 180,
          f"BP exact recovery k=1,2: 100% recovery {'ok' if recovered_ok else 'FAIL'}; "
          f"certificates all valid: {'ok' if certs_ok else 'FAIL'} "
          f"(k=2 valid {payload['k2']['certs_valid']}/200)")
    assert recovered_ok
    assert certs_ok
    assert elapsed < 180


# --------------------------------------------------------------------------
# criterion 7: statistical floor for the two-sided error bounds

def floor_config() -> ExperimentConfig:
    return ExperimentConfig(family="dg", family_args={"s": 2}, k=4, eps=0.1,
                            trials=300, seed=MASTER_SEED)


def test_criterion_07_config_file():
    # README reproduces the criterion 7 payload from this file
    path = Path(__file__).resolve().parent.parent / "configs" / "bp_floor_dg2.cfg"
    assert asdict(parse_config_file(path)) == asdict(floor_config())


@pytest.fixture(scope="module")
def floor_payload(dg2):
    t0 = time.perf_counter()
    rep = sk.run_recovery_floor(floor_config(), d=dg2)
    return rep, rep.to_json(include_runtime=False), time.perf_counter() - t0


def test_criterion_07_statistical_floor(floor_payload, dg2):
    rep, _, elapsed = floor_payload
    floor = 1 - 3 * 0.1
    margin = 3 * math.sqrt(floor * (1 - floor) / 300)
    ok = (rep.aggregate["frac_both"] >= floor - margin and rep.converged == 300
          and elapsed < 900)
    _line(7, ok, f"floor on {dg2.m}x{dg2.N}, k=4: frac_both="
                 f"{rep.aggregate['frac_both']:.4f} >= {floor - margin:.4f} "
                 f"(floor {floor} - 3sigma {margin:.4f}), "
                 f"converged {rep.converged}/300, {elapsed:.1f}s")
    assert rep.converged == 300
    assert rep.aggregate["frac_both"] >= floor - margin
    assert rep.floor_asserted and rep.floor_passed
    assert elapsed < 900


# --------------------------------------------------------------------------
# criterion 8: derandomized generator construction

def test_criterion_08_gv_derandomization():
    t0 = time.perf_counter()
    spec = sk.GvSpec(l=10, mu_target=0.5)
    assert spec.m == 111
    result = sk.gv_derandomized(spec)
    width, mu = sk.code_width(result.code)
    weights = (result.code.bits().sum(axis=1))
    nonzero = np.sort(weights)[1:]        # drop the zero word
    tr = result.expectation_trace
    monotone = all(b <= a for a, b in zip(tr, tr[1:]))
    elapsed = time.perf_counter() - t0
    ok = (result.success and len(nonzero) == 1023
          and nonzero.min() >= 28 and nonzero.max() <= 83
          and mu <= 0.5 and monotone and len(tr) == 1111 and elapsed < 30)
    _line(8, ok, f"gv derandomized l=10, m=111: success={result.success}, "
                 f"2w/m={mu:.4f} <= 0.5, all 1023 weights in [28, 83], "
                 f"expectation non-increasing at all {len(tr) - 1} decisions, "
                 f"{elapsed:.1f}s")
    assert result.success
    assert len(nonzero) == 1023
    assert nonzero.min() >= 28 and nonzero.max() <= 83
    assert mu <= 0.5
    assert monotone and len(tr) == 1111
    assert tr[0] == Fraction(result.code.N - 1) * (
        Fraction(2 ** 111 - sum(math.comb(111, j) for j in range(28, 84)), 2 ** 111))
    assert elapsed < 30


# --------------------------------------------------------------------------
# criterion 9: closed-form sufficient-condition evaluators

def test_criterion_09_evaluators():
    t0 = time.perf_counter()
    m_req = sk.oa_strip_required_m(6, 4, 0.5, 0.01)
    coef = sk.dg_sparsity_bound(1, 1.0, 0.001, constant=0.95)
    rng = np.random.default_rng(MASTER_SEED)
    flips = 0
    for _ in range(1000):
        mu = rng.uniform(0, 0.6)
        theta = rng.uniform(0, mu * mu) if mu > 0 else 0.0
        k = int(rng.integers(2, 60))
        N = int(rng.integers(max(100, 3 * k), 10 ** 6))
        eps = rng.uniform(1e-4, 0.45)
        a = rng.uniform(0.05, 0.95)
        delta = rng.uniform(0.05, 0.95)
        shrink_mu = rng.uniform(0, 1)
        shrink_th = rng.uniform(0, 1)
        pairs = [
            (sk.sinc_sufficient(mu, theta, k, N, eps, a, beta=1.0),
             sk.sinc_sufficient(mu * shrink_mu, theta * shrink_th, k, N, eps,
                                a, beta=1.0)),
            (sk.strip_sufficient_via_sinc(mu, theta, k, delta, eps, a),
             sk.strip_sufficient_via_sinc(mu * shrink_mu, theta * shrink_th,
                                          k, delta, eps, a)),
            (sk.gershgorin_sufficient(mu, k, delta),
             sk.gershgorin_sufficient(mu * shrink_mu, k, delta)),
        ]
        eps_direct = min(0.2, 0.5 / k)
        b = rng.uniform(0.01, 0.5)
        c = rng.uniform(0.01, 0.5)
        pairs.append(
            (sk.strip_sufficient_direct(mu, theta, k, N, math.sqrt(N / 4),
                                        delta, eps_direct, a, b, c),
             sk.strip_sufficient_direct(mu * shrink_mu, theta * shrink_th, k,
                                        N, math.sqrt(N / 4), delta,
                                        eps_direct, a, b, c)))
        flips += sum(1 for tight, relaxed in pairs
                     if tight.satisfied and not relaxed.satisfied)
    elapsed = time.perf_counter() - t0
    ok = (math.ceil(m_req) == 2123 and round(coef, 2) == 0.35 and flips == 0
          and elapsed < 10)
    _line(9, ok, f"evaluators: ceil(required m)={math.ceil(m_req)} (=2123), "
                 f"sparsity coefficient {coef:.4f} (~0.35), "
                 f"monotonicity flips {flips}/4000 over 1000 points, "
                 f"{elapsed:.1f}s")
    assert math.ceil(m_req) == 2123
    assert round(coef, 2) == 0.35
    assert flips == 0
    assert elapsed < 10


# --------------------------------------------------------------------------
# criterion 10: Lasso optimality bookkeeping

def test_criterion_10_lasso():
    t0 = time.perf_counter()
    d = sk.build_gaussian(64, 256, seed=12)
    lam = 2 * math.sqrt(2 * math.log(256))
    sigma = 0.05
    worst_kkt = 0.0
    n_converged = 0
    for t in range(25):
        rng = sk.derive_rng(MASTER_SEED, "lasso", t)
        inst = sk.sample_generic_signal(256, 4, "unit", rng)
        obs = sk.observe(d, inst, sigma=sigma, rng=rng)
        res = sk.lasso(d, obs.y, lam, sigma)
        if res.converged:
            n_converged += 1
            # independent coordinatewise recomputation
            g = d.entries.T @ (d.entries @ res.x_hat - obs.y)
            pen = lam * sigma * sigma
            on = res.x_hat != 0
            kkt = max(np.abs(g[on] + pen * np.sign(res.x_hat[on])).max(initial=0.0),
                      np.maximum(np.abs(g[~on]) - pen, 0.0).max(initial=0.0))
            worst_kkt = max(worst_kkt, float(kkt))

    # closed forms
    y = d.entries @ np.eye(256)[3]
    lam_big = float(np.abs(d.entries.T @ y).max()) * 1.000001
    zero_sol = sk.lasso(d, y, lam=lam_big, sigma=1.0)
    zero_ok = np.abs(zero_sol.x_hat).max() <= 1e-10
    one = sk.Dictionary("one", np.array([[1.0]]))
    scalar = sk.lasso(one, np.array([3.0]), lam=1.0, sigma=1.0)
    scalar_ok = abs(scalar.x_hat[0] - 2.0) <= 1e-10

    # condition checker against direct formulas, 100 seeded instances
    mismatches = 0
    for t in range(100):
        rng = sk.derive_rng(MASTER_SEED, "cp-check", t)
        inst = sk.sample_generic_signal(256, 3, "unit", rng)
        obs = sk.observe(d, inst, sigma=0.1, rng=rng)
        conds = sk.cp_conditions(d, inst.support, inst.signs, obs.z)
        sub = d.entries[:, inst.support]
        gram = sub.T @ sub
        c1 = np.linalg.norm(np.linalg.inv(gram), 2) <= 2
        c2 = np.abs(d.entries.T @ obs.z).max() <= 2 * math.sqrt(math.log(256))
        off = np.setdiff1d(np.arange(256), inst.support)
        cross = d.entries[:, off].T @ sub
        lhs = (np.abs(cross @ np.linalg.solve(gram, sub.T @ obs.z)).max()
               + math.sqrt(8 * math.log(256))
               * np.abs(cross @ np.linalg.solve(gram, inst.signs)).max())
        c3 = lhs <= (2 - math.sqrt(2)) * math.sqrt(2 * math.log(256))
        if (conds.inverse_gram_ok, conds.noise_correlation_ok,
                conds.certificate_ok) != (c1, c2, c3):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = (n_converged == 25 and worst_kkt <= 1e-8 and zero_ok and scalar_ok
          and mismatches == 0 and elapsed < 120)
    _line(10, ok, f"lasso: {n_converged}/25 converged, worst KKT {worst_kkt:.2e} "
                  f"<= 1e-8, zero/scalar closed forms ok={zero_ok}/{scalar_ok}, "
                  f"checker mismatches {mismatches}/100, {elapsed:.1f}s")
    assert n_converged == 25
    assert worst_kkt <= 1e-8
    assert zero_ok and scalar_ok
    assert mismatches == 0
    assert elapsed < 120


# --------------------------------------------------------------------------
# criterion 11: byte-identical reruns of criteria 4, 6, 7

def test_criterion_11_reproducibility(oracle_payload, bp_recovery_payload,
                                      floor_payload, dg1, dg2):
    t0 = time.perf_counter()
    _, oracle_json, _ = oracle_payload
    _, bp_json, _ = bp_recovery_payload
    _, floor_json, _ = floor_payload
    oracle_again = json.dumps(run_oracle_equivalence(), sort_keys=True)
    bp_again = json.dumps(run_bp_recovery(dg1), sort_keys=True)
    floor_again = sk.run_recovery_floor(floor_config(), d=dg2).to_json(
        include_runtime=False)
    same = (oracle_json == oracle_again, bp_json == bp_again,
            floor_json == floor_again)
    elapsed = time.perf_counter() - t0
    _line(11, all(same), f"reproducibility: criteria 4/6/7 reruns byte-identical="
                         f"{same}, {elapsed:.1f}s")
    assert all(same)
