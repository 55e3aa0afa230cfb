import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stripkit as sk
from stripkit.experiments import (ExperimentConfig, ExperimentReport,
                                  parse_config_file, records_csv, sweep_csv)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
README = ROOT / "README.md"


def dg_config(**over):
    base = dict(family="dg", family_args={"s": 1}, k=2, eps=0.1, trials=25,
                seed=3)
    base.update(over)
    return ExperimentConfig(**base)


class TestRecoveryFloor:
    def test_identity_dictionary_all_bounds_hold(self, identity8):
        cfg = ExperimentConfig(family="gaussian", family_args={"m": 8, "N": 8, "seed": 0},
                               k=2, eps=0.1, trials=20, seed=1)
        rep = sk.run_recovery_floor(cfg, d=identity8)
        assert rep.aggregate["frac_both"] == 1.0
        assert rep.converged == 20

    def test_dg_guaranteed_regime(self):
        rep = sk.run_recovery_floor(dg_config())
        assert rep.converged == 25
        assert rep.aggregate["frac_both"] == 1.0
        assert rep.aggregate["support_rate"] == 1.0
        assert rep.floor == pytest.approx(0.7)

    def test_floor_asserted_only_with_enough_trials_and_low_k(self):
        rep = sk.run_recovery_floor(dg_config(trials=25))
        assert not rep.floor_asserted          # fewer than 200 trials
        rep2 = sk.run_recovery_floor(dg_config(k=4, trials=25))
        assert not rep2.floor_asserted         # k above the uniform threshold

    def test_k_zero_degenerate(self):
        rep = sk.run_recovery_floor(dg_config(k=0))
        assert rep.aggregate["frac_both"] == 1.0 and rep.trials == 0

    def test_oversparse_k_fails_recovery(self):
        # k = m+1 supports cannot be recovered for generic signs
        cfg = ExperimentConfig(family="gaussian",
                               family_args={"m": 4, "N": 12, "seed": 2},
                               k=5, eps=0.1, trials=15, seed=7)
        rep = sk.run_recovery_floor(cfg)
        assert rep.aggregate["frac_both"] <= 0.2

    def test_reproducible_json(self):
        a = sk.run_recovery_floor(dg_config()).to_json(include_runtime=False)
        b = sk.run_recovery_floor(dg_config()).to_json(include_runtime=False)
        assert a == b
        full = sk.run_recovery_floor(dg_config()).to_json()
        assert "runtime_seconds" in full and "runtime_seconds" not in a

    def test_accounting(self):
        rep = sk.run_recovery_floor(dg_config())
        assert rep.trials == len(rep.records)
        nonconv = sum(1 for r in rep.records if not r["converged"])
        assert rep.converged + nonconv == rep.trials


class TestOffsupportFloor:
    def test_compressible_floor(self):
        cfg = dg_config(magnitudes="compressible", trials=30, eps=0.1)
        rep = sk.run_offsupport_floor(cfg)
        assert rep.floor == pytest.approx(0.6)
        assert rep.aggregate["frac_l1"] >= 0.9

    def test_degenerate_floor_at_large_eps(self):
        cfg = dg_config(eps=0.25, trials=10)
        rep = sk.run_offsupport_floor(cfg)
        assert rep.floor == 0.0
        assert rep.floor_passed

    def test_k_zero_degenerate(self):
        rep = sk.run_offsupport_floor(dg_config(k=0))
        assert rep.kind == "bp_offsupport_floor"
        assert rep.trials == 0 and rep.records == []
        assert rep.aggregate == {"frac_l1": 1.0, "support_rate": 1.0,
                                 "frac_certificate": 1.0}
        assert rep.floor == pytest.approx(0.6)
        assert rep.floor_passed is None and not rep.floor_asserted

    def test_pinned_payload(self):
        # computed before the two floor drivers shared one body
        text = sk.run_offsupport_floor(dg_config(magnitudes="compressible", trials=30)
                                       ).to_json(include_runtime=False)
        assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
                == "a90e8c8535964e0c1ef2763715076279372a8fdd8ab4ed30384e6c0a6f674984")


class TestLassoStudy:
    def test_rejects_zero_sigma(self):
        with pytest.raises(ValueError):
            sk.run_lasso_study(dg_config(sigma=0.0, solver="lasso"))

    def test_gaussian_study(self):
        cfg = ExperimentConfig(family="gaussian",
                               family_args={"m": 32, "N": 64, "seed": 5},
                               k=2, eps=0.1, sigma=0.05, trials=10, seed=9,
                               solver="lasso")
        rep = sk.run_lasso_study(cfg)
        assert rep.converged == 10
        assert np.isfinite(rep.aggregate["ratio_max"])
        assert 0.0 <= rep.aggregate["frac_cond_all"] <= 1.0

    def test_report_round_trips_through_json(self):
        cfg = dg_config(sigma=0.01, trials=6, solver="lasso")
        rep = sk.run_lasso_study(cfg)
        payload = json.loads(rep.to_json())
        assert rep.as_dict() == payload
        assert payload["trials"] == 6
        assert len(payload["records"]) == 6
        for rec in payload["records"]:
            assert all(type(rec[key]) is bool for key in
                       ("cond_inverse_gram", "cond_noise_correlation",
                        "cond_certificate", "cond_all"))
        assert json.loads(rep.to_json(include_runtime=False)) == {
            k: v for k, v in payload.items() if k != "runtime_seconds"}

    def test_non_finite_report_is_refused(self):
        rep = ExperimentReport("lasso_study", {}, 0, 0, [], {"ratio_max": float("nan")})
        with pytest.raises(ValueError, match="not JSON compliant"):
            rep.to_json()


class TestSweep:
    def test_k_progression(self, tmp_path):
        cfg = ExperimentConfig(family="dg", family_args={"s": 1},
                               k_range=[0, 1, 2, 6, 10], eps=0.1, trials=12,
                               seed=4)
        reports = sk.sweep(cfg)
        rates = [r.aggregate["frac_both"] for r in reports]
        assert rates[0] == 1.0 and rates[1] == 1.0 and rates[2] == 1.0
        assert rates[-1] <= rates[2] + 0.2     # success decays with k
        path = tmp_path / "sweep.csv"
        sweep_csv(reports, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0].startswith("k,") and len(rows) == 6


    def test_gram_formed_once_per_dictionary(self, monkeypatch):
        calls = []
        gram = sk.Dictionary.gram

        def counted(d):
            calls.append(d.name)
            return gram(d)
        monkeypatch.setattr(sk.Dictionary, "gram", counted)
        # mu is read only when the floor can be asserted, i.e. from 200 trials
        cfg = ExperimentConfig(family="etf", family_args={"q": 13},
                               k_range=[1, 2, 3], trials=200, seed=4)
        reports = sk.sweep(cfg)
        assert [r.floor_asserted for r in reports] == [True, True, False]
        assert len(calls) == 1


@pytest.mark.parametrize("build", [
    lambda: sk.build_delsarte_goethals(1),
    lambda: sk.build_gaussian(6, 20, seed=3),
    lambda: sk.build_random_harmonic(16, 24, seed=1),
    lambda: sk.build_gaussian(3, 1, seed=0),
])
def test_memoized_mu_is_offdiagonal_max(build):
    d = build()
    e = d.entries
    direct = max((abs(np.vdot(e[:, i], e[:, j]))
                  for i in range(d.N) for j in range(d.N) if i != j), default=0.0)
    assert d.mu == pytest.approx(direct, rel=1e-14, abs=1e-15)
    assert d.mu == sk.coherence_profile(d).mu


@pytest.mark.parametrize("build, exact", [
    (lambda: sk.build_delsarte_goethals(1), True),
    (lambda: sk.build_chirp(7), True),
    # a block is a gemm and the full real Gram A^T A a syrk, which may round
    # an entry differently in the last place
    (lambda: sk.build_gaussian(6, 20, seed=3), False),
])
def test_blocked_mu(build, exact, monkeypatch):
    d = build()
    want = sk.coherence_profile(d).mu
    # three Gram rows per block, the last block short
    monkeypatch.setattr(sk.dictionaries, "GRAM_BLOCK_BYTES",
                        3 * d.entries.itemsize * d.N)
    assert d.mu == (want if exact else pytest.approx(want, rel=1e-15))


def test_records_csv(tmp_path):
    rep = sk.run_recovery_floor(dg_config(trials=5))
    path = tmp_path / "records.csv"
    records_csv(rep, path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 6


def test_parse_config_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("""# comment line
family=dg
family_args={"s": 1}
k=2
eps=0.1
trials=7
seed=12
""")
    cfg = parse_config_file(path)
    assert cfg.family == "dg" and cfg.family_args == {"s": 1}
    assert (cfg.k, cfg.trials, cfg.seed) == (2, 7, 12)
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense=1\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)


def test_parse_config_file_rejects_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("family=dg\nk=2\ntrials=5\n k = 3\n")
    with pytest.raises(ValueError, match="duplicate config key 'k'"):
        parse_config_file(path)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_example_config(path):
    parse_config_file(path).validate()
    assert f"`configs/{path.name}`" in README.read_text(encoding="utf-8")


_INT = st.integers(-3, 400).map(str)
_FLOAT = st.one_of(st.sampled_from(["0", "0.1", "0.5", "1e-6"]),
                   st.sampled_from(["-1", "2", "nan", "inf", "-inf"]),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr))
_JUNK = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
# small sizes only, so that every dictionary a draw can build is tiny
_FAMILY_ARG = st.one_of(st.integers(-2, 13), st.integers(2, 5).map(str), st.floats(0, 4),
                        st.booleans(), st.none(), st.lists(st.integers(0, 3)))
_SMALL_FAMILIES = [("dg", {"s": 1}), ("chirp", {"m": 7}), ("etf", {"q": 13}),
                   ("gaussian", {"m": 6, "N": 9}), ("harmonic", {"m": 6, "N": 9, "seed": 2})]
_VALUES = {
    "family": st.sampled_from(["dg", "gaussian", "harmonic", "chirp", "etf", "gv"]),
    "family_args": st.one_of(
        st.dictionaries(st.sampled_from(["s", "r", "m", "N", "q", "seed"]), _FAMILY_ARG,
                        max_size=4),
        st.lists(st.integers(0, 3)), st.integers(), st.text(max_size=4)).map(json.dumps),
    "dictionary_path": st.just("missing.dict"),
    "k": _INT, "trials": _INT, "seed": _INT, "jobs": _INT,
    "k_range": st.lists(st.integers(-2, 20), max_size=4).map(lambda ks: ",".join(map(str, ks))),
    "eps": _FLOAT, "sigma": _FLOAT, "p": _FLOAT, "lam": _FLOAT, "bound_tol": _FLOAT,
    "magnitudes": st.sampled_from(["unit", "uniform", "compressible", "tail"]),
    "solver": st.sampled_from(["bp", "lasso", "omp"]),
}


@st.composite
def config_files(draw):
    """key=value text, mostly well-formed: each value is junk one time in
    twenty, and one file in four has an extra line that is blank, a comment,
    malformed, an unknown key or a repeated key."""
    keys = draw(st.lists(st.sampled_from(sorted(_VALUES)), unique=True, max_size=8))
    if draw(st.integers(0, 9)):
        keys = ["family", "family_args"] + [k for k in keys if not k.startswith("family")]
    values = {key: draw(_JUNK if draw(st.integers(0, 19)) == 0 else _VALUES[key])
              for key in keys}
    if "family" in values and draw(st.booleans()):
        values["family"], args = draw(st.sampled_from(_SMALL_FAMILIES))
        values["family_args"] = json.dumps(args)
    lines = [f"{key}={value}" for key, value in values.items()]
    if draw(st.integers(0, 3)) == 0:
        extra = draw(st.sampled_from(["", "# comment", "no separator", "junk=1",
                                      f"{keys[0]}=1" if keys else ""]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(config_files())
def test_config_files_validate_or_raise_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = parse_config_file(path)
            cfg.validate()
            if cfg.family is not None:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")   # realified complex families
                    cfg.load_dictionary()
        except ValueError:
            pass


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(family="dg", dictionary_path="x").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(family="dg", trials=0).validate()


@pytest.mark.parametrize("jobs", [0, -2])
def test_config_validation_rejects_nonpositive_jobs(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        dg_config(jobs=jobs).validate()
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        sk.run_recovery_floor(dg_config(jobs=jobs))


def test_pinned_floor_payload():
    # the first 10 trials of the criterion-7 study; pins the noiseless BP
    # floats (polish order, dual fits) byte for byte
    cfg = ExperimentConfig(family="dg", family_args={"s": 2}, k=4, eps=0.1,
                           trials=10, seed=2026)
    text = sk.run_recovery_floor(cfg).to_json(include_runtime=False)
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
            == "bac8bd0a11cdce49930d95f6144887c15867d9192e7f93786944097fa4534e04")


def test_jobs_do_not_change_results():
    a = sk.run_recovery_floor(dg_config(trials=8, jobs=1)).to_json(include_runtime=False)
    b = sk.run_recovery_floor(dg_config(trials=8, jobs=2)).to_json(include_runtime=False)
    assert a == b


def test_lone_block_runs_in_process(monkeypatch):
    def no_pool(*args, **kw):
        raise AssertionError("a single-block study started a process pool")
    monkeypatch.setattr(sk.experiments, "ProcessPoolExecutor", no_pool)
    assert sk.run_recovery_floor(dg_config(trials=10, jobs=2)).trials == 10
    assert sk.run_lasso_study(dg_config(trials=10, jobs=2, sigma=0.01,
                                        solver="lasso")).trials == 10


@pytest.mark.parametrize("solver, sigma", [("bp", 0.0), ("lasso", 0.01)])
def test_trial_t_is_drawn_from_its_own_stream(solver, sigma, monkeypatch):
    # the benchmark's noisy-recovery body draws Lasso trial 0 by hand from
    # derive_rng(seed, "trial", 0) and reuses it for BP
    seen = []
    real_observe = sk.experiments.observe

    def observe(*args, **kw):
        seen.append(real_observe(*args, **kw))
        return seen[-1]
    monkeypatch.setattr(sk.experiments, "observe", observe)
    d = sk.build_delsarte_goethals(1)
    cfg = dg_config(k=2, trials=3, seed=2026, sigma=sigma, solver=solver)
    run = sk.run_lasso_study if solver == "lasso" else sk.run_recovery_floor
    run(cfg, d=d)
    for t, inst in enumerate(seen):
        rng = sk.derive_rng(2026, "trial", t)
        want = sk.observe(d, sk.sample_generic_signal(d.N, 2, "unit", rng),
                          sigma=sigma, rng=rng)
        for key in ("x", "support", "signs", "y", "z"):
            assert np.array_equal(getattr(inst, key), getattr(want, key)), (t, key)
    assert len(seen) == 3


def test_lasso_jobs_do_not_change_results():
    texts = [sk.run_lasso_study(dg_config(trials=6, sigma=0.01, solver="lasso", jobs=jobs)
                                ).to_json(include_runtime=False) for jobs in (1, 2)]
    assert texts[0] == texts[1]


def test_lasso_records_do_not_depend_on_trial_count():
    # the first trials share a block with later ones in the long study and
    # with zero padding in the short ones (a lone column would otherwise be
    # solved by gemv, not gemm); their records are the same bytes
    d = sk.build_delsarte_goethals(1)
    long = sk.run_lasso_study(dg_config(trials=40, sigma=0.01, solver="lasso"), d=d)
    assert [r["trial"] for r in long.records] == list(range(40))
    for n in (1, 10):
        short = sk.run_lasso_study(dg_config(trials=n, sigma=0.01, solver="lasso"), d=d)
        assert json.dumps(short.records) == json.dumps(long.records[:n])


def test_jobs_do_not_change_blocked_results(monkeypatch):
    # three blocks of 4, the last padded, spread over two workers
    monkeypatch.setattr(sk.experiments, "TRIAL_BLOCK", 4)
    for run, over in ((sk.run_recovery_floor, {}),
                      (sk.run_lasso_study, {"sigma": 0.01, "solver": "lasso"})):
        texts = [run(dg_config(trials=10, jobs=jobs, **over)).to_json(include_runtime=False)
                 for jobs in (1, 2)]
        assert texts[0] == texts[1]
        assert [r["trial"] for r in json.loads(texts[0])["records"]] == list(range(10))


def test_frame_spectrum_formed_once_per_dictionary(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counted(mat, *args, **kw):
        shapes.append(mat.shape)
        return eigh(mat, *args, **kw)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    d = sk.build_delsarte_goethals(1)
    sk.run_recovery_floor(dg_config(trials=6), d=d)
    sk.run_lasso_study(dg_config(trials=6, sigma=0.01, solver="lasso"), d=d)
    assert shapes == [(d.m, d.m)]
