import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import stripkit as sk
from stripkit.cli import _emit, main
from stripkit.solvers import SolverInputError

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"
SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


@pytest.fixture()
def chirp_file(tmp_path):
    path = tmp_path / "c7.dict"
    assert main(["build", "--family", "chirp", "--m", "7", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def dg_file(tmp_path):
    path = tmp_path / "dg.dict"
    assert main(["build", "--family", "dg", "--s", "1", "--out", str(path)]) == 0
    return path


class TestBuild:
    def test_build_writes_file(self, chirp_file):
        assert chirp_file.exists() and chirp_file.stat().st_size > 0

    def test_build_with_csv(self, tmp_path):
        out = tmp_path / "g.dict"
        csv = tmp_path / "g.csv"
        code = main(["build", "--family", "gaussian", "--m", "4", "--N", "6",
                     "--seed", "3", "--out", str(out), "--csv", str(csv)])
        assert code == 0
        assert len(csv.read_text().strip().splitlines()) == 4

    def test_missing_parameter_exits_2(self, tmp_path):
        code = main(["build", "--family", "chirp", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["build", "--family", "chirp", "--m", "7",
                  "--out", str(tmp_path / "x"), "--bogus", "1"])
        assert err.value.code == 2


class TestAnalyze:
    def test_profile_json(self, chirp_file, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main(["analyze", "--dict", str(chirp_file), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("coherence_analysis.v1.json"))
        assert payload["profile"]["mu"] == pytest.approx(1 / math.sqrt(7), abs=1e-12)
        assert payload["profile"]["invariant"] is True

    def test_code_flags(self, dg_file, tmp_path):
        out = tmp_path / "dg.json"
        assert main(["analyze", "--dict", str(dg_file), "--pless", "2", "4",
                     "--strength", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("coherence_analysis.v1.json"))
        assert abs(payload["pless_residual"]["2"]) < 1e-9
        assert payload["oa_strength"]["exact"] is True

    # sha256 of the whole stdout; pins every profile float, the Pless
    # residuals and the strength
    PINNED = {
        "dg s=1": (["--family", "dg", "--s", "1"],
                   ["--pless", "1", "2", "3", "--strength", "3"],
                   "ded1a6e36583c4fc25ee5be80e9e63264848f0c16b7fd5f54c717e0744e73b61"),
        "dg s=2": (["--family", "dg", "--s", "2"], [],
                   "d3a965110d8997ce701f7562ada7839a9c00b60f04beb758ffcbd2cc53f8614c"),
        "chirp 7": (["--family", "chirp", "--m", "7"], [],
                    "8636faa8a18aaa27d44c256bbef7c28a10c5479be23cc0e80a62f95147f2656c"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_output(self, case, tmp_path, capsys):
        family, flags, digest = self.PINNED[case]
        path = tmp_path / "d.dict"
        assert main(["build", *family, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--dict", str(path), *flags]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("strength", ["0", "-1"])
    def test_strength_below_one_exits_2(self, strength, dg_file, capsys):
        # 0 used to drop oa_strength from the payload, -1 to report strength 0
        capsys.readouterr()
        assert main(["analyze", "--dict", str(dg_file), "--strength", strength]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert json.loads(captured.err) == {
            "error": f"--strength must be at least 1, got {strength}"}

    def test_pless_without_orders_exits_2(self, dg_file, capsys):
        # it used to exit 0 and leave pless_residual out of the payload
        capsys.readouterr()
        assert main(["analyze", "--dict", str(dg_file), "--pless"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert json.loads(captured.err) == {
            "error": "--pless needs at least one moment order L"}

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_exits_2(self, tol, dg_file, capsys):
        capsys.readouterr()
        assert main(["analyze", "--dict", str(dg_file), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"tol must be finite and nonnegative, got {float(tol)!r}"}

    def test_pless_on_nonbipolar_exits_2(self, tmp_path):
        out = tmp_path / "g.dict"
        main(["build", "--family", "gaussian", "--m", "4", "--N", "6",
              "--seed", "0", "--out", str(out)])
        assert main(["analyze", "--dict", str(out), "--pless", "2"]) == 2

    @pytest.mark.parametrize("first", [b"SDICT", b"SDICT x"])
    def test_malformed_header_exits_2(self, tmp_path, capsys, first):
        path = tmp_path / "bad.dict"
        path.write_bytes(first + b"\nfield=real\nm=1\nN=1\ndata\n" + bytes(8))
        assert main(["analyze", "--dict", str(path)]) == 2
        assert "bad header line" in json.loads(capsys.readouterr().err)["error"]

    def test_deeply_nested_param_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.dict"
        path.write_bytes(b"SDICT 1\nfield=real\nm=1\nN=1\nparam.x=" + b"[" * 100_000
                         + b"]" * 100_000 + b"\ndata\n" + struct.pack("<d", 1.0))
        assert main(["analyze", "--dict", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": "param.x is nested too deeply"}


class TestCertify:
    def test_exhaustive_report(self, tmp_path):
        out = tmp_path / "g.dict"
        main(["build", "--family", "gaussian", "--m", "8", "--N", "16",
              "--seed", "7", "--out", str(out)])
        rep_path = tmp_path / "rep.json"
        code = main(["certify", "--dict", str(out), "--property", "strip",
                     "--k", "3", "--delta", "0.6", "--exhaustive",
                     "--out", str(rep_path)])
        assert code == 0
        payload = json.loads(rep_path.read_text())
        jsonschema.validate(payload, load_schema("certification_report.v1.json"))
        assert payload["method"] == "exhaustive"
        assert payload["trials"] == 560

    def test_monte_carlo_deterministic(self, dg_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["certify", "--dict", str(dg_file), "--property", "sinc",
                         "--k", "2", "--alpha", "0.2", "--trials", "500",
                         "--seed", "11", "--out", str(path)]) == 0
            outs.append(path.read_text())
        assert outs[0] == outs[1]

    # sha256 of the whole stdout on dg s=1, k=2, 10000 trials, seed 7: the
    # draws outnumber the C(128, 2) = 8128 supports, so StRIP's norms and
    # WSINC's worst and probe energies are read back by rank (1220 StRIP
    # successes; wsinc_lhs 0.7310385866018175)
    PINNED = {
        "strip": (["--delta", "0.2"],
                  "f4771acba5347aa6b33f45af86fbe59a76eaf77361f929ee3797c2cf715366c9"),
        "wsinc": (["--delta", "0.5", "--alpha", "0.1"],
                  "1751ff2ebaed2059c2d1e79da2838b753bc20f2177d604bbfb96538021080252"),
    }

    @pytest.mark.parametrize("prop", sorted(PINNED))
    def test_repeated_support_stdout_pinned(self, prop, dg_file, capsys):
        flags, digest = self.PINNED[prop]
        capsys.readouterr()
        assert main(["certify", "--dict", str(dg_file), "--property", prop, "--k", "2",
                     *flags, "--trials", "10000", "--seed", "7"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    def test_wsinc_requires_both_thresholds(self, dg_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        for given, missing in ((["--delta", "0.5"], "--alpha"),
                               (["--alpha", "0.2"], "--delta")):
            code = main(["certify", "--dict", str(dg_file), "--property", "wsinc",
                         "--k", "2", *given, "--out", str(out)])
            assert code == 2
            err = json.loads(capsys.readouterr().err)
            assert missing in err["error"] and "wsinc" in err["error"]
        assert not out.exists()

    @pytest.mark.parametrize("flags, name", [
        (["--delta", "1e200"], "delta"), (["--delta=-1e200"], "delta"),
        (["--delta", "0.5", "--eps", "1e200"], "eps")])
    def test_wsinc_overflowing_threshold_exits_2(self, dg_file, tmp_path, capsys,
                                                 flags, name):
        out = tmp_path / "rep.json"
        capsys.readouterr()
        code = main(["certify", "--dict", str(dg_file), "--property", "wsinc",
                     "--k", "2", "--alpha", "0.2", "--trials", "50", *flags,
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.err)["error"].startswith(f"{name} is out of range")
        assert not out.exists()

    @pytest.mark.parametrize("prop, missing", [("strip", "--delta"),
                                               ("sinc", "--alpha")])
    def test_missing_threshold_exits_2(self, dg_file, tmp_path, capsys, prop,
                                       missing):
        out = tmp_path / "rep.json"
        code = main(["certify", "--dict", str(dg_file), "--property", prop,
                     "--k", "2", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == f"{missing} required for {prop}"
        assert not out.exists()

    def test_wsinc_exhaustive_exits_2(self, dg_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["certify", "--dict", str(dg_file), "--property", "wsinc",
                     "--k", "2", "--delta", "0.5", "--alpha", "0.2",
                     "--exhaustive", "--out", str(out)])
        assert code == 2
        assert "exhaustive" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    @pytest.mark.parametrize("prop, thresholds", [
        ("strip", ["--delta", "0.5"]),
        ("sinc", ["--alpha", "0.2"]),
        ("wsinc", ["--delta", "0.5", "--alpha", "0.2"]),
    ])
    def test_nonpositive_trials_exit_2(self, dg_file, capsys, prop, thresholds, trials):
        code = main(["certify", "--dict", str(dg_file), "--property", prop,
                     "--k", "2", *thresholds, "--trials", trials])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "need at least one trial"

    @pytest.mark.parametrize("prop, thresholds", [
        ("strip", ["--delta", "nan"]),
        ("sinc", ["--alpha", "inf"]),
        ("wsinc", ["--delta", "0.5", "--alpha", "0.2", "--eps", "inf"]),
    ])
    def test_non_finite_threshold_exits_2(self, dg_file, tmp_path, capsys, prop,
                                          thresholds):
        out = tmp_path / "rep.json"
        capsys.readouterr()
        assert main(["certify", "--dict", str(dg_file), "--property", prop,
                     "--k", "2", *thresholds, "--trials", "10", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "finite" in json.loads(captured.err)["error"]
        assert not out.exists()


class TestCheck:
    def test_oa_condition(self, capsys):
        assert main(["check", "--condition", "strip-oa",
                     "--param", "l", "6", "--param", "k", "4",
                     "--param", "delta", "0.5", "--param", "eps", "0.01",
                     "--param", "m", "2123"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("sufficient_condition.v1.json"))
        assert payload["satisfied"] is True
        assert math.ceil(payload["derived"]["required_m"]) == 2123

    def test_gershgorin(self, capsys):
        assert main(["check", "--condition", "gershgorin",
                     "--param", "mu", "0.25", "--param", "k", "2",
                     "--param", "delta", "0.3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("sufficient_condition.v1.json"))
        assert payload["satisfied"] is True

    def test_dg_sparsity(self, capsys):
        assert main(["check", "--condition", "dg-sparsity",
                     "--param", "m", "4096", "--param", "delta", "0.5",
                     "--param", "eps", "0.001", "--param", "k", "4",
                     "--param", "constant", "0.95"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("sufficient_condition.v1.json"))
        assert payload["satisfied"] is True

    def test_strip_coherence_keeps_given_constants(self, capsys):
        given = {"mu": 2 ** -6, "theta": 2.0 ** -24, "k": 4, "N": 10 ** 9,
                 "frame_norm": 1.0, "delta": 0.9, "eps": 0.05, "a": 0.3, "b": 0.2}
        assert main(["check", "--condition", "strip-coherence",
                     *(t for key, v in given.items() for t in ("--param", key, str(v)))
                     ]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = sk.strip_sufficient_direct(**given).as_dict()
        assert payload == json.loads(json.dumps(want))
        assert (payload["inputs"]["a"], payload["inputs"]["b"]) == (0.3, 0.2)

    def test_unknown_param_exits_2(self, capsys):
        code = main(["check", "--condition", "gershgorin",
                     "--param", "bogus", "1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert "bogus" in err
        assert "accepted keys: mu, k, delta" in err

    def test_missing_param_exits_2(self, capsys):
        code = main(["check", "--condition", "gershgorin", "--param", "mu", "0.1"])
        assert code == 2
        assert "accepted keys" in json.loads(capsys.readouterr().err)["error"]

    # a valid parameter set per condition; each boundary case overrides one key
    VALID = {
        "gershgorin": {"mu": "0.1", "k": "3", "delta": "0.5"},
        "sinc-coherence": {"mu": "0.1", "theta": "0.01", "k": "4", "N": "1000",
                           "eps": "0.01"},
        "sinc-tail": {"mu": "0.1", "theta": "0.01", "k": "4", "alpha": "0.5",
                      "beta": "1"},
        "strip-via-sinc": {"mu": "0.1", "theta": "0.01", "k": "4", "delta": "0.5",
                           "eps1": "0.01"},
        "strip-coherence": {"mu": "0.1", "theta": "0.01", "k": "4", "N": "1000",
                            "frame_norm": "2", "delta": "0.5", "eps": "0.01"},
        "strip-oa": {"l": "6", "k": "4", "delta": "0.5", "eps": "0.01", "m": "2123"},
        "dg-sparsity": {"m": "64", "delta": "0.5", "eps": "0.001", "k": "3"},
    }
    # condition, overriding key and value -> a fragment of the JSON error
    BOUNDARY = {
        "gershgorin k inf": ("gershgorin", "k", "inf", "k must be a finite integer"),
        "gershgorin k 2.7": ("gershgorin", "k", "2.7", "k must be a finite integer"),
        "gershgorin k 0": ("gershgorin", "k", "0", "need k > 0"),
        "gershgorin mu nan": ("gershgorin", "mu", "nan", "mu must be a finite number"),
        "gershgorin mu 1e308": ("gershgorin", "mu", "1e308", "non-finite margin"),
        "sinc-coherence mu inf": ("sinc-coherence", "mu", "inf",
                                  "mu must be a finite number"),
        "sinc-coherence eps 0": ("sinc-coherence", "eps", "0", "need 0 < eps < 1"),
        "sinc-coherence eps -1": ("sinc-coherence", "eps", "-1", "need 0 < eps < 1"),
        "sinc-coherence k 0": ("sinc-coherence", "k", "0", "need k > 0"),
        "sinc-coherence N 0": ("sinc-coherence", "N", "0", "need N > 0"),
        "sinc-coherence beta 1e200": ("sinc-coherence", "beta", "1e200", "out of range"),
        "sinc-tail k 0": ("sinc-tail", "k", "0", "need k > 0"),
        "strip-via-sinc k 0": ("strip-via-sinc", "k", "0", "need k > 0"),
        "strip-coherence k 0": ("strip-coherence", "k", "0", "need k > 0"),
        "strip-coherence N 0": ("strip-coherence", "N", "0", "need N > 0"),
        "strip-oa delta 0": ("strip-oa", "delta", "0", "need delta > 0"),
        "strip-oa eps 0": ("strip-oa", "eps", "0", "need eps > 0"),
        "strip-oa l 6.5": ("strip-oa", "l", "6.5", "l must be a finite integer"),
        "dg-sparsity eps -1": ("dg-sparsity", "eps", "-1", "need eps > 0"),
        "dg-sparsity m 0": ("dg-sparsity", "m", "0", "need m > 0"),
        "dg-sparsity constant -1": ("dg-sparsity", "constant", "-1",
                                    "need constant > 0"),
        "dg-sparsity constant 0": ("dg-sparsity", "constant", "0", "need constant > 0"),
        "dg-sparsity delta -0.5": ("dg-sparsity", "delta", "-0.5", "need delta >= 0"),
        "gershgorin mu -0.1": ("gershgorin", "mu", "-0.1", "need mu >= 0"),
        "gershgorin delta -0.5": ("gershgorin", "delta", "-0.5", "need delta >= 0"),
        "sinc-coherence mu -0.01": ("sinc-coherence", "mu", "-0.01", "need mu >= 0"),
        "sinc-coherence theta -0.00001": ("sinc-coherence", "theta", "-0.00001",
                                          "need theta >= 0"),
        "sinc-tail theta -0.01": ("sinc-tail", "theta", "-0.01", "need theta >= 0"),
        "strip-via-sinc delta -0.5": ("strip-via-sinc", "delta", "-0.5",
                                      "need delta >= 0"),
        "strip-coherence mu -0.1": ("strip-coherence", "mu", "-0.1", "need mu >= 0"),
        "strip-coherence frame_norm -2": ("strip-coherence", "frame_norm", "-2",
                                          "need frame_norm >= 0"),
        # eps is a failure probability (at 1 or above a verdict is vacuous) and m a row count
        "strip-oa eps 1": ("strip-oa", "eps", "1", "need eps < 1"),
        "strip-oa eps 1e6": ("strip-oa", "eps", "1e6", "need eps < 1"),
        "strip-oa m 0": ("strip-oa", "m", "0", "need m > 0"),
        "strip-oa m -5": ("strip-oa", "m", "-5", "need m > 0"),
        "dg-sparsity eps 1": ("dg-sparsity", "eps", "1", "need eps < 1"),
        "dg-sparsity eps 1e9": ("dg-sparsity", "eps", "1e9", "need eps < 1"),
        "strip-via-sinc eps1 7.99": ("strip-via-sinc", "eps1", "7.99",
                                     "need 0 < eps1 < 1"),
        "strip-via-sinc eps1 1": ("strip-via-sinc", "eps1", "1", "need 0 < eps1 < 1"),
        # a power past float range names the condition's inputs
        "sinc-coherence mu 1e100": ("sinc-coherence", "mu", "1e100",
                                    "out of range of a float for inputs {'mu': 1e+100"),
        "strip-via-sinc delta 1e100": ("strip-via-sinc", "delta", "1e100",
                                       "'delta': 1e+100"),
        "strip-coherence frame_norm 1e200": ("strip-coherence", "frame_norm", "1e200",
                                             "'frame_norm': 1e+200"),
        "strip-oa delta 1e-300": ("strip-oa", "delta", "1e-300", "'delta': 1e-300"),
        "dg-sparsity delta 1e100": ("dg-sparsity", "delta", "1e100", "'delta': 1e+100"),
        "sinc-tail alpha 1e308": ("sinc-tail", "alpha", "1e308", "'alpha': 1e+308"),
    }

    @pytest.mark.parametrize("condition", sorted(VALID))
    def test_valid_parameters_exit_0(self, condition, capsys):
        argv = ["check", "--condition", condition]
        for key, value in self.VALID[condition].items():
            argv += ["--param", key, value]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("sufficient_condition.v1.json"))

    @pytest.mark.parametrize("case", sorted(BOUNDARY))
    def test_boundary_input_exits_2(self, case, capsys):
        condition, key, value, message = self.BOUNDARY[case]
        argv = ["check", "--condition", condition]
        for name, text in {**self.VALID[condition], key: value}.items():
            argv += ["--param", name, text]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert message in json.loads(captured.err)["error"]

    def test_overflow_names_condition_and_inputs(self, capsys):
        assert main(["check", "--condition", "sinc-tail", "--param", "mu", "0.1",
                     "--param", "theta", "0.01", "--param", "k", "4",
                     "--param", "alpha", "1e308", "--param", "beta", "1e308"]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": (
            "sinc-tail: a result is out of range of a float for inputs "
            "{'mu': 0.1, 'theta': 0.01, 'k': 4, 'alpha': 1e+308, 'beta': 1e+308}")}

    def test_repeated_param_exits_2(self, capsys):
        # the last value used to win silently (k = 2 here)
        code = main(["check", "--condition", "gershgorin", "--param", "mu", "0.1",
                     "--param", "k", "3", "--param", "delta", "0.5",
                     "--param", "k", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "duplicate --param key 'k'"}


class TestRecover:
    def test_bp_records(self, dg_file, tmp_path, capsys):
        csv = tmp_path / "rec.csv"
        code = main(["recover", "--dict", str(dg_file), "--k", "2",
                     "--trials", "3", "--seed", "5", "--csv", str(csv)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 3
        assert all(r["recovery_l2"] < 1e-6 for r in payload["records"])
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 4
        assert sorted(lines[0].split(",")) == sorted(payload["records"][0])

    def test_complex_dictionary_is_realified(self, chirp_file, tmp_path, capsys):
        csv = tmp_path / "rec.csv"
        capsys.readouterr()
        with pytest.warns(UserWarning, match="realifying"):
            assert main(["recover", "--dict", str(chirp_file), "--k", "2",
                         "--trials", "3", "--csv", str(csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["trial"] for r in payload["records"]] == [0, 1, 2]
        assert len(csv.read_text().strip().splitlines()) == 4

    def test_tiny_noise_radius(self, dg_file, capsys):
        # eps far below the residual's rounding is reached, not refused
        capsys.readouterr()
        assert main(["recover", "--dict", str(dg_file), "--k", "2", "--eps", "1e-30",
                     "--sigma", "0.01"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert len(records) == 10 and all(r["converged"] for r in records)

    # sha256 of the whole stdout on dg s=1, k=2, 10 trials, seed 3; pins the
    # solver floats (iterations, objectives, errors) of each route
    PINNED = {
        "bp": ([], "c1ab18528c0b250a8d432709ac46f0f110411e3e1a279fa098e5638ef7da32a7"),
        "bp noisy": (["--sigma", "0.01"],
                     "65dfe4cbb9fa371a39f3e6713226b8f4ac1bcebed406943f90f040ce72d96769"),
        "lasso": (["--solver", "lasso", "--sigma", "0.01"],
                  "bb6b12daef1ae27d93a381ef5b8b3b8b11e368e7ba0fcabc2f275af1fdf01612"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_output(self, case, dg_file, capsys):
        flags, digest = self.PINNED[case]
        capsys.readouterr()
        assert main(["recover", "--dict", str(dg_file), "--k", "2", "--trials", "10",
                     "--seed", "3", *flags]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_nonpositive_trials_exit_2(self, dg_file, tmp_path, capsys, trials):
        out, csv = tmp_path / "rec.json", tmp_path / "rec.csv"
        capsys.readouterr()
        assert main(["recover", "--dict", str(dg_file), "--k", "2", "--trials", trials,
                     "--out", str(out), "--csv", str(csv)]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "need at least one trial"}
        assert not out.exists() and not csv.exists()

    # flags over a valid recover call -> the JSON error, as ExperimentConfig words it
    INVALID_FLAGS = {
        "sigma nan": (["--sigma", "nan"], "sigma must be finite"),
        "sigma inf": (["--solver", "lasso", "--sigma", "inf"], "sigma must be finite"),
        "sigma negative": (["--sigma", "-0.1"], "sigma must be nonnegative"),
        "lam nan": (["--solver", "lasso", "--sigma", "0.1", "--lam", "nan"],
                    "lam must be finite"),
        "lam inf": (["--solver", "lasso", "--sigma", "0.1", "--lam", "inf"],
                    "lam must be finite"),
        "lam zero": (["--solver", "lasso", "--sigma", "0.1", "--lam", "0"],
                     "lam must be positive"),
        "lam negative": (["--solver", "lasso", "--sigma", "0.1", "--lam", "-2"],
                         "lam must be positive"),
        "eps nan": (["--eps", "nan"], "eps must be finite"),
        "eps inf": (["--eps", "inf"], "eps must be finite"),
        "eps negative": (["--eps", "-0.5"], "eps must be nonnegative"),
        "prob-eps zero": (["--prob-eps", "0"], "prob-eps must be in (0, 1)"),
        "prob-eps nan": (["--prob-eps", "nan"], "prob-eps must be in (0, 1)"),
    }

    @pytest.mark.parametrize("case", sorted(INVALID_FLAGS))
    def test_invalid_flags_exit_2(self, case, dg_file, tmp_path, capsys):
        flags, message = self.INVALID_FLAGS[case]
        out = tmp_path / "rec.json"
        capsys.readouterr()
        assert main(["recover", "--dict", str(dg_file), "--k", "2", "--trials", "1",
                     "--out", str(out), *flags]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": message}
        assert not out.exists()


class TestGv:
    def test_derandomized(self, tmp_path, capsys):
        out = tmp_path / "gv.dict"
        code = main(["gv", "--l", "6", "--mu", "0.5", "--derandomize",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is True
        assert payload["coherence"] <= 0.5
        assert out.exists()

    def test_infeasible_exits_1(self, capsys):
        code = main(["gv", "--l", "4", "--mu", "0.25", "--m", "40",
                     "--derandomize"])
        assert code == 1

    def test_explicit_m_with_tiny_mu(self, capsys):
        # a given m needs no auto size; the random code runs, and the
        # derandomized one is infeasible with a hint past the cap
        assert main(["gv", "--l", "1", "--mu", "1e-300", "--m", "64"]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 64
        assert main(["gv", "--l", "2", "--mu", "1e-300", "--m", "64",
                     "--derandomize"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"].endswith("(auto size beyond the cap 4096)")

    def test_dictionary_built_only_for_out(self, tmp_path, capsys):
        # the float64 bipolar dictionary of the l = 16 span would take
        # 8 * 278 * 2^16 bytes = 139 MiB; without --out nothing reads it
        tracemalloc.start()
        try:
            assert main(["gv", "--l", "16", "--mu", "0.4"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2 ** 20
        payload = json.loads(capsys.readouterr().out)
        assert (payload["m"], payload["N"]) == (278, 2 ** 16)
        for flags in ([], ["--derandomize"]):
            argv = ["gv", "--l", "6", "--mu", "0.5", *flags]
            assert main(argv) == 0
            plain = capsys.readouterr().out
            assert main(argv + ["--out", str(tmp_path / "gv.dict")]) == 0
            assert capsys.readouterr().out == plain


class TestExperiment:
    def test_config_run(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text('family=dg\nfamily_args={"s": 1}\nk=2\neps=0.1\n'
                       'trials=6\nseed=2\n')
        out = tmp_path / "report.json"
        csv = tmp_path / "trials.csv"
        code = main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--csv", str(csv)])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("experiment_report.v1.json"))
        assert payload["trials"] == 6
        assert len(csv.read_text().strip().splitlines()) == 7

    def test_lasso_config_run(self, tmp_path):
        cfg = tmp_path / "lasso.cfg"
        cfg.write_text('family=dg\nfamily_args={"s": 1}\nk=2\nsigma=0.01\n'
                       'solver=lasso\ntrials=3\nseed=2\n')
        out = tmp_path / "report.json"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "lasso_study"
        assert len(payload["records"]) == 3

    def test_rank_deficiency_exits_2(self, tmp_path, capsys, monkeypatch):
        from stripkit import experiments

        def deficient(*args, **kwargs):
            raise np.linalg.LinAlgError("support Gram is singular")
        monkeypatch.setattr(experiments, "cp_conditions", deficient)
        cfg = tmp_path / "lasso.cfg"
        cfg.write_text('family=dg\nfamily_args={"s": 1}\nk=2\nsigma=0.01\n'
                       'solver=lasso\ntrials=1\nseed=2\n')
        assert main(["experiment", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "support Gram is singular"

    def test_sweep_csv(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text('family=dg\nfamily_args={"s": 1}\nk_range=1,2,3\n'
                       'trials=2\nseed=2\n')
        csv = tmp_path / "sweep.csv"
        assert main(["experiment", "--config", str(cfg), "--csv", str(csv)]) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0].startswith("k,trials,converged,")
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["1", "2"], ["2", "2"], ["3", "2"]]

    def test_lasso_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text('family=dg\nfamily_args={"s": 1}\nk_range=1,2\nsigma=0.1\n'
                       'solver=lasso\ntrials=2\nseed=2\n')
        out, csv = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--csv", str(csv)]) == 0
        payload = json.loads(out.read_text())
        assert [report["config"]["k"] for report in payload] == [1, 2]
        for report in payload:
            jsonschema.validate(report, load_schema("experiment_report.v1.json"))
            assert report["kind"] == "lasso_study"
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == ("k,trials,converged,frac_cond_inverse_gram,"
                            "frac_cond_noise_correlation,frac_cond_certificate,"
                            "frac_cond_all,ratio_max,ratio_median")

    def test_lasso_on_one_column_exits_2(self, tmp_path, capsys):
        # k ln N is 0 at N = 1: the ratio once divided by it and exited 1
        # with a traceback
        cfg = tmp_path / "one.cfg"
        cfg.write_text('family=gaussian\nfamily_args={"m": 3, "N": 1}\nk=1\n'
                       'sigma=0.1\nlam=1\nsolver=lasso\ntrials=2\n')
        out = tmp_path / "report.json"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert "needs N >= 2 (N=1)" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    def test_phase_transition_pinned(self, tmp_path):
        # configs/phase_transition_dg1.cfg: the whole JSON without its
        # runtimes and the CSV bytes, pinned before the study drivers were
        # merged into one
        out, csv = tmp_path / "pt.json", tmp_path / "pt.csv"
        assert main(["experiment", "--config", str(CONFIGS / "phase_transition_dg1.cfg"),
                     "--out", str(out), "--csv", str(csv)]) == 0
        payload = json.loads(out.read_text())
        for report in payload:
            report.pop("runtime_seconds")
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
                == "703944f3e1fe977e2eb0b6c2d79cc6fbab313eab9eae0e5c3da087c8efe36c4c")
        assert (hashlib.sha256(csv.read_bytes()).hexdigest()
                == "4db80611b6259734e13587ef2d25512e586186a878367742519288e6a2012a9f")

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery=1\n")
        assert main(["experiment", "--config", str(cfg)]) == 2

    def test_duplicate_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text('family=dg\nfamily_args={"s": 1}\nk=2\ntrials=2\ntrials=3\n')
        assert main(["experiment", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "duplicate config key 'trials'"

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_nonpositive_jobs_exits_2(self, tmp_path, capsys, where):
        cfg = tmp_path / "study.cfg"
        text = 'family=dg\nfamily_args={"s": 1}\nk=2\ntrials=2\n'
        cfg.write_text(text + ("jobs=0\n" if where == "config" else ""))
        extra = ["--jobs", "0"] if where == "flag" else []
        out = tmp_path / "report.json"
        code = main(["experiment", "--config", str(cfg), *extra, "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "jobs must be at least 1"
        assert not out.exists()

    # config keys over a valid dg s=1 study -> the JSON error on stderr
    INVALID_CONFIGS = {
        "family_args list": ({"family_args": "[1]"}, "family_args must be a JSON object"),
        "family_args str value": ({"family_args": '{"s": "1"}'},
                                  "family 'dg' parameter 's' must be an integer, got '1'"),
        "family_args bool value": ({"family_args": '{"s": true}'}, "must be an integer"),
        "family_args float value": ({"family_args": '{"s": 1.0}'}, "must be an integer"),
        "family_args deep": ({"family_args": "[" * 100_000}, "nested too deeply"),
        "eps nan": ({"eps": "nan"}, "eps must be in (0, 1)"),
        "eps inf": ({"eps": "inf"}, "eps must be in (0, 1)"),
        "p nan": ({"p": "nan"}, "p must be finite"),
        "bound_tol inf": ({"bound_tol": "inf"}, "bound_tol must be finite"),
        "bound_tol negative": ({"bound_tol": "-1e-6"}, "bound_tol must be nonnegative"),
        "lasso sigma nan": ({"solver": "lasso", "sigma": "nan"}, "sigma must be finite"),
        "lasso sigma inf": ({"solver": "lasso", "sigma": "inf"}, "sigma must be finite"),
        "lasso sigma negative": ({"solver": "lasso", "sigma": "-0.1"},
                                 "sigma must be nonnegative"),
        "lasso lam nan": ({"solver": "lasso", "sigma": "0.1", "lam": "nan"},
                          "lam must be finite"),
        "lasso lam zero": ({"solver": "lasso", "sigma": "0.1", "lam": "0"},
                           "lam must be positive"),
        "lasso lam negative": ({"solver": "lasso", "sigma": "0.1", "lam": "-2"},
                               "lam must be positive"),
        "bp sigma": ({"sigma": "0.5"}, "the bp floor study is noiseless"),
        "magnitudes unknown": ({"magnitudes": "gaussian"},
                               "unknown magnitude model 'gaussian'"),
        "k_range empty": ({"k_range": ""}, "k_range needs at least one k"),
        "k_range negative": ({"k_range": "1,2,-1"}, "k must be nonnegative"),
        "lasso k_range zero": ({"k_range": "1,2,0", "solver": "lasso", "sigma": "0.01"},
                               "the lasso study needs k >= 1"),
        "family_args negative seed": ({"family": "gaussian",
                                       "family_args": '{"m": 4, "N": 8, "seed": -1}'},
                                      "seed must be nonnegative, got -1"),
    }

    @pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
    def test_invalid_config_exits_2(self, case, tmp_path, capsys):
        over, message = self.INVALID_CONFIGS[case]
        keys = {"family": "dg", "family_args": '{"s": 1}', "k": "2", "trials": "2",
                **over}
        cfg = tmp_path / "study.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in keys.items()))
        out = tmp_path / "report.json"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    def test_seed_override_reproduces(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text('family=dg\nfamily_args={"s": 1}\nk=2\neps=0.1\n'
                       'trials=4\nseed=2\n')
        texts = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["experiment", "--config", str(cfg), "--seed", "9",
                         "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            payload.pop("runtime_seconds")
            texts.append(json.dumps(payload, sort_keys=True))
        assert texts[0] == texts[1]


# Every subcommand option that names a file: a missing input, or an output in
# a directory that does not exist. {dict} is a saved dg s=1 dictionary, {cfg}
# a valid study config, {gone} a path under a missing directory.
FILE_ERROR_CASES = {
    "build --out": ["build", "--family", "chirp", "--m", "7", "--out", "{gone}"],
    "build --csv": ["build", "--family", "chirp", "--m", "7",
                    "--out", "{tmp}/c.dict", "--csv", "{gone}"],
    "analyze --dict": ["analyze", "--dict", "{gone}"],
    "analyze --out": ["analyze", "--dict", "{dict}", "--out", "{gone}"],
    "certify --dict": ["certify", "--dict", "{gone}", "--property", "sinc",
                       "--k", "2", "--alpha", "0.5", "--trials", "10"],
    "certify --out": ["certify", "--dict", "{dict}", "--property", "sinc",
                      "--k", "2", "--alpha", "0.5", "--trials", "10",
                      "--out", "{gone}"],
    "check --out": ["check", "--condition", "gershgorin", "--param", "k", "2",
                    "--param", "mu", "0.1", "--param", "delta", "0.5",
                    "--out", "{gone}"],
    "recover --dict": ["recover", "--dict", "{gone}", "--k", "1", "--trials", "1"],
    "recover --out": ["recover", "--dict", "{dict}", "--k", "1", "--trials", "1",
                      "--out", "{gone}"],
    "recover --csv": ["recover", "--dict", "{dict}", "--k", "1", "--trials", "1",
                      "--csv", "{gone}"],
    "gv --out": ["gv", "--l", "3", "--mu", "0.9", "--out", "{gone}"],
    "experiment --config": ["experiment", "--config", "{gone}"],
    "experiment --out": ["experiment", "--config", "{cfg}", "--out", "{gone}"],
    "experiment --csv": ["experiment", "--config", "{cfg}", "--csv", "{gone}"],
    "experiment dictionary_path": ["experiment", "--config", "{cfg_gone}"],
}


@pytest.mark.parametrize("case", sorted(FILE_ERROR_CASES))
def test_file_errors_exit_2(case, dg_file, tmp_path, capsys):
    gone = tmp_path / "missing" / "file"
    cfg = tmp_path / "study.cfg"
    cfg.write_text('family=dg\nfamily_args={"s": 1}\nk=1\ntrials=1\n')
    cfg_gone = tmp_path / "gone.cfg"
    cfg_gone.write_text(f"dictionary_path={gone}\nk=1\ntrials=1\n")
    names = {"gone": gone, "tmp": tmp_path, "dict": dg_file, "cfg": cfg,
             "cfg_gone": cfg_gone}
    capsys.readouterr()
    assert main([arg.format(**names) for arg in FILE_ERROR_CASES[case]]) == 2
    err = json.loads(capsys.readouterr().err)
    assert str(gone) in err["error"]


# One bad input per subcommand, other than a file error: {dict} is a saved
# dg s=1 dictionary, {gauss} a saved Gaussian one (not bipolar) and {cfg} a
# study config whose family_args carry a key dg does not take.
BAD_INPUT_CASES = {
    "build": (["build", "--family", "dg", "--s", "1", "--seed", "3",
               "--out", "{tmp}/x.dict"], "does not take ['seed']"),
    "analyze": (["analyze", "--dict", "{gauss}", "--pless", "2"], "not bipolar"),
    "certify": (["certify", "--dict", "{dict}", "--property", "strip", "--k", "2"],
                "--delta required"),
    "check": (["check", "--condition", "gershgorin", "--param", "k", "2"],
              "missing keys"),
    "recover": (["recover", "--dict", "{dict}", "--k", "1", "--solver", "lasso",
                 "--sigma", "nan"], "sigma must be finite"),
    "gv": (["gv", "--l", "3", "--mu", "1.5"], "need 0 < mu <= 1"),
    # an auto size past the cap, whether mu^2 underflows to 0 or is subnormal
    "gv mu 1e-300": (["gv", "--l", "1", "--mu", "1e-300"],
                     "mu = 1e-300 needs m = 4 ln N / mu^2 beyond the exact-arithmetic cap"),
    "gv mu 1e-160": (["gv", "--l", "1", "--mu", "1e-160"],
                     "mu = 1e-160 needs m = 4 ln N / mu^2 beyond the exact-arithmetic cap"),
    # sizes past the caps, rejected before the span or code is allocated
    "gv span": (["gv", "--l", "40", "--mu", "1"], "2^40 x m span is beyond the cap"),
    "gv --derandomize span": (["gv", "--l", "40", "--mu", "1", "--derandomize"],
                              "2^40 x m span is beyond the cap"),
    "build dg s=1 r=1": (["build", "--family", "dg", "--s", "1", "--r", "1",
                          "--out", "{tmp}/x.dict"],
                         "(s=1, r=1) unsupported: only r=0 is constructed"),
    "build dg s=2 r=1": (["build", "--family", "dg", "--s", "2", "--r", "1",
                          "--out", "{tmp}/x.dict"],
                         "(s=2, r=1) unsupported: only r=0 is constructed"),
    "build gaussian seed": (["build", "--family", "gaussian", "--m", "4", "--N", "8",
                             "--seed", "-1", "--out", "{tmp}/x.dict"],
                            "seed must be nonnegative, got -1"),
    "build harmonic seed": (["build", "--family", "harmonic", "--m", "4", "--N", "8",
                             "--seed", "-1", "--out", "{tmp}/x.dict"],
                            "seed must be nonnegative, got -1"),
    "build dg size": (["build", "--family", "dg", "--s", "5", "--out", "{tmp}/x.dict"],
                      "s=5 needs a 8388608 x 4096 code"),
    "experiment": (["experiment", "--config", "{cfg}"], "does not take ['typo']"),
    # a master seed is one 64-bit key: -1 would draw what 2^64 - 1 draws
    "certify seed -1": (["certify", "--dict", "{dict}", "--property", "strip", "--k", "2",
                         "--delta", "0.5", "--seed", "-1"],
                        "seed must be in [0, 2^64), got -1"),
    "certify seed 2^64": (["certify", "--dict", "{dict}", "--property", "sinc", "--k", "2",
                           "--alpha", "0.2", "--seed", str(2 ** 64)],
                          f"seed must be in [0, 2^64), got {2 ** 64}"),
    "recover seed -1": (["recover", "--dict", "{dict}", "--k", "1", "--seed", "-1"],
                        "seed must be in [0, 2^64), got -1"),
    "gv seed 2^64": (["gv", "--l", "3", "--mu", "1", "--seed", str(2 ** 64)],
                     f"seed must be in [0, 2^64), got {2 ** 64}"),
    # refused before the configured dictionary is built
    "experiment seed -1": (["experiment", "--config", "{cfg}", "--seed", "-1"],
                           "seed must be in [0, 2^64), got -1"),
}


@pytest.mark.parametrize("command", sorted(BAD_INPUT_CASES))
def test_bad_input_is_a_json_error(command, dg_file, tmp_path, capsys):
    gauss = tmp_path / "g.dict"
    assert main(["build", "--family", "gaussian", "--m", "4", "--N", "6",
                 "--seed", "0", "--out", str(gauss)]) == 0
    cfg = tmp_path / "study.cfg"
    cfg.write_text('family=dg\nfamily_args={"s": 1, "typo": 3}\nk=1\ntrials=1\n')
    names = {"tmp": tmp_path, "dict": dg_file, "gauss": gauss, "cfg": cfg}
    argv, message = BAD_INPUT_CASES[command]
    capsys.readouterr()
    assert main([arg.format(**names) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert list(payload) == ["error"] and message in payload["error"]


# Each subcommand that loads a dictionary, on a saved Gaussian 2x3 file whose
# first payload double is replaced by NaN.
NON_FINITE_CASES = {
    "analyze": ["analyze", "--dict", "{bad}"],
    "certify": ["certify", "--dict", "{bad}", "--property", "strip", "--k", "1",
                "--delta", "0.5", "--trials", "10"],
    "recover": ["recover", "--dict", "{bad}", "--k", "1", "--trials", "1"],
}


@pytest.mark.parametrize("command", sorted(NON_FINITE_CASES))
def test_non_finite_payload_exits_2(command, tmp_path, capsys):
    bad = tmp_path / "nan.dict"
    assert main(["build", "--family", "gaussian", "--m", "2", "--N", "3",
                 "--seed", "0", "--out", str(bad)]) == 0
    blob = bad.read_bytes()
    start = blob.index(b"\ndata\n") + len(b"\ndata\n")
    bad.write_bytes(blob[:start] + struct.pack("<d", math.nan) + blob[start + 8:])
    capsys.readouterr()
    argv = [arg.format(bad=bad, tmp=tmp_path) for arg in NON_FINITE_CASES[command]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert json.loads(captured.err) == {"error": "1 of 6 payload doubles are not finite"}
    assert not (tmp_path / "x.dict").exists()


def test_overflowing_column_norm_exits_2(tmp_path, capsys):
    # finite doubles whose column norm overflows float64 are named as such
    bad = tmp_path / "big.dict"
    bad.write_bytes(b"SDICT 1\nfield=real\nm=2\nN=1\nname=big\ndata\n"
                    + struct.pack("<2d", 1e308, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--dict", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    error = json.loads(captured.err)["error"]
    assert "overflows" in error and "column 0" in error


def test_emit_refuses_non_finite_payload(tmp_path, capsys):
    out = tmp_path / "x.json"
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"x": value}, out)
    assert not out.exists() and capsys.readouterr().out == ""


def _run_cli(*argv):
    """The CLI in a fresh interpreter, so stderr holds everything it wrote,
    numpy RuntimeWarnings included."""
    return subprocess.run([sys.executable, "-m", "stripkit.cli", *map(str, argv)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)


def _assert_sigma_out_of_range(proc):
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert json.loads(proc.stderr)["error"].startswith("sigma is out of range: ")


@pytest.mark.parametrize("solver", ["bp", "lasso"])
def test_recover_sigma_past_float_range_exits_2(solver, dg_file):
    # once exited 0 with "objective": NaN
    _assert_sigma_out_of_range(_run_cli(
        "recover", "--dict", dg_file, "--k", "2", "--sigma", "1e200",
        "--trials", "1", "--solver", solver))


def test_lasso_experiment_sigma_past_float_range_exits_2(tmp_path):
    # once ran seconds of FISTA on infinite data before an OverflowError
    cfg = tmp_path / "study.cfg"
    cfg.write_text('family=dg\nfamily_args={"s": 1}\nk=2\ntrials=2\n'
                   'solver=lasso\nsigma=1e308\n')
    _assert_sigma_out_of_range(_run_cli("experiment", "--config", cfg))


@pytest.mark.parametrize("flags", [["--sigma", "1e-200"], ["--lam", "1e300", "--sigma", "1e10"]],
                         ids=["underflow", "overflow"])
def test_recover_lasso_penalty_out_of_range_exits_2(flags, dg_file):
    # lam sigma^2 underflowing to 0 once reported a least-squares fit as a
    # converged Lasso; overflowing, it warned and blamed a nan in the JSON
    proc = _run_cli("recover", "--dict", dg_file, "--k", "2", "--trials", "1",
                    "--solver", "lasso", *flags)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    error = json.loads(proc.stderr)["error"]
    assert error.startswith("lam * sigma^2 = ")
    assert f", sigma={float(flags[-1])!r}: the Lasso penalty" in error


def test_recover_compressible_p_nan_exits_2(dg_file, capsys):
    # a nan p once reached the observation and was blamed on sigma
    capsys.readouterr()
    assert main(["recover", "--dict", str(dg_file), "--k", "2", "--trials", "1",
                 "--magnitudes", "compressible", "--p", "nan"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "p must be finite"}


# one bad value of a recovery input -> the message of its rule, "{}" standing
# for the name each front end gives the input
BAD_RECOVERY_INPUTS = {
    "sigma nan": ("sigma", "nan", "{} must be finite"),
    "sigma inf": ("sigma", "inf", "{} must be finite"),
    "sigma negative": ("sigma", "-0.1", "{} must be nonnegative"),
    "sigma zero for lasso": ("sigma", "0", "sigma must be positive (the penalty degenerates)"),
    "lam nan": ("lam", "nan", "{} must be finite"),
    "lam inf": ("lam", "inf", "{} must be finite"),
    "lam zero": ("lam", "0", "{} must be positive"),
    "lam negative": ("lam", "-2", "{} must be positive"),
    "radius nan": ("eps_noise", "nan", "{} must be finite"),
    "radius inf": ("eps_noise", "inf", "{} must be finite"),
    "radius negative": ("eps_noise", "-0.5", "{} must be nonnegative"),
    "probability zero": ("eps", "0", "{} must be in (0, 1)"),
    "probability one": ("eps", "1", "{} must be in (0, 1)"),
    "probability negative": ("eps", "-1", "{} must be in (0, 1)"),
    "probability nan": ("eps", "nan", "{} must be in (0, 1)"),
    "p nan": ("p", "nan", "{} must be finite"),
    "p inf": ("p", "inf", "{} must be finite"),
    "p zero": ("p", "0", "{} must be positive"),
    "p negative": ("p", "-1", "{} must be positive"),
}
# input -> its recover flag, recover's name for it, its config key (the
# floor study has no noise radius)
RECOVERY_INPUT_NAMES = {"sigma": ("--sigma", "sigma", "sigma"),
                        "lam": ("--lam", "lam", "lam"),
                        "eps_noise": ("--eps", "eps", None),
                        "eps": ("--prob-eps", "prob-eps", "eps"),
                        "p": ("--p", "p", "p")}


@pytest.mark.parametrize("case", sorted(BAD_RECOVERY_INPUTS))
def test_front_ends_refuse_a_bad_recovery_input_alike(case, tmp_path, capsys):
    key, text, rule = BAD_RECOVERY_INPUTS[case]
    flag, flag_name, config_key = RECOVERY_INPUT_NAMES[key]
    gone = tmp_path / "never-read.dict"     # refused before the dictionary loads
    capsys.readouterr()
    assert main(["recover", "--dict", str(gone), "--k", "2", "--solver", "lasso",
                 "--sigma", "0.1", flag, text]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": rule.format(flag_name)}
    if config_key is not None:
        keys = {"dictionary_path": gone, "k": 2, "solver": "lasso", "sigma": "0.1",
                config_key: text}
        cfg = tmp_path / "study.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": rule.format(config_key)}
    value, d = float(text), sk.build_gaussian(4, 8, seed=0)
    y = np.ones(d.m)
    consumers = {"sigma": [lambda: sk.lasso(d, y, None, value)],
                 "lam": [lambda: sk.lasso(d, y, value, 0.1)],
                 "eps_noise": [lambda: sk.basis_pursuit(d, y, value)],
                 "eps": [lambda: sk.on_support_error_constant(d.N, value)],
                 "p": [lambda: sk.sample_generic_signal(d.N, 2, "compressible",
                                                        np.random.default_rng(0),
                                                        p=value)]}[key]
    if key == "sigma" and value != 0:
        rng = np.random.default_rng(0)
        inst = sk.sample_generic_signal(d.N, 2, "unit", rng)
        consumers.append(lambda: sk.observe(d, inst, sigma=value, rng=rng))
    for consume in consumers:
        with pytest.raises(SolverInputError) as refused:
            consume()
        assert str(refused.value) == rule.format(key)
