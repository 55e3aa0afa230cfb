"""Recovery studies: guarantee floors, Lasso ratio reports and sweeps over k.

A study kind is one entry of ``_STUDIES``. ``run_recovery_floor``,
``run_offsupport_floor`` and ``run_lasso_study`` each run one kind; ``sweep``
runs the kind the config's solver selects at each k of k_range.

Trial t draws its instance from the rng stream (seed, "trial", t), and trials
run in blocks of TRIAL_BLOCK indices (``_run_trials``). Reports are
byte-identical across reruns and worker counts. Lasso reports are so across
trial counts too: a Lasso block is padded to its full width and sheds settled
columns only in whole groups of solvers.LASSO_GROUP (8), widths at which a
gemm rounds a column the same (pinned by
test_lasso_records_do_not_depend_on_trial_count in tests/test_experiments.py
and the TestLassoColumns digests in tests/test_solvers.py). A BP record is
not: a shorter study may cut its last block short, a gemm rounds a column by
the block's width, and the support detected, whether its refit certifies and
at which iteration all follow the drifting ADMM iterate. The wall-clock
runtime is the only non-reproducible field and is kept out of the comparison
payload.
"""

from __future__ import annotations

import csv
import json
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dictionaries import Dictionary, build_family, load_dictionary, realify
from .seeding import check_seed, derive_rng
from .signals import SignalInstance, observe, sample_generic_signal
from .solvers import (RecoveryResult, _bp_columns, _lasso_columns,
                      check_recovery_inputs, cp_conditions, dual_certificate,
                      error_report)

MIN_TRIALS_FOR_FLOOR = 200
# trial indices per block: at least the 30 trials of a small Lasso study
TRIAL_BLOCK = 32


@dataclass
class ExperimentConfig:
    family: Optional[str] = None        # one of the built-in families ...
    family_args: dict = field(default_factory=dict)
    dictionary_path: Optional[str] = None   # ... or a saved dictionary file
    k: int = 1
    k_range: Optional[list] = None
    eps: float = 0.1
    sigma: float = 0.0
    magnitudes: str = "unit"
    p: float = 0.5
    trials: int = 200
    seed: int = 0
    solver: str = "bp"
    lam: Optional[float] = None
    bound_tol: float = 1e-6
    jobs: int = 1

    def validate(self):
        if (self.family is None) == (self.dictionary_path is None):
            raise ValueError("configure exactly one of family / dictionary_path")
        if not isinstance(self.family_args, dict):
            raise ValueError("family_args must be a JSON object")
        if self.k_range == []:
            raise ValueError("k_range needs at least one k")
        if min([self.k, *(self.k_range or ())]) < 0:
            raise ValueError("k must be nonnegative")
        if self.solver == "lasso" and 0 in (self.k_range or [self.k]):
            raise ValueError("the lasso study needs k >= 1: its ratio divides by k")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        check_seed(self.seed)
        check_recovery_inputs(sigma=self.sigma, lam=self.lam, eps=self.eps,
                              bound_tol=self.bound_tol, solver=self.solver,
                              magnitudes=self.magnitudes, p=self.p,
                              trials=self.trials)
        if self.solver == "bp" and self.sigma != 0:
            raise ValueError("the bp floor study is noiseless: sigma must be 0 "
                             "with solver=bp (use solver=lasso for noise)")

    def load_dictionary(self) -> Dictionary:
        if self.dictionary_path is not None:
            d = load_dictionary(self.dictionary_path)
        else:
            d = build_family(self.family, **self.family_args)
        return recovery_dictionary(d)


def recovery_dictionary(d: Dictionary) -> Dictionary:
    """d itself when real; a complex d realified, with a warning, since the
    solvers take only real dictionaries."""
    if d.field == "complex":
        warnings.warn(f"realifying complex dictionary {d.name} for recovery",
                      stacklevel=2)
        d = realify(d)
    return d


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    trials: int
    converged: int
    records: list
    aggregate: dict
    floor: Optional[float] = None
    floor_margin: Optional[float] = None
    floor_asserted: bool = False
    floor_passed: Optional[bool] = None
    runtime_seconds: float = 0.0

    def as_dict(self, include_runtime: bool = True) -> dict:
        config = {k: v for k, v in self.config.items() if k != "jobs"}
        payload = {
            "schema_version": 1,
            "kind": self.kind, "config": config, "trials": self.trials,
            "converged": self.converged, "aggregate": self.aggregate,
            "floor": self.floor, "floor_margin": self.floor_margin,
            "floor_asserted": self.floor_asserted,
            "floor_passed": self.floor_passed,
            "records": self.records,
        }
        if include_runtime:
            payload["runtime_seconds"] = self.runtime_seconds
        return payload

    def to_json(self, include_runtime: bool = True) -> str:
        return json.dumps(self.as_dict(include_runtime), indent=2, sort_keys=True,
                          allow_nan=False)


def _fraction(pool, key) -> float:
    return sum(1 for r in pool if r[key]) / len(pool) if pool else 0.0


def _trial_instance(d: Dictionary, config: ExperimentConfig, t: int) -> SignalInstance:
    """Signal and observation of trial t, from the stream (seed, "trial", t)."""
    rng = derive_rng(config.seed, "trial", t)
    inst = sample_generic_signal(d.N, config.k, config.magnitudes, rng, p=config.p)
    return observe(d, inst, sigma=config.sigma, rng=rng)


def _bp_record(d: Dictionary, config: ExperimentConfig, t: int,
               inst: SignalInstance, res: RecoveryResult) -> dict:
    res = error_report(inst, res, config.eps)
    cert = dual_certificate(d, inst.support, inst.signs)
    top = np.sort(np.argsort(np.abs(res.x_hat))[-config.k:])
    return {
        "trial": t,
        "converged": bool(res.converged),
        "iterations": res.iterations,
        "err_on_l2": res.err_on_l2,
        "err_off_l1": res.err_off_l1,
        "bound_on": res.bound_on,
        "bound_off": res.bound_off,
        "ok_l2": bool(res.err_on_l2 <= res.bound_on + config.bound_tol),
        "ok_l1": bool(res.err_off_l1 <= res.bound_off + config.bound_tol),
        "ok_both": bool(res.err_on_l2 <= res.bound_on + config.bound_tol
                        and res.err_off_l1 <= res.bound_off + config.bound_tol),
        "recovery_l2": float(np.linalg.norm(res.x_hat - inst.x)),
        "support_recovered": bool(np.array_equal(top, inst.support)),
        "certificate_valid": bool(cert.valid),
        "certificate_sup_off": None if not np.isfinite(cert.sup_off) else cert.sup_off,
    }


def _trials_in(block: range, config: ExperimentConfig) -> range:
    return range(block.start, min(block.stop, config.trials))


def _bp_block(d: Dictionary, config: ExperimentConfig, block: range) -> list:
    """Noiseless BP trials of one block: each instance from its own trial
    stream, one solve over the block's trials (not padded: settled columns
    leave the solve, so padding would only add work), then the records."""
    insts = [_trial_instance(d, config, t) for t in _trials_in(block, config)]
    results = _bp_columns(d, np.array([inst.y for inst in insts]), 0.0)
    return [_bp_record(d, config, t, inst, res)
            for t, inst, res in zip(block, insts, results)]


def _run_trials(block_worker, d, config):
    """Records of trials 0..trials-1 in order. ``block_worker(d, config,
    block)`` runs the trials of one full-width block of TRIAL_BLOCK indices
    that lie below ``config.trials``; with jobs > 1 several blocks go to a
    process pool, which pickles the dictionary once per block."""
    blocks = [range(start, start + TRIAL_BLOCK)
              for start in range(0, config.trials, TRIAL_BLOCK)]
    if config.jobs > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(block_worker, d, config, b) for b in blocks]
            parts = [f.result() for f in futures]
    else:
        parts = [block_worker(d, config, b) for b in blocks]
    return [record for part in parts for record in part]


_BP_FRACTIONS = {"frac_l2": "ok_l2", "frac_l1": "ok_l1", "frac_both": "ok_both",
                 "frac_certificate": "certificate_valid",
                 "support_rate": "support_recovered"}


def _bp_aggregate(records, keys=(*_BP_FRACTIONS, "mean_err_on_l2",
                                  "median_err_on_l2")) -> dict:
    """The BP rates (among converged trials) and on-support errors named in
    ``keys``. No record is a floor study at k = 0, whose zero signal is
    recovered exactly: every rate 1 and every error 0."""
    conv = [r for r in records if r["converged"]]
    errs = [r["err_on_l2"] for r in conv] if records else [0.0]
    agg = {name: _fraction(conv, key) if records else 1.0
           for name, key in _BP_FRACTIONS.items()}
    agg["mean_err_on_l2"] = float(np.mean(errs)) if errs else None
    agg["median_err_on_l2"] = float(np.median(errs)) if errs else None
    return {key: agg[key] for key in keys}


def _lasso_block(d: Dictionary, config: ExperimentConfig, block: range) -> list:
    """Lasso trials of one block: each instance from its own trial stream,
    one solve over every column, padded with zero observations to the full
    block width (gemm rounds a column by the width), then the records."""
    insts = [_trial_instance(d, config, t) for t in _trials_in(block, config)]
    ys = np.zeros((len(block), d.m))
    ys[:len(insts)] = [inst.y for inst in insts]
    results = _lasso_columns(d, ys, config.lam, config.sigma)
    return [_lasso_record(d, config, t, inst, res)
            for t, inst, res in zip(block, insts, results)]


def _lasso_record(d: Dictionary, config: ExperimentConfig, t: int,
                  inst: SignalInstance, res: RecoveryResult) -> dict:
    conds = cp_conditions(d, inst.support, inst.signs, inst.z)
    compressed_err = float(np.linalg.norm(d.entries @ (inst.x - res.x_hat)) ** 2)
    scale = config.k * math.log(d.N) * config.sigma ** 2
    if not scale > 0:
        raise ValueError(f"the Lasso ratio divides by k ln(N) sigma^2 = {scale!r}: it needs"
                         f" N >= 2 (N={d.N}) and sigma^2 > 0 (sigma={config.sigma!r})")
    return {
        "trial": t,
        "converged": bool(res.converged),
        "iterations": res.iterations,
        "kkt_residual": res.kkt_residual,
        "compressed_err_sq": compressed_err,
        "ratio": compressed_err / scale,
        "cond_inverse_gram": conds.inverse_gram_ok,
        "cond_noise_correlation": conds.noise_correlation_ok,
        "cond_certificate": conds.certificate_ok,
        "cond_all": conds.all_ok,
    }


def _lasso_aggregate(records) -> dict:
    """Each condition's fraction over all trials; the ratio's max and median
    over the converged ones."""
    ratios = [r["ratio"] for r in records if r["converged"]]
    conds = ("cond_inverse_gram", "cond_noise_correlation", "cond_certificate",
             "cond_all")
    return {**{f"frac_{key}": _fraction(records, key) for key in conds},
            "ratio_max": max(ratios) if ratios else None,
            "ratio_median": float(np.median(ratios)) if ratios else None}


class _Study(NamedTuple):
    solver: str
    block: Callable                 # block worker for _run_trials
    aggregate: Callable             # records -> the report's aggregate
    floor: Optional[tuple] = None   # (c, clause): floor 1 - c eps on aggregate[clause]
    rates: Optional[tuple] = None   # aggregate keys of a sweep CSV row (None: all)


_STUDIES = {
    "bp_floor": _Study("bp", _bp_block, _bp_aggregate, (3.0, "frac_both"),
                       ("frac_l2", "frac_l1", "frac_both", "support_rate")),
    "bp_offsupport_floor": _Study("bp", _bp_block, partial(
        _bp_aggregate, keys=("frac_l1", "support_rate", "frac_certificate")),
        (4.0, "frac_l1")),
    "lasso_study": _Study("lasso", _lasso_block, _lasso_aggregate),
}


def _run_study(kind: str, config: ExperimentConfig,
               d: Optional[Dictionary]) -> ExperimentReport:
    """The study ``kind`` of _STUDIES: its trials, their aggregate and its
    floor, if it has one, with a 3-sigma binomial margin.

    A floor is asserted (exit-code relevant) only from MIN_TRIALS_FOR_FLOOR
    trials and where l1 recovers every sign pattern, k < (1 + 1/mu)/2. A floor
    study at k = 0 runs no trial: the zero signal is recovered exactly.
    """
    study = _STUDIES[kind]
    config.validate()
    if config.solver != study.solver:
        raise ValueError(f"a {study.solver} study runs {study.solver}, "
                         f"not solver={config.solver}")
    t0 = time.perf_counter()
    d = d or config.load_dictionary()
    skip = config.k == 0 and study.floor is not None
    records = [] if skip else _run_trials(study.block, d, config)
    rep = ExperimentReport(kind, asdict(config), len(records),
                           sum(r["converged"] for r in records), records,
                           study.aggregate(records))
    if study.floor is not None:
        multiplier, clause = study.floor
        rep.floor = floor = max(0.0, 1.0 - multiplier * config.eps)
        if records:
            rep.floor_margin = 3.0 * math.sqrt(floor * (1.0 - floor) / config.trials)
            rep.floor_asserted = (config.trials >= MIN_TRIALS_FOR_FLOOR
                                  and (d.mu <= 0 or config.k < 0.5 * (1.0 + 1.0 / d.mu)))
            rep.floor_passed = rep.aggregate[clause] >= floor - rep.floor_margin
    rep.runtime_seconds = time.perf_counter() - t0
    return rep


def run_recovery_floor(config: ExperimentConfig,
                       d: Optional[Dictionary] = None) -> ExperimentReport:
    """Noiseless Basis Pursuit study against the 1 - 3 eps guarantee floor.

    Per trial: generic random signal, y = Phi x, BP at eps = 0, both error
    bounds evaluated; the floor is checked on the fraction meeting both.
    """
    return _run_study("bp_floor", config, d)


def run_offsupport_floor(config: ExperimentConfig,
                         d: Optional[Dictionary] = None) -> ExperimentReport:
    """Off-support l1 bound study with the weaker 1 - 4 eps floor: aggregates
    only the l1 clause plus support detection."""
    return _run_study("bp_offsupport_floor", config, d)


def run_lasso_study(config: ExperimentConfig,
                    d: Optional[Dictionary] = None) -> ExperimentReport:
    """Lasso at the standard 2 sqrt(2 ln N) regularization: condition
    fractions and the compressed-error ratio distribution; no floor assertion
    (the guarantee constant is not pinned numerically)."""
    return _run_study("lasso_study", config, d)


def sweep(config: ExperimentConfig,
          d: Optional[Dictionary] = None) -> list:
    """One report per k in k_range, or the one at k without a k_range, each
    from the study config.solver selects (bp_floor or lasso_study)."""
    config.validate()
    kind = next(kind for kind, study in _STUDIES.items()
                if study.solver == config.solver)
    d = d or config.load_dictionary()
    return [_run_study(kind, replace(config, k=int(k), k_range=None), d)
            for k in config.k_range or [config.k]]


def sweep_csv(reports: list, path) -> None:
    """One CSV row per ``sweep`` report: its k, trials, converged and the
    aggregate keys its study's ``rates`` name (None: every key)."""
    records_csv([{"k": rep.config["k"], "trials": rep.trials,
                  "converged": rep.converged,
                  **{key: rep.aggregate[key]
                     for key in _STUDIES[rep.kind].rates or rep.aggregate}}
                 for rep in reports], path)


def records_csv(records: list, path) -> None:
    """One CSV row per record under a header of the first record's keys; an
    empty file when there is no record."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if records:
            writer = csv.DictWriter(fh, fieldnames=list(records[0]))
            writer.writeheader()
            writer.writerows(records)


def parse_config_file(path) -> ExperimentConfig:
    """UTF-8 key=value lines; unknown keys rejected; '#' starts a comment."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed config line: {line!r}")
            key = key.strip()
            if key in raw:
                raise ValueError(f"duplicate config key {key!r}")
            raw[key] = value.strip()
    cfg = ExperimentConfig()
    ints = {"k", "trials", "seed", "jobs"}
    floats = {"eps", "sigma", "p", "lam", "bound_tol"}
    for key, value in raw.items():
        if key == "k_range":
            cfg.k_range = [int(tok) for tok in value.split(",") if tok]
        elif key == "family_args":
            try:
                cfg.family_args = json.loads(value)
            except RecursionError:
                raise ValueError("family_args is nested too deeply") from None
        elif key in ints:
            setattr(cfg, key, int(value))
        elif key in floats:
            setattr(cfg, key, float(value))
        elif key in ("family", "dictionary_path", "magnitudes", "solver"):
            setattr(cfg, key, value)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return cfg
