"""The benchmark's workloads. Each drives stripkit only through its public
functions.

A workload is built from the run's seed (its set-up), then runs numbered
bodies: ``body(i)`` is the timed unit of work and ``check(i, out)`` verifies
what it returned, outside the timed region. Inputs of body ``i`` depend only
on (seed, i), so an untraced and a traced body with the same index do the
same work.

``check`` separates two kinds of trouble. A *failed operation* is one that
must always succeed and did not: a solve that did not converge, a report
that does not serialize, an infeasible or unsuccessful GV construction, a
save/load round trip that is not bit-exact, a ``jobs=2`` payload that differs
from the ``jobs=1`` payload. These are counted, never raised. An *error* is
an output that contradicts an independent check; it makes the run
incorrect. Statistical outcomes (CI hits, floor verdicts) are neither.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

import stripkit as sk
from stripkit.experiments import ExperimentConfig
from stripkit.gvforge import GvInfeasibleError

# everything a run writes (records, spans, round-trip files) stays here,
# inside the checkout
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"

# Input j of a run with seed s uses seed s + STRIDE * j: input 0 uses s itself
# (the acceptance MASTER_SEED by default), and runs at nearby seeds share no
# input.
STRIDE = 100_003


def input_seed(seed: int, j: int) -> int:
    return seed + STRIDE * j


@dataclass
class Outcome:
    items: int                  # units of work the body completed
    attempted: int = 0          # operations that must succeed
    failed: int = 0
    errors: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    digest: str = ""            # sha256 of the body's comparison payload


def _serialize(fn):
    """(text, None) or (None, reason) for a report's JSON rendering."""
    try:
        return fn(), None
    except (TypeError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# certify_mc: criterion 4 in miniature

class CertifyMC:
    """Exhaustive and Monte Carlo StRIP/SINC plus WSINC on Gaussian 8x16."""

    K = 3
    DELTA = 0.6
    TRIALS = 2500          # Monte Carlo supports per estimator call
    PER_BODY = 2           # dictionaries per body
    POOL = 24

    def __init__(self, seed: int):
        self.seed = seed
        self.dicts = [sk.build_gaussian(8, 16, seed=input_seed(seed, j))
                      for j in range(self.POOL)]
        self.alphas = [1.5 * sk.coherence_profile(d).mu ** 2 for d in self.dicts]
        self._exact: dict = {}

    def body(self, i: int):
        out = []
        for j in range(self.PER_BODY * i, self.PER_BODY * (i + 1)):
            d, alpha = self.dicts[j % self.POOL], self.alphas[j % self.POOL]
            mc_seed = input_seed(self.seed, j)
            reports = [
                sk.strip_estimate(d, self.K, self.DELTA, "exhaustive"),
                sk.strip_estimate(d, self.K, self.DELTA, "monte_carlo",
                                  trials=self.TRIALS, seed=mc_seed),
                sk.sinc_estimate(d, self.K, alpha, "exhaustive"),
                sk.sinc_estimate(d, self.K, alpha, "monte_carlo",
                                 trials=self.TRIALS, seed=mc_seed),
                sk.wsinc_estimate(d, self.K, self.DELTA, alpha,
                                  trials=self.TRIALS, seed=mc_seed),
            ]
            texts = [_serialize(lambda r=r: json.dumps(r.as_dict(), sort_keys=True))
                     for r in reports]
            out.append((j % self.POOL, reports, texts))
        return out

    def _reference(self, j: int):
        """Independent exhaustive statistics: (strip values, sinc values)."""
        if j not in self._exact:
            g = self.dicts[j].entries.T @ self.dicts[j].entries
            sups = np.array(list(combinations(range(g.shape[0]), self.K)))
            sub = g[sups[:, :, None], sups[:, None, :]] - np.eye(self.K)
            vals = np.linalg.eigvalsh(sub)
            strip = np.maximum(np.abs(vals[:, 0]), np.abs(vals[:, -1]))
            energy = (g[sups, :] ** 2).sum(axis=1)
            np.put_along_axis(energy, sups, -np.inf, axis=1)
            self._exact[j] = (strip, energy.max(axis=1))
        return self._exact[j]

    def check(self, i: int, out) -> Outcome:
        res = Outcome(items=0)
        for j, reports, texts in out:
            strip_ex, strip_mc, sinc_ex, sinc_mc, wsinc = reports
            res.attempted += len(texts)
            res.failed += sum(1 for _, err in texts if err)
            ref_strip, ref_sinc = self._reference(j)
            for rep, ref, thr in ((strip_ex, ref_strip, self.DELTA),
                                  (sinc_ex, ref_sinc, self.alphas[j])):
                hits = int((ref <= thr).sum())
                ties = int((np.abs(ref - thr) <= 1e-9).sum())
                if rep.trials != ref.size or abs(rep.successes - hits) > ties:
                    res.errors.append(f"dict {j}: exhaustive {rep.property} "
                                      f"{rep.successes}/{rep.trials} vs {hits}/{ref.size}")
            for rep, exact in ((strip_mc, strip_ex), (sinc_mc, sinc_ex)):
                if (rep.trials != self.TRIALS or rep.successes > rep.trials
                        or not rep.ci[0] <= rep.estimate <= rep.ci[1]):
                    res.errors.append(f"dict {j}: bad MC {rep.property} report")
                res.counters["ci_checks"] = res.counters.get("ci_checks", 0) + 1
                if rep.ci[0] <= exact.estimate <= rep.ci[1]:
                    res.counters["ci_hits"] = res.counters.get("ci_hits", 0) + 1
            if (wsinc.trials != self.TRIALS
                    or not 0.0 <= wsinc.wsinc_lhs <= wsinc.estimate + 1e-12):
                res.errors.append(f"dict {j}: bad wsinc report")
            res.items += strip_mc.trials + sinc_mc.trials + wsinc.trials
        return res


# --------------------------------------------------------------------------
# bp_floor / bp_floor_jobs2: criterion 7 in miniature

class BpFloor:
    """Noiseless BP floor study on dg s=2 (64x2048), k=4, eps=0.1."""

    TRIALS = 10
    JOBS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.d = sk.build_family("dg", s=2)

    def config(self, i: int, jobs: int) -> ExperimentConfig:
        return ExperimentConfig(family="dg", family_args={"s": 2}, k=4, eps=0.1,
                                trials=self.TRIALS, seed=input_seed(self.seed, i),
                                jobs=jobs)

    def body(self, i: int):
        rep = sk.run_recovery_floor(self.config(i, self.JOBS), d=self.d)
        return rep, _serialize(lambda: rep.to_json(include_runtime=False))

    def check(self, i: int, out) -> Outcome:
        rep, (text, err) = out
        res = Outcome(items=rep.trials, attempted=rep.trials + 1,
                      failed=(rep.trials - rep.converged) + (1 if err else 0))
        if text is not None:
            res.digest = _sha(text)
        conv = [r for r in rep.records if r["converged"]]
        if len(rep.records) != self.TRIALS or rep.converged != len(conv):
            res.errors.append(f"body {i}: record count mismatch")
        if conv and abs(rep.aggregate["frac_both"]
                        - sum(r["ok_both"] for r in conv) / len(conv)) > 1e-12:
            res.errors.append(f"body {i}: frac_both disagrees with its records")
        # k=4 < (1 + 1/mu)/2 = 4.5 on this dictionary: recovery is exact
        worst = max((r["recovery_l2"] for r in conv), default=0.0)
        if worst > 1e-6:
            res.errors.append(f"body {i}: recovery error {worst:.3g} in the exact regime")
        return res


class BpFloorJobs2(BpFloor):
    """The same studies with jobs=2; each payload is compared with jobs=1."""

    JOBS = 2

    def check(self, i: int, out) -> Outcome:
        res = super().check(i, out)
        serial = sk.run_recovery_floor(self.config(i, 1), d=self.d)
        res.attempted += 1
        if serial.to_json(include_runtime=False) != out[1][0]:
            res.failed += 1
        return res


# --------------------------------------------------------------------------
# noisy_recovery: noisy BP and the Lasso study on the same instances

class NoisyRecovery:
    """dg s=1 (16x128), k=2, sigma=0.01: BP at each instance's eps_noise,
    then ``run_lasso_study`` at the default lambda."""

    K = 2
    SIGMA = 0.01
    LASSO_TRIALS = 30

    def __init__(self, seed: int):
        self.seed = seed
        self.d = sk.build_family("dg", s=1)

    def body(self, i: int):
        # run_lasso_study draws trial t from derive_rng(seed, "trial", t), so
        # the BP instance is Lasso trial 0 of the same body
        rng = sk.derive_rng(input_seed(self.seed, i), "trial", 0)
        inst = sk.sample_generic_signal(self.d.N, self.K, "unit", rng)
        inst = sk.observe(self.d, inst, sigma=self.SIGMA, rng=rng)
        bp = sk.basis_pursuit(self.d, inst.y, inst.eps_noise)
        cfg = ExperimentConfig(family="dg", family_args={"s": 1}, k=self.K,
                               sigma=self.SIGMA, trials=self.LASSO_TRIALS,
                               seed=input_seed(self.seed, i), solver="lasso")
        rep = sk.run_lasso_study(cfg, d=self.d)
        return inst, bp, rep, _serialize(lambda: rep.to_json(include_runtime=False))

    def check(self, i: int, out) -> Outcome:
        inst, bp, rep, (text, err) = out
        res = Outcome(items=1 + rep.trials, attempted=1 + rep.trials + 1,
                      failed=(0 if bp.converged else 1) + (rep.trials - rep.converged)
                      + (1 if err else 0))
        if text is not None:
            res.digest = _sha(text)
        resid = float(np.linalg.norm(self.d.entries @ bp.x_hat - inst.y))
        if resid > inst.eps_noise * (1 + 1e-6) + 1e-9:
            res.errors.append(f"body {i}: BP residual {resid:.3g} > eps {inst.eps_noise:.3g}")
        # the true x is feasible whenever the noise sits inside the ball
        if (np.linalg.norm(inst.z) <= inst.eps_noise and bp.converged
                and bp.objective > np.abs(inst.x).sum() * (1 + 1e-6)):
            res.errors.append(f"body {i}: BP objective above the feasible ||x||_1")
        for rec in rep.records:
            if rec["converged"] and not rec["kkt_residual"] <= 1e-8:
                res.errors.append(f"body {i}: Lasso KKT residual {rec['kkt_residual']:.3g}")
            if not math.isfinite(rec["ratio"]):
                res.errors.append(f"body {i}: non-finite Lasso ratio")
        return res


# --------------------------------------------------------------------------
# recovery: one bp_floor body and one noisy_recovery body back to back

class Recovery:
    """The ``bp_floor`` and ``noisy_recovery`` bodies of the same index, one
    after the other. Items are recovery trials of either kind."""

    def __init__(self, seed: int):
        self.parts = (BpFloor(seed), NoisyRecovery(seed))

    def body(self, i: int):
        return [part.body(i) for part in self.parts]

    def check(self, i: int, out) -> Outcome:
        floor, noisy = (part.check(i, o) for part, o in zip(self.parts, out))
        counters = dict(floor.counters)
        for key, value in noisy.counters.items():
            counters[key] = counters.get(key, 0) + value
        return Outcome(items=floor.items + noisy.items,
                       attempted=floor.attempted + noisy.attempted,
                       failed=floor.failed + noisy.failed,
                       errors=floor.errors + noisy.errors,
                       counters=counters, digest=floor.digest)


# --------------------------------------------------------------------------
# build_analyze: construction and analysis layers

class BuildAnalyze:
    """Derandomized GV at l=12, mu=0.4, then analysis of it and of dg s=2,
    and save/load round trips."""

    GV = dict(l=12, mu_target=0.4)
    DG_DISTANCES = {0, 28, 32, 36}      # 64/2 +- sqrt(64)/2 and the diagonal

    def __init__(self, seed: int):
        self.seed = seed
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.path = OUT_DIR / "roundtrip.sdict"

    def _round_trip(self, d) -> bool:
        sk.save_dictionary(d, self.path)
        back = sk.load_dictionary(self.path)
        self.path.unlink()
        return (back.entries.dtype == d.entries.dtype
                and np.array_equal(back.entries, d.entries)
                and (back.name, back.field, back.m, back.N, back.params, back.seed)
                == (d.name, d.field, d.m, d.N, d.params, d.seed))

    def body(self, i: int):
        spec = sk.GvSpec(**self.GV)
        try:
            gv = sk.gv_derandomized(spec)
        except GvInfeasibleError:
            gv = None
        width = sk.code_width(gv.code) if gv is not None else None
        code = sk.delsarte_goethals_code(2)
        dg = sk.build_family("dg", s=2)
        profile = sk.coherence_profile(dg)
        text = _serialize(lambda: json.dumps(profile.as_dict(), sort_keys=True))
        dist = sk.distance_distribution(code)
        gauss = sk.build_gaussian(64, 256, seed=input_seed(self.seed, i))
        trips = [self._round_trip(dg), self._round_trip(gauss)]
        return spec, gv, width, profile, text, code, dist, trips

    def check(self, i: int, out) -> Outcome:
        spec, gv, width, profile, (text, err), code, dist, trips = out
        res = Outcome(items=0, attempted=2 + len(trips))
        res.failed = (0 if gv is not None and gv.success and gv.out_of_band == 0 else 1)
        res.failed += (1 if err else 0) + trips.count(False)
        if gv is not None:
            res.items = len(gv.expectation_trace) - 1
            if res.items != spec.m * spec.l:
                res.errors.append(f"{res.items} decisions for a {spec.m}x{spec.l} generator")
            if gv.success and width[1] > spec.mu_target + 1e-12:
                res.errors.append(f"GV coherence {width[1]} above {spec.mu_target}")
        if abs(profile.mu - 0.125) > 1e-12:
            res.errors.append(f"dg s=2 coherence {profile.mu} != 1/8")
        if (set(dist.counts) - self.DG_DISTANCES or dist.counts.get(0) != code.N
                or sum(dist.counts.values()) != code.N ** 2):
            res.errors.append(f"dg s=2 distance distribution {dist.counts}")
        return res


WORKLOADS = {
    "certify_mc": CertifyMC,
    "recovery": Recovery,
    "build_analyze": BuildAnalyze,
    "bp_floor": BpFloor,
    "noisy_recovery": NoisyRecovery,
    "bp_floor_jobs2": BpFloorJobs2,
}
