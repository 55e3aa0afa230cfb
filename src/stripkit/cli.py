"""Command-line front end: build / analyze / certify / check / recover / gv /
experiment subcommands sharing one master seed.

Exit codes: 0 success, 1 an asserted floor failed or an infeasible
derandomized construction, 2 usage errors, any other ValueError (numpy's
LinAlgError is one), any OverflowError (an input past float range) and any
OSError, such as an input file that does not exist or an output path in a
missing directory. Sizes past the caps exit 2 before anything is allocated:
``gv`` when the 2^l x m span, and ``build --family dg`` when the code,
exceeds ``dictionaries.MAX_CODE_BITS`` = 2^32 bits (``gv --l 40 --mu 1``,
``build --family dg --s 5`` and up).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import certify as ct
from . import coherence as coh
from . import dictionaries as dc
from . import experiments as ex
from . import gvforge as gv
from .seeding import derive_rng
from .signals import MAGNITUDE_MODELS, observe, sample_generic_signal
from .solvers import SOLVERS, basis_pursuit, check_recovery_inputs, error_report, lasso


def _emit(payload, path=None):
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_build(args) -> int:
    family_args = {k: getattr(args, k) for k in ("m", "N", "s", "r", "q", "seed")
                   if getattr(args, k) is not None}
    d = dc.build_family(args.family, **family_args)
    dc.save_dictionary(d, args.out)
    if args.csv:
        dc.export_csv(d, args.csv)
    print(f"wrote {args.out}: {d.name} ({d.m} x {d.N}, {d.field})")
    return 0


def _bipolar_code(d: dc.Dictionary) -> dc.BinaryCode:
    scale = 1.0 / math.sqrt(d.m)
    if d.field != "real" or np.abs(np.abs(d.entries) - scale).max() > 1e-9:
        raise dc.FamilyError("dictionary is not bipolar; no underlying binary code")
    return dc.BinaryCode.from_words((d.entries < 0).T)


def _cmd_analyze(args) -> int:
    if args.strength is not None and args.strength < 1:
        raise ValueError(f"--strength must be at least 1, got {args.strength}")
    if args.pless == []:
        raise ValueError("--pless needs at least one moment order L")
    d = dc.load_dictionary(args.dict)
    profile = coh.coherence_profile(d, tol=args.tol)
    payload = {"schema_version": 1, "dictionary": d.name, "m": d.m, "N": d.N,
               "field": d.field, "profile": profile.as_dict()}
    if args.pless or args.strength is not None:
        code = _bipolar_code(d)
        if args.pless:
            dist = coh.distance_distribution(code)
            payload["pless_residual"] = {
                str(l): coh.pless_residual(dist, l) for l in args.pless}
        if args.strength is not None:
            res = coh.oa_strength(code, args.strength)
            payload["oa_strength"] = asdict(res)
    _emit(payload, args.out)
    return 0


def _cmd_certify(args) -> int:
    d = dc.load_dictionary(args.dict)
    method = "exhaustive" if args.exhaustive else "monte_carlo"
    if args.property == "strip":
        if args.delta is None:
            raise ValueError("--delta required for strip")
        rep = ct.strip_estimate(d, args.k, args.delta, method, args.trials, args.seed)
    elif args.property == "sinc":
        if args.alpha is None:
            raise ValueError("--alpha required for sinc")
        rep = ct.sinc_estimate(d, args.k, args.alpha, method, args.trials, args.seed)
    else:
        if args.delta is None or args.alpha is None:
            raise ValueError("--delta and --alpha required for wsinc")
        if args.exhaustive:
            raise ValueError("wsinc has no exhaustive method; drop --exhaustive")
        rep = ct.wsinc_estimate(d, args.k, args.delta, args.alpha,
                                args.trials, args.seed, eps=args.eps)
    _emit(rep.as_dict(), args.out)
    return 0


def _cmd_check(args) -> int:
    kw = {}
    for key, text in args.params or []:
        if key in kw:
            raise ValueError(f"duplicate --param key {key!r}")
        kw[key] = text
    fn = ct.EVALUATORS[args.condition]
    accepted = inspect.signature(fn, eval_str=True).parameters
    unknown = [key for key in kw if key not in accepted]
    missing = [key for key, p in accepted.items()
               if p.default is p.empty and key not in kw]
    if unknown or missing:
        raise ValueError(f"{args.condition}: unknown keys {unknown}, missing keys "
                         f"{missing}; accepted keys: {', '.join(accepted)}")
    for key, text in kw.items():
        integral, value = accepted[key].annotation is int, float(text)
        if not math.isfinite(value) or integral and not value.is_integer():
            raise ValueError(f"{key} must be a finite {'integer' if integral else 'number'}")
        kw[key] = int(value) if integral else value
    try:
        verdict = fn(**kw)
    except OverflowError as exc:
        raise ValueError(f"{args.condition}: a result is out of range of a float "
                         f"for inputs {kw}") from None
    _emit(verdict.as_dict(), args.out)
    return 0


def _cmd_recover(args) -> int:
    check_recovery_inputs(sigma=args.sigma, lam=args.lam, eps_noise=args.eps,
                          eps=args.prob_eps, solver=args.solver, p=args.p,
                          trials=args.trials,
                          names={"eps_noise": "eps", "eps": "prob-eps"})
    d = ex.recovery_dictionary(dc.load_dictionary(args.dict))
    records = []
    for t in range(args.trials):
        rng = derive_rng(args.seed, "recover", t)
        inst = sample_generic_signal(d.N, args.k, args.magnitudes, rng, p=args.p)
        inst = observe(d, inst, sigma=args.sigma, rng=rng)
        if args.solver == "bp":
            eps = inst.eps_noise if args.eps is None else args.eps
            res = basis_pursuit(d, inst.y, eps)
        else:
            res = lasso(d, inst.y, args.lam, args.sigma)
        res = error_report(inst, res, args.prob_eps)
        records.append({
            "trial": t, "converged": res.converged, "iterations": res.iterations,
            "objective": res.objective, "err_on_l2": res.err_on_l2,
            "err_off_l1": res.err_off_l1, "bound_on": res.bound_on,
            "bound_off": res.bound_off,
            "recovery_l2": float(np.linalg.norm(res.x_hat - inst.x)),
        })
    payload = {"schema_version": 1, "solver": args.solver, "k": args.k,
               "sigma": args.sigma, "seed": args.seed, "records": records}
    _emit(payload, args.out)
    if args.csv:
        ex.records_csv(records, args.csv)
    return 0


def _cmd_gv(args) -> int:
    spec = gv.GvSpec(l=args.l, mu_target=args.mu, m=args.m)
    if args.derandomize:
        result = gv.gv_derandomized(spec)
    else:
        result = gv.gv_random(spec, args.seed)
    width, mu = gv.code_width(result.code)
    if args.out:
        d = dc.from_binary_code(
            result.code, name=f"gv(l={spec.l},mu={spec.mu_target})",
            params={"family": "gv", "l": spec.l, "mu_target": spec.mu_target,
                    "m": spec.m, "derandomized": args.derandomize})
        dc.save_dictionary(d, args.out)
    print(json.dumps({
        "schema_version": 1, "m": spec.m, "l": spec.l, "N": result.code.N,
        "success": result.success, "out_of_band": result.out_of_band,
        "width": width, "coherence": mu,
    }, sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    config = ex.parse_config_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.jobs is not None:
        config.jobs = args.jobs
    if config.k_range:
        reports = ex.sweep(config)
        if args.csv:
            ex.sweep_csv(reports, args.csv)
    else:
        run = ex.run_lasso_study if config.solver == "lasso" else ex.run_recovery_floor
        reports = [run(config)]
        if args.csv:
            ex.records_csv(reports[0].records, args.csv)
    payload = [r.as_dict() for r in reports]
    _emit(payload if config.k_range else payload[0], args.out)
    return 1 if any(r.floor_asserted and not r.floor_passed for r in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripkit",
        description="incoherent dictionaries, statistical isometry certification, "
                    "and l1 recovery experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a dictionary and save it")
    b.add_argument("--family", required=True,
                   choices=sorted(dc._FACTORIES))
    b.add_argument("--m", type=int)
    b.add_argument("--N", type=int)
    b.add_argument("--s", type=int)
    b.add_argument("--r", type=int)
    b.add_argument("--q", type=int)
    b.add_argument("--seed", type=int)
    b.add_argument("--out", required=True)
    b.add_argument("--csv")
    b.set_defaults(fn=_cmd_build)

    a = sub.add_parser("analyze", help="coherence profile of a saved dictionary")
    a.add_argument("--dict", required=True)
    a.add_argument("--tol", type=float, default=coh.INVARIANCE_TOL,
                   help="absolute tolerance, tol >= 0, of the invariance test "
                        "and of the distinct off-diagonal |Gram| value count")
    a.add_argument("--pless", type=int, nargs="*", metavar="L")
    a.add_argument("--strength", type=int, metavar="T")
    a.add_argument("--out")
    a.set_defaults(fn=_cmd_analyze)

    c = sub.add_parser("certify", help="estimate a statistical property")
    c.add_argument("--dict", required=True)
    c.add_argument("--property", required=True, choices=["strip", "sinc", "wsinc"])
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--delta", type=float)
    c.add_argument("--alpha", type=float)
    c.add_argument("--eps", type=float)
    c.add_argument("--trials", type=int, default=10_000)
    c.add_argument("--exhaustive", action="store_true")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_certify)

    k = sub.add_parser("check", help="closed-form sufficient conditions")
    k.add_argument("--condition", required=True, choices=sorted(ct.EVALUATORS))
    k.add_argument("--param", dest="params", nargs=2, action="append",
                   metavar=("KEY", "VALUE"))
    k.add_argument("--out")
    k.set_defaults(fn=_cmd_check)

    r = sub.add_parser("recover", help="run sparse-recovery trials")
    r.add_argument("--dict", required=True)
    r.add_argument("--solver", choices=SOLVERS, default="bp")
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--eps", type=float)
    r.add_argument("--lambda", "--lam", dest="lam", type=float)
    r.add_argument("--sigma", type=float, default=0.0)
    r.add_argument("--magnitudes", default="unit", choices=MAGNITUDE_MODELS)
    r.add_argument("--p", type=float, default=0.5)
    r.add_argument("--prob-eps", type=float, default=0.1,
                   help="eps in the error-bound constant")
    r.add_argument("--trials", type=int, default=10)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out")
    r.add_argument("--csv")
    r.set_defaults(fn=_cmd_recover)

    g = sub.add_parser("gv", help="random or derandomized low-coherence code")
    g.add_argument("--l", type=int, required=True)
    g.add_argument("--mu", type=float, required=True)
    g.add_argument("--m", type=int)
    g.add_argument("--derandomize", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(fn=_cmd_gv)

    e = sub.add_parser("experiment", help="run a configured study")
    e.add_argument("--config", required=True)
    e.add_argument("--seed", type=int)
    e.add_argument("--jobs", type=int)
    e.add_argument("--out")
    e.add_argument("--csv")
    e.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, OverflowError) as exc:   # FamilyError included
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except gv.GvInfeasibleError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
