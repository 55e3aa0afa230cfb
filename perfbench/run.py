"""stripkit benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload recovery --seed 2026 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 2026 --seconds 32

Run from anywhere; stripkit is imported from ``src/`` of the checkout that
holds this file, never from an installed copy. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--workload all`` runs every workload in turn, each in its own process, and
prints one table. The last line of standard output is the result object;
records and spans go to ``.bench_out/`` in the checkout. See NOTES.md.
"""

import time

_T_START = time.perf_counter()     # set-up time counts from here

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import tracing      # imports stripkit only when a tracer is installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# BENCHMARK.json lists the first three; "recovery" runs the bp_floor and
# noisy_recovery bodies back to back. The last three run on request only.
# bp_floor_jobs2 cannot be bounded: at this commit identical jobs=2 bodies
# differ by up to 10x in time (BLAS oversubscription).
NAMES = ("certify_mc", "recovery", "build_analyze", "bp_floor", "noisy_recovery",
         "bp_floor_jobs2")
SETUP_PROBES = 5           # set-ups timed in fresh processes
MIN_BODIES = 3             # timed bodies per untraced run; a traced run needs 2
# Reference slices: a fixed loop timed between bodies, to follow the speed of
# this machine, which drifts by 30% and more over seconds to minutes on a
# shared host. REF_SLICE_S is the slice time that defines the reference
# speed; REF_SHARE is the share of a run spent on slices.
REF_LOOPS = 25_000
REF_SLICE_S = 0.007
REF_SHARE = 0.08
_BIG = 3 ** 130
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_stripkit():
    """Import stripkit from this checkout's src/ and the benchmark modules."""
    if not (SRC / "stripkit" / "__init__.py").is_file():
        raise BenchError(f"no stripkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stripkit
    if Path(stripkit.__file__).resolve().parent != SRC / "stripkit":
        raise BenchError(f"stripkit imported from {stripkit.__file__}, not {SRC}")
    import workloads
    return workloads


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": git_commit(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process: start-up, import and build."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def reference_slice() -> float:
    """Seconds of one fixed slice of small- and big-integer Python
    arithmetic. It runs no stripkit code, so its time follows only how fast
    the machine runs Python at that moment."""
    t0 = time.perf_counter()
    small, big = 0, _BIG
    for k in range(REF_LOOPS):
        small += k * k
        big = (big * 7 + k) % (_BIG + 12345)
    return time.perf_counter() - t0


def reference_block(seconds: float) -> float:
    """Median slice time over about ``seconds`` of slices (at least one)."""
    n = max(1, round(seconds / REF_SLICE_S))
    return statistics.median(reference_slice() for _ in range(n))


def time_body(wl, i: int, tracer=None) -> tuple:
    """(seconds, outcome) of body ``i``; garbage is collected first, outside
    the time, and the output is checked after it."""
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        out = wl.body(i)
    else:
        with tracer.span(tracing.BODY_ROOT):
            out = wl.body(i)
    return time.perf_counter() - t0, wl.check(i, out)


def measure(wl, seconds: float, min_bodies: int, tracer=None) -> tuple:
    """Warm-up body 0, then bodies 1, 2, ... for about ``seconds``.

    Returns (untraced times of bodies 1.., their outcomes, every outcome,
    traced times, reference blocks). The warm-up body is checked, but its
    time is in no result. A reference block (median slice time) is taken
    before each untraced body and after the last, so untraced body ``j`` lies
    between blocks ``j`` and ``j + 1``. With a tracer, each body index runs
    untraced and then traced, so a drift in the machine's speed falls on
    both alike."""
    times, timed, traced_times, refs = [], [], [], []
    begin = time.perf_counter()
    checked = [wl.check(0, wl.body(0))]
    last = time.perf_counter() - begin
    i = 1
    while True:
        refs.append(reference_block(REF_SHARE * last))
        t, outcome = time_body(wl, i)
        last = t
        times.append(t)
        timed.append(outcome)
        checked.append(outcome)
        if tracer is not None:
            tracer.install()
            try:
                t, outcome = time_body(wl, i, tracer)
            finally:
                tracer.uninstall()
            traced_times.append(t)
            checked.append(outcome)
        spent = time.perf_counter() - begin
        step = (1 + REF_SHARE) * statistics.median(times) + (
            statistics.median(traced_times) if traced_times else 0.0)
        if len(times) >= min_bodies and spent + step > seconds:
            refs.append(reference_block(REF_SHARE * last))
            return times, timed, checked, traced_times, refs
        i += 1


def run(args) -> int:
    workloads = import_stripkit()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        with tracer.span(tracing.SETUP_ROOT):
            wl = workloads.WORKLOADS[args.workload](args.seed)
        tracer.uninstall()
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
    own_setup = time.perf_counter() - _T_START
    if args.probe_setup:
        print(repr(own_setup))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if tracer is None:
        # set-up probes between reference blocks, adjusted as bodies are
        setups, setup_refs = [], [reference_block(REF_SHARE * own_setup)]
        for _ in range(SETUP_PROBES):
            setups.append(probe_setup(args.workload, args.seed))
            setup_refs.append(reference_block(REF_SHARE * setups[-1]))
        setups_ref = [t * REF_SLICE_S * 2 / (before + after)
                      for t, before, after in zip(setups, setup_refs, setup_refs[1:])]
        times, timed, checked, _, refs = measure(wl, args.seconds, MIN_BODIES)
        record["own_setup_s"] = own_setup
        record["setup_runs_s"] = setups
        record["setup_reference_blocks_s"] = setup_refs
        record["setup_raw_s"] = statistics.median(setups)
        record["reference_blocks_s"] = refs
        # each body's time at the reference speed, from the blocks around it
        adjusted = [t * REF_SLICE_S * 2 / (before + after)
                    for t, before, after in zip(times, refs, refs[1:])]
        record["wall_s"] = statistics.median(times)
        record["items_per_s"] = statistics.median(
            o.items / t for o, t in zip(timed, times))
    else:
        times, timed, checked, traced_times, _ = measure(wl, args.seconds, 2, tracer)
        overhead = statistics.median(t - u for u, t in zip(times, traced_times))
        record["traced_body_times_s"] = traced_times

    attempted = sum(o.attempted for o in checked)
    failed = sum(o.failed for o in checked)
    errors = [e for o in checked for e in o.errors]
    counters: dict = {}
    for o in checked:
        for key, value in o.counters.items():
            counters[key] = counters.get(key, 0) + value
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups_ref), "unit": "s"},
            "wall_ref_s": {"value": statistics.median(adjusted), "unit": "s"},
            "items_per_ref_s": {"value": statistics.median(
                o.items / t for o, t in zip(timed, adjusted)), "unit": "1/s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans, counters, overhead)

    record.update({
        "body_times_s": times,
        "bodies": len(checked),
        "fail_frac": failed / attempted,
        "errors": errors[:20],
        "counters": counters,
        "first_digest": checked[0].digest,
        "metrics": metrics,
    })
    workloads.OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (workloads.OUT_DIR / name).write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} bodies={len(checked)} "
          f"attempted={attempted} failed={failed} fail_frac={failed / attempted:.6g} "
          f"errors={len(errors)}")
    for e in errors[:5]:
        print(f"# error: {e}")
    print(f"# record {json.dumps(record, sort_keys=True)}")
    if tracer is None:
        print(f"#   {'setup_s (raw)':42s} {record['setup_raw_s']:.6g} s")
        print(f"#   {'wall_s (raw)':42s} {record['wall_s']:.6g} s")
        print(f"#   {'items_per_s (raw)':42s} {record['items_per_s']:.6g} 1/s")
    for key, m in metrics.items():
        print(f"#   {key:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    cols = ("setup_s", "wall_s", "wall_ref_s", "items_per_s", "items_per_ref_s",
            "fail_frac", "peak_rss_mb")
    rows = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            raise BenchError(f"{name} failed: {proc.stderr.strip()[-500:]}")
        lines = proc.stdout.splitlines()
        rec = json.loads(next(line for line in lines if line.startswith("# record "))
                         [len("# record "):])
        result = json.loads(lines[-1])
        vals = {k: v["value"] for k, v in rec["metrics"].items()}
        for key in ("wall_s", "items_per_s", "fail_frac"):
            vals[key] = rec[key]
        rows.append((name, result["correct"], vals, rec["first_digest"]))
        if name == NAMES[0]:
            print(f"# environment {json.dumps(rec['environment'], sort_keys=True)}")
    units = {"setup_s": "s", "wall_s": "s", "wall_ref_s": "s", "items_per_s": "1/s",
             "items_per_ref_s": "1/s", "fail_frac": "ratio", "peak_rss_mb": "MB"}
    print(f"{'workload':16s} {'correct':8s} " + " ".join(
        f"{c + ' [' + units[c] + ']':>18s}" for c in cols))
    for name, correct, vals, _ in rows:
        print(f"{name:16s} {str(correct):8s} " + " ".join(
            f"{vals[c]:18.6g}" for c in cols))
    digests = {name: d for name, _, _, d in rows}
    same = digests["bp_floor"] == digests["bp_floor_jobs2"] != ""
    print(f"bp_floor_jobs2 first report byte-identical to bp_floor's: {same}")
    return 0 if same and all(r[1] for r in rows) else 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=2026,
                    help="workload seed (default 2026, the acceptance MASTER_SEED)")
    ap.add_argument("--seconds", type=float, default=32.0,
                    help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
