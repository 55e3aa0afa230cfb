"""In-memory spans around stripkit's public functions, recorded from outside
the package.

``Tracer.install`` replaces each traced function in every stripkit module
namespace that holds it, which is where the calling module looks it up
(``stripkit.experiments.basis_pursuit``, ``stripkit.signals.sample_support``,
...), and ``uninstall`` puts the originals back. A span is
``[name, start, end, parent, extra]``: ``parent`` is the index of the
enclosing span and ``extra`` holds counts read from the returned value.

Only the calling process records spans. Pool workers forked while the
wrappers are installed record into their own copy, which is discarded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

_BUILD_FUNCTIONS = ("build_family", "build_gaussian", "build_random_harmonic",
             "build_chirp", "build_etf_paley", "build_delsarte_goethals",
             "delsarte_goethals_code", "from_binary_code", "realify")


def _mc_supports(report) -> dict:
    return {"supports": report.trials} if report.method == "monte_carlo" else {}


def _solve(result) -> dict:
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _decisions(result) -> dict:
    return {"decisions": len(result.expectation_trace) - 1}


# (span name, home module, function names, reader of the returned value)
TARGETS = [
    ("seeding.derive_rng", "stripkit.seeding", ("derive_rng",), None),
    ("certify.sample_support", "stripkit.certify", ("sample_support",), None),
    ("certify.strip_estimate", "stripkit.certify", ("strip_estimate",), _mc_supports),
    ("certify.sinc_estimate", "stripkit.certify", ("sinc_estimate",), _mc_supports),
    ("certify.wsinc_estimate", "stripkit.certify", ("wsinc_estimate",), _mc_supports),
    ("signals.sample_generic_signal", "stripkit.signals", ("sample_generic_signal",), None),
    ("signals.observe", "stripkit.signals", ("observe",), None),
    ("solvers.basis_pursuit", "stripkit.solvers", ("basis_pursuit",), _solve),
    ("solvers.lasso", "stripkit.solvers", ("lasso",), _solve),
    ("solvers.dual_certificate", "stripkit.solvers", ("dual_certificate",), None),
    ("solvers.error_report", "stripkit.solvers", ("error_report",), None),
    ("solvers.cp_conditions", "stripkit.solvers", ("cp_conditions",), None),
    ("experiments.run_recovery_floor", "stripkit.experiments", ("run_recovery_floor",), None),
    ("experiments.run_lasso_study", "stripkit.experiments", ("run_lasso_study",), None),
    ("dictionaries.build", "stripkit.dictionaries", _BUILD_FUNCTIONS, None),
    ("dictionaries.save_load", "stripkit.dictionaries",
     ("save_dictionary", "load_dictionary"), None),
    ("galoisring.kerdock_binary_words", "stripkit.galoisring", ("kerdock_binary_words",), None),
    ("coherence.coherence_profile", "stripkit.coherence", ("coherence_profile",), None),
    ("coherence.distance_distribution", "stripkit.coherence", ("distance_distribution",), None),
    ("gvforge.gv_derandomized", "stripkit.gvforge", ("gv_derandomized",), _decisions),
    ("gvforge.code_width", "stripkit.gvforge", ("code_width",), None),
]

# Dictionary.gram is a method: it is wrapped on the class.
GRAM_SPAN = "dictionaries.gram"

ESTIMATORS = ("certify.strip_estimate", "certify.sinc_estimate",
              "certify.wsinc_estimate")
RUNNERS = ("experiments.run_recovery_floor", "experiments.run_lasso_study")

SETUP_ROOT = "bench.setup"
BODY_ROOT = "bench.body"

# (metric, unit); every traced run reports all of them, 0 where a workload
# never enters the layer.
LAYER_METRICS = [
    ("seeding.derive_rng.calls", "count"),
    ("seeding.derive_rng.busy_s", "s"),
    ("certify.sample_support.calls", "count"),
    ("certify.sample_support.busy_s", "s"),
    ("certify.strip_estimate.busy_s", "s"),
    ("certify.sinc_estimate.busy_s", "s"),
    ("certify.wsinc_estimate.busy_s", "s"),
    ("certify.self_s", "s"),
    ("certify.supports", "count"),
    ("certify.ci_hit_rate", "ratio"),
    ("signals.sample_generic_signal.busy_s", "s"),
    ("signals.observe.busy_s", "s"),
    ("solvers.basis_pursuit.calls", "count"),
    ("solvers.basis_pursuit.busy_s", "s"),
    ("solvers.basis_pursuit.p50_ms", "ms"),
    ("solvers.basis_pursuit.p95_ms", "ms"),
    ("solvers.basis_pursuit.iterations", "count"),
    ("solvers.basis_pursuit.converged_rate", "ratio"),
    ("solvers.dual_certificate.busy_s", "s"),
    ("solvers.error_report.busy_s", "s"),
    ("solvers.lasso.calls", "count"),
    ("solvers.lasso.busy_s", "s"),
    ("solvers.lasso.iterations", "count"),
    ("solvers.lasso.converged_rate", "ratio"),
    ("solvers.cp_conditions.busy_s", "s"),
    ("experiments.run_recovery_floor.busy_s", "s"),
    ("experiments.run_lasso_study.busy_s", "s"),
    ("experiments.self_s", "s"),
    ("dictionaries.build.busy_s", "s"),
    ("dictionaries.gram.calls", "count"),
    ("dictionaries.gram.busy_s", "s"),
    ("dictionaries.save_load.busy_s", "s"),
    ("galoisring.kerdock_binary_words.busy_s", "s"),
    ("coherence.coherence_profile.busy_s", "s"),
    ("coherence.distance_distribution.busy_s", "s"),
    ("gvforge.gv_derandomized.busy_s", "s"),
    ("gvforge.decisions", "count"),
    ("gvforge.code_width.busy_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []     # (owner, attribute, original)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, reader):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if reader is not None:
                self.spans[idx][4] = reader(out)
            return out
        return traced

    def install(self) -> None:
        """Wrap every target wherever a loaded stripkit module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "stripkit" or key.startswith("stripkit.")]
        for name, home, attrs, reader in TARGETS:
            home_mod = importlib.import_module(home)
            for attr in attrs:
                original = getattr(home_mod, attr)
                wrapper = self._wrap(name, original, reader)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        cls = importlib.import_module("stripkit.dictionaries").Dictionary
        self._patch(cls, "gram", cls.gram, self._wrap(GRAM_SPAN, cls.gram, None))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, extra."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _group_totals(spans: list, members: list, child_time: dict) -> dict:
    """Additive per-layer figures over the spans of one root."""
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i in members:
        name, start, end, parent, extra = spans[i]
        dur = end - start
        # a span inside another of the same name (one build function
        # calling another) is already covered by its ancestor
        p = parent
        nested = False
        while p is not None:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if nested:
            continue
        add(name + ".calls", 1)
        add(name + ".busy_s", dur)
        if name in ESTIMATORS:
            add("certify.self_s", dur - child_time.get(i, 0.0))
        elif name in RUNNERS:
            add("experiments.self_s", dur - child_time.get(i, 0.0))
        for key, value in (extra or {}).items():
            if key == "supports":
                add("certify.supports", value)
            elif key == "decisions":
                add("gvforge.decisions", value)
    return out


def layer_metrics(spans: list, counters: dict, overhead_s: float) -> dict:
    """Per-layer figures: one set-up plus the mean traced body.

    Additive figures (calls, busy and self seconds, counts) add the spans
    under the set-up root to the mean over body roots; rates and latency
    percentiles pool every traced call. Spans outside those roots (the
    benchmark's own output checks) are ignored.
    """
    root_of: list = []
    child_time: dict = {}
    groups: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        root = i if parent is None else root_of[parent]
        root_of.append(root)
        if parent is None:
            continue
        if spans[parent][3] is not None:        # not a direct child of a root
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        if spans[root][0] in (SETUP_ROOT, BODY_ROOT):
            groups.setdefault(root, []).append(i)
    setup_roots = [i for i, s in enumerate(spans) if s[0] == SETUP_ROOT and s[3] is None]
    body_roots = [i for i, s in enumerate(spans) if s[0] == BODY_ROOT and s[3] is None]

    totals: dict = {}
    for r in setup_roots:
        for key, value in _group_totals(spans, groups.get(r, []), child_time).items():
            totals[key] = totals.get(key, 0.0) + value
    for r in body_roots:
        for key, value in _group_totals(spans, groups.get(r, []), child_time).items():
            totals[key] = totals.get(key, 0.0) + value / len(body_roots)

    traced = [i for members in groups.values() for i in members]

    def pooled(name):
        return [spans[i] for i in traced if spans[i][0] == name]

    metrics = {}
    for key, unit in LAYER_METRICS:
        metrics[key] = float(totals.get(key, 0.0))
    for base in ("solvers.basis_pursuit", "solvers.lasso"):
        calls = pooled(base)
        if calls:
            metrics[base + ".iterations"] = statistics.fmean(
                s[4]["iterations"] for s in calls)
            metrics[base + ".converged_rate"] = statistics.fmean(
                1.0 if s[4]["converged"] else 0.0 for s in calls)
        if calls and base + ".p50_ms" in metrics:
            ms = [(s[2] - s[1]) * 1e3 for s in calls]
            metrics[base + ".p50_ms"] = statistics.median(ms)
            metrics[base + ".p95_ms"] = (statistics.quantiles(
                ms, n=20, method="inclusive")[18] if len(ms) > 1 else ms[0])
    checks = counters.get("ci_checks", 0)
    metrics["certify.ci_hit_rate"] = counters.get("ci_hits", 0) / checks if checks else 0.0
    metrics["trace.overhead_s"] = overhead_s
    return {key: {"value": metrics[key], "unit": unit} for key, unit in LAYER_METRICS}
