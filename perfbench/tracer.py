"""Span tracer for the benchmark's traced runs.

The tracer wraps lorentzlab's functions from the outside; nothing under
src/ is modified.  Modules bind each other's functions by name (for example
congruence and scenarios both import riemann, and cli.CHECKS holds the
check functions), so every binding site is rewritten: each lorentzlab
module namespace, the package namespace, cli.CHECKS and the methods
MetricField.at, Scenario.validate and CongruenceRun.ric_fm_series.  User
metric callbacks (matrix, d_matrix, dd_matrix) are counted by wrapping them
on every MetricField as it is constructed.

Each call becomes a span (name, parent span, start, end).  Spans stay in
memory in flat arrays and are written out with numpy when a round ends;
aggregate() turns a span file into the per-layer metrics.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("manifold", "numerics", "congruence", "jacobi", "comparison",
          "scenarios", "pipeline", "cli")

# private functions that carry a per-layer metric
PRIVATE = {"comparison": ("_shoot_to_target",), "cli": ("_write_csv",)}

METHODS = (("manifold", "MetricField", "at"),
           ("scenarios", "Scenario", "validate"),
           ("pipeline", "CongruenceRun", "ric_fm_series"))

CALLBACKS = ("matrix", "d_matrix", "dd_matrix")

# scenario construction and validation: the work setup_s pays for
BUILD = {"scenarios." + name for name in (
    "minkowski", "de_sitter", "de_sitter_weighted", "warped_product",
    "einstein_static", "frw_toy", "_weighted_family", "scenario_from_config",
    "Scenario.validate")}

# (metric, span name) pairs: inclusive time summed over outermost spans
INCLUSIVE = {
    "congruence.geodesic.s": {"congruence.integrate_geodesic"},
    "congruence.frame.s": {"congruence.parallel_frame"},
    "congruence.series.s": {"congruence.endomorphism_series"},
    "jacobi.integrate.s": {"jacobi.integrate_jacobi"},
    "jacobi.kinematics.s": {"jacobi.kinematics"},
    "jacobi.conjugate_scan.s": {"jacobi.detect_conjugate"},
    "jacobi.raychaudhuri.s": {"jacobi.raychaudhuri_residual"},
    "jacobi.boundary.s": {"jacobi.boundary_jacobi"},
    "comparison.laplacian.s": {"comparison.f_laplacian_distance"},
    "comparison.convergence.s": {"comparison.check_timelike_convergence"},
    "comparison.f_generic.s": {"comparison.check_f_generic"},
    "scenarios.build.s": BUILD,
    "scenarios.certify.s": {"scenarios.certify_weighted_de_sitter"},
    "pipeline.run.s": {"pipeline.run_point_congruence"},
    "pipeline.ric_fm_series.s": {"pipeline.CongruenceRun.ric_fm_series"},
}

CALLS = {
    "manifold.metric_at.calls": {"manifold.MetricField.at"},
    "manifold.riemann.calls": {"manifold.riemann"},
    "manifold.christoffel.calls": {"manifold.christoffel",
                                   "manifold.christoffel_unchecked"},
    "manifold.hessian.calls": {"manifold.hessian_scalar"},
    "numerics.ode_solve.calls": {"numerics.ode_solve"},
    "congruence.geodesic.calls": {"congruence.integrate_geodesic"},
    "jacobi.integrate.calls": {"jacobi.integrate_jacobi"},
    "comparison.laplacian.pairs": {"comparison.f_laplacian_distance"},
    "pipeline.congruence_runs": {"pipeline.run_point_congruence"},
}

SELF = {
    "manifold.metric_at.self_s": {"manifold.MetricField.at"},
    "manifold.riemann.self_s": {"manifold.riemann"},
}

# counts taken from return values; each hook returns {counter: increment}
HOOKS = {
    "numerics.ode_solve": lambda sol: {"numerics.ode_solve.nfev": sol.nfev,
                                       "numerics.ode_solve.steps": len(sol.t) - 1},
    "congruence.parallel_frame": lambda fr: {
        "congruence.frame.reorth_events": len(fr.reorth_events)},
    "congruence.endomorphism_series": lambda s: {
        "congruence.series.points": len(s.ts)},
    "jacobi.kinematics": lambda d: {
        "jacobi.kinematics.samples": len(d.ts),
        "jacobi.kinematics.masked": int((~d.mask).sum())},
    "comparison.check_timelike_convergence": lambda r: {
        "comparison.convergence.samples": r.n_samples},
}

# metrics that are maxima rather than sums
MAXIMA = {"jacobi.raychaudhuri_residual": "jacobi.raychaudhuri.max_residual"}

# every per-layer metric, in the order BENCHMARK.json lists them
METRICS = (
    ("manifold.metric_eval.calls", "count"),
    ("manifold.metric_at.calls", "count"), ("manifold.metric_at.self_s", "s"),
    ("manifold.riemann.calls", "count"), ("manifold.riemann.self_s", "s"),
    ("manifold.christoffel.calls", "count"), ("manifold.hessian.calls", "count"),
    ("manifold.self_s", "s"),
    ("numerics.ode_solve.calls", "count"), ("numerics.ode_solve.nfev", "count"),
    ("numerics.ode_solve.steps", "count"), ("numerics.self_s", "s"),
    ("congruence.geodesic.calls", "count"), ("congruence.geodesic.s", "s"),
    ("congruence.frame.s", "s"), ("congruence.frame.reorth_events", "count"),
    ("congruence.series.s", "s"), ("congruence.series.points", "count"),
    ("congruence.self_s", "s"),
    ("jacobi.integrate.calls", "count"), ("jacobi.integrate.s", "s"),
    ("jacobi.kinematics.s", "s"), ("jacobi.kinematics.samples", "count"),
    ("jacobi.kinematics.masked", "count"), ("jacobi.conjugate_scan.s", "s"),
    ("jacobi.raychaudhuri.s", "s"), ("jacobi.raychaudhuri.max_residual", "1"),
    ("jacobi.boundary.s", "s"), ("jacobi.self_s", "s"),
    ("comparison.laplacian.pairs", "count"), ("comparison.laplacian.s", "s"),
    ("comparison.shoot.geodesic_calls", "count/pair"),
    ("comparison.convergence.s", "s"), ("comparison.convergence.samples", "count"),
    ("comparison.f_generic.s", "s"), ("comparison.self_s", "s"),
    ("scenarios.build.s", "s"), ("scenarios.certify.s", "s"),
    ("scenarios.self_s", "s"),
    ("pipeline.congruence_runs", "count"), ("pipeline.run.s", "s"),
    ("pipeline.ric_fm_series.s", "s"),
    ("cli.checks.s", "s"), ("cli.artifact_bytes", "count"), ("cli.self_s", "s"),
)

# metrics that must repeat exactly between rounds and between runs
COUNTS = tuple(name for name, unit in METRICS if unit != "s")


class Recorder:
    """In-memory spans of one round: flat arrays indexed by span number."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.maxima = {}
        self._stack = [-1]

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid, fn, args, kwargs):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def write(self, path):
        """Write the round's spans and counters to an .npz file."""
        import numpy as np
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=np.array(self.names),
                 counts=json.dumps(dict(self.counts)),
                 maxima=json.dumps(self.maxima))


def _wrapper(rec, name, fn):
    nid = rec.name_id(name)
    hook = HOOKS.get(name)
    maximum = MAXIMA.get(name)

    def traced(*args, **kwargs):
        out = rec.call(nid, fn, args, kwargs)
        if hook is not None:
            rec.counts.update(hook(out))
        if maximum is not None:
            rec.maxima[maximum] = max(rec.maxima.get(maximum, 0.0),
                                      float(out.max_residual))
        return out

    return traced


def _counted(rec, cb):
    def counted(p):
        rec.counts["manifold.metric_eval.calls"] += 1
        return cb(p)
    counted.counted = True
    return counted


def install(rec: Recorder):
    """Wrap every lorentzlab function at every site that binds it."""
    mods = {layer: importlib.import_module(f"lorentzlab.{layer}")
            for layer in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_")
                         or attr in PRIVATE.get(layer, ()))):
                wrapped[obj] = _wrapper(rec, f"{layer}.{attr}", obj)
    sites = list(mods.values()) + [importlib.import_module("lorentzlab")]
    for mod in sites:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    checks = mods["cli"].CHECKS
    for key, fn in checks.items():
        checks[key] = wrapped.get(fn, fn)
    for layer, cls_name, meth in METHODS:
        cls = getattr(mods[layer], cls_name)
        setattr(cls, meth, _wrapper(rec, f"{layer}.{cls_name}.{meth}",
                                    getattr(cls, meth)))

    metric_cls = mods["manifold"].MetricField
    init = metric_cls.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for attr in CALLBACKS:
            cb = getattr(self, attr)
            if cb is not None and not getattr(cb, "counted", False):
                object.__setattr__(self, attr, _counted(rec, cb))

    metric_cls.__init__ = counting_init


def aggregate(path) -> dict:
    """Per-layer metrics of one span file (cli.artifact_bytes excepted)."""
    import numpy as np
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    name, parent = data["name"], data["parent"]
    start, end = data["start"], data["end"]
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child

    def select(group):
        ids = [i for i, n in enumerate(names) if n in group]
        return np.isin(name, ids)

    def outermost_time(sel):
        # spans are stored in call order and nest properly, so a selected
        # span lies inside another selected one iff it starts before the
        # latest end among the selected spans before it
        s, e = start[sel], end[sel]
        if not len(s):
            return 0.0
        prev_end = np.concatenate([[-np.inf], np.maximum.accumulate(e)[:-1]])
        return float((e - s)[s >= prev_end].sum())

    out = {m: 0 for m, _ in METRICS}
    out.update(json.loads(str(data["counts"])))
    out.update(json.loads(str(data["maxima"])))
    for metric, group in CALLS.items():
        out[metric] = int(select(group).sum())
    for metric, group in SELF.items():
        out[metric] = float(self_t[select(group)].sum())
    inclusive = dict(INCLUSIVE)
    inclusive["cli.checks.s"] = {n for n in names if n.startswith("cli.check_")}
    for metric, group in inclusive.items():
        out[metric] = outermost_time(select(group))
    for layer in LAYERS:
        group = {n for n in names if n.split(".")[0] == layer}
        out[f"{layer}.self_s"] = float(self_t[select(group)].sum())
    geo = select({"congruence.integrate_geodesic"}) & has_parent
    shoot = select({"comparison._shoot_to_target"})
    out["shoot.geodesic_solves"] = int(shoot[parent[geo]].sum())
    return out


def combine(parts) -> dict:
    """Sum per-process metrics; maxima take the max; derive ratios."""
    total = {}
    for part in parts:
        for key, val in part.items():
            if key in MAXIMA.values():
                total[key] = max(total.get(key, 0.0), val)
            else:
                total[key] = total.get(key, 0) + val
    pairs = total.get("comparison.laplacian.pairs", 0)
    solves = total.pop("shoot.geodesic_solves", 0)
    total["comparison.shoot.geodesic_calls"] = solves / pairs if pairs else 0.0
    return total
