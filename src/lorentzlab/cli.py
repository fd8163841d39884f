"""Batch front end: load a run config, dispatch checks, emit report + CSV.

Exit codes: 0 all checks passed (or skipped), 1 at least one check failed,
2 configuration or runtime error.  For a fixed seed and tolerances the
written artifacts are byte-identical between runs: no timestamps, canonical
JSON echo, shortest round-trip float formatting, and report lines ordered by
check identifier.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import comparison, jacobi, scenarios
from .comparison import SampleSpec, f_laplacian_distance, schwarz_gap, \
    schwarz_equality_residual
from .errors import ConfigError, LorentzLabError, ParseError, ValidationError
from .jacobi import detect_conjugate, raychaudhuri_residual
from .manifold import riemann_lowered
from .pipeline import (NormalCongruenceSpec, mean_curvature_evolution,
                       run_point_congruence)
from .scenarios import BUILTIN_SCENARIOS, Scenario, certify_weighted_de_sitter

DEFAULTS = {
    "seed": 20240,
    "tolerances": {"rtol": 1e-9, "atol": 1e-11, "residual": 5e-5},
    "samples": {"n_timelike": 16, "chi_max": 3.0},
    "out_dir": "lorentzlab_out",
}

# largest float, and the most timelike directions sampled per point
FLOAT_MAX = sys.float_info.max
MAX_TIMELIKE = 10_000

CSV_COLUMNS = ("t", "theta_f", "theta", "det_A", "tr_sigma2", "tr_omega2",
               "residual", "mask")


@dataclass
class RunConfig:
    scenario_source: object
    checks: list
    seed: int
    rtol: float
    atol: float
    residual_tol: float
    n_timelike: int
    chi_max: float
    out_dir: str
    echo: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    name: str
    status: str          # PASS / FAIL / SKIP / ERROR
    summary: str
    tag: str
    series: dict = field(default_factory=dict)


def _positive(val, upper=FLOAT_MAX) -> bool:
    """A JSON number, not a bool (bools are ints to Python), in (0, upper)."""
    return type(val) in (int, float) and 0 < val < upper


def _section(raw, key, violations) -> dict:
    """DEFAULTS[key] updated by the object raw[key]; anything else, and an
    unknown field in it, is a violation."""
    given = raw.get(key, {})
    if not isinstance(given, dict):
        violations.append(f"{key!r} must be an object")
        given = {}
    violations.extend(f"unknown field {key}.{name}" for name in given
                      if name not in DEFAULTS[key])
    return {**DEFAULTS[key], **given}


def parse_config(text: str) -> RunConfig:
    """Validate JSON config text; defaults are filled and echoed back."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError names the line; too deep a nesting and an
        # integer of over 4300 digits are the other documents json rejects
        raise ParseError(f"cannot read the config as JSON: {exc}") from exc
    violations = []
    if not isinstance(raw, dict):
        raise ValidationError(["top level must be an object"])
    known_keys = {"scenario", "checks", "seed", "tolerances", "samples", "out_dir"}
    violations += [f"unknown field {key!r}" for key in raw if key not in known_keys]
    scenario = raw.get("scenario")
    if scenario is None:
        violations.append("missing required field 'scenario'")
    elif isinstance(scenario, str):
        if scenario not in BUILTIN_SCENARIOS:
            violations.append(f"unknown scenario {scenario!r}")
    elif not isinstance(scenario, dict):
        violations.append("'scenario' must be a name or an object")

    checks = raw.get("checks", "default")
    if isinstance(checks, str):
        if checks not in ("default", "all"):
            violations.append(f"unknown checks keyword {checks!r}")
    elif isinstance(checks, list):
        violations += [f"unknown check identifier {c!r}" for c in checks
                       if not isinstance(c, str) or c not in CHECKS]
    else:
        violations.append("'checks' must be a list or 'default'/'all'")

    tol, samples = (_section(raw, key, violations)
                    for key in ("tolerances", "samples"))
    for key in DEFAULTS["tolerances"]:
        rtol = key == "rtol"
        if not _positive(tol[key], 1.0 if rtol else FLOAT_MAX):
            violations.append(f"tolerance {key!r} must be positive"
                              + (" and below 1" if rtol else ""))
    if (type(samples["n_timelike"]) is not int
            or not 1 <= samples["n_timelike"] <= MAX_TIMELIKE):
        violations.append(f"samples.n_timelike must be an integer in "
                          f"[1, {MAX_TIMELIKE}]")
    if not _positive(samples["chi_max"]):
        violations.append("samples.chi_max must be positive")
    seed = raw.get("seed", DEFAULTS["seed"])
    if type(seed) is not int or seed < 0:
        violations.append("seed must be a nonnegative integer")
    if not isinstance(raw.get("out_dir", ""), str):
        violations.append("out_dir must be a string")
    if violations:
        raise ValidationError(violations)

    echo = {"scenario": scenario, "checks": checks, "seed": seed,
            "tolerances": tol, "samples": samples,
            "out_dir": raw.get("out_dir", DEFAULTS["out_dir"])}
    return RunConfig(
        scenario_source=scenario, checks=checks, seed=seed,
        rtol=float(tol["rtol"]), atol=float(tol["atol"]),
        residual_tol=float(tol["residual"]),
        n_timelike=int(samples["n_timelike"]), chi_max=float(samples["chi_max"]),
        out_dir=echo["out_dir"], echo=echo)


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------

TAGS = {
    "metric_invariants": "identity: curvature tensor symmetries",
    "raychaudhuri_residual": "identity: weighted Raychaudhuri equation",
    "lagrange_conservation": "identity: Lagrange self-adjointness conservation",
    "trace_identity": "identity: trace of the weighted endomorphism",
    "check_timelike_convergence":
        "certificate: weighted timelike convergence condition",
    "check_f_generic": "certificate: weighted generic condition",
    "schwarz_gap": "inequality: trace-splitting bound",
    "f_laplacian_bounds": "inequality: weighted distance-Laplacian bounds",
    "mean_curvature_evolution": "identity: normal mean-curvature evolution",
    "conjugate_points": "derived: conjugate-point detection",
    "certify_weighted_de_sitter":
        "certificate: weighted convergence certification",
}


def _result(name, ok, summary, series=None) -> CheckResult:
    """The check's result; ok is a verdict, or a status such as "SKIP"."""
    status = ok if isinstance(ok, str) else ("PASS" if ok else "FAIL")
    return CheckResult(name, status, summary, TAGS[name], series or {})


def _diag_series(diag, residual_ts=None, residual=None):
    res_full = np.full(len(diag.ts), np.nan)
    if residual is not None:
        i0 = np.searchsorted(diag.ts, residual_ts[0])
        res_full[i0:i0 + len(residual)] = residual
    return {
        "t": diag.ts, "theta_f": diag.theta_f, "theta": diag.theta,
        "det_A": diag.det_A, "tr_sigma2": diag.tr_sigma2,
        "tr_omega2": diag.tr_omega2, "residual": res_full,
        "mask": diag.mask.astype(int),
    }


def _sample_points(scen: Scenario, count=9):
    spec = next((s for s in scen.geodesics if s.character == "timelike"), None)
    if spec is None:
        return np.atleast_2d(scen.geodesics[0].p0)
    a, b = spec.span
    p0, v0 = np.asarray(spec.p0, dtype=float), np.asarray(spec.v0, dtype=float)
    return np.array([p0 + (t - a) * v0 for t in
                     np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), count)])


def check_metric_invariants(scen: Scenario, cfg: RunConfig, runs) -> CheckResult:
    scen.validate()
    R = riemann_lowered(scen.metric, np.asarray(scen.geodesics[0].p0, dtype=float))
    worst = max(float(np.max(np.abs(R + np.swapaxes(R, 2, 3)))),
                float(np.max(np.abs(R + np.swapaxes(R, 0, 1)))),
                float(np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1))))),
                float(np.max(np.abs(R + np.transpose(R, (0, 2, 3, 1))
                                    + np.transpose(R, (0, 3, 1, 2))))))
    tol = 1e-7 if scen.metric.d_matrix is not None else 1e-4
    return _result("metric_invariants", worst <= tol,
                   f"max curvature-symmetry residual {worst:.3e} (tol {tol:g})")


def _comoving_run(scen: Scenario, cfg: RunConfig, runs, label=None):
    """The congruence along a geodesic of scen, built once per run() call
    and kept in runs, which run() creates afresh."""
    spec = scen.geodesic(label) if label else next(
        s for s in scen.geodesics if s.character == "timelike")
    if spec.label not in runs:
        a, b = spec.span
        lead = 0.25 * (b - a)
        runs[spec.label] = run_point_congruence(
            scen.metric, spec.p0, spec.v0, spec.span, f=scen.weight,
            diag_ts=np.linspace(a + lead, b, 1601), rtol=cfg.rtol, atol=cfg.atol)
    return spec, runs[spec.label]


def check_raychaudhuri(scen: Scenario, cfg: RunConfig, runs) -> CheckResult:
    spec, run = _comoving_run(scen, cfg, runs)
    ric = run.ric_fm_series(scen.metric, scen.weight, scen.params)
    report = raychaudhuri_residual(run.diagnostics, ric, scen.params.m)
    series = {spec.label: _diag_series(run.diagnostics, report.ts, report.residual)}
    return _result("raychaudhuri_residual", report.max_residual <= cfg.residual_tol,
                   f"max |residual| {report.max_residual:.3e} "
                   f"(tol {cfg.residual_tol:g})", series)


def check_lagrange(scen: Scenario, cfg: RunConfig, runs) -> CheckResult:
    spec, run = _comoving_run(scen, cfg, runs)
    traj = run.trajectory
    worst = float(np.max(jacobi.lagrange_defect(
        traj, np.linspace(traj.t0, traj.t1, 101))))
    return _result("lagrange_conservation", worst <= 1e-8,
                   f"max defect {worst:.3e} along {spec.label}")


def check_trace_identity(scen: Scenario, cfg: RunConfig, runs) -> CheckResult:
    spec, run = _comoving_run(scen, cfg, runs)
    worst = 0.0
    a, b = run.trajectory.t0, run.trajectory.t1
    for t in np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), 7):
        worst = max(worst, comparison.trace_identity_check(
            scen.metric, scen.weight, scen.params, run.frame, t))
    return _result("trace_identity", worst <= 1e-6,
                   f"max residual {worst:.3e} (tol 1e-06)")


def check_convergence(scen: Scenario, cfg: RunConfig, runs) -> CheckResult:
    spec = SampleSpec(points=_sample_points(scen), n_timelike=cfg.n_timelike,
                      seed=cfg.seed, chi_max=cfg.chi_max)
    report = comparison.check_timelike_convergence(scen.metric, scen.weight,
                                                   scen.params, spec)
    return _result("check_timelike_convergence", report.passed,
                   f"min Ric_f^m(v,v) = {report.min_value:.6g} over "
                   f"{report.n_samples} samples")


def check_f_generic(scen: Scenario, cfg: RunConfig, runs) -> CheckResult:
    expectations = scen.expectations.get("f_generic", {})
    if not expectations:
        return _result("check_f_generic", "SKIP", "no expectation declared")
    ok = True
    detail = []
    for label, expected in expectations.items():
        spec, run = _comoving_run(scen, cfg, runs, label=label)
        rep = comparison.check_f_generic(scen.metric, scen.weight, run.frame)
        detail.append(f"{label}: holds={rep.holds}")
        ok = ok and rep.holds == expected
    return _result("check_f_generic", ok, "; ".join(detail))


def check_schwarz(scen: Scenario, cfg: RunConfig, runs,
                  n_draws=100_000) -> CheckResult:
    rng = np.random.default_rng(cfg.seed)
    theta = rng.uniform(-10.0, 10.0, n_draws)
    fp = rng.uniform(-10.0, 10.0, n_draws)
    n = rng.uniform(2.0, 10.0, n_draws)
    m = rng.uniform(1e-6, 100.0, n_draws)
    _, _, gap = schwarz_gap(theta, fp, n, m)
    min_gap = float(np.min(gap))
    # seeded equality cases must keep both the gap and the witness residual
    # tiny; the gap is relative to the squared size of its terms, since
    # theta_eq reaches 1e8 as m nears its floor
    theta_eq = (n - 1.0) / m * fp
    _, _, gap_eq = schwarz_gap(theta_eq, fp, n, m)
    scale = np.maximum(1.0, np.abs(theta_eq) + np.abs(fp)) ** 2
    eq_res = schwarz_equality_residual(theta_eq, fp, n, m)
    ok = (min_gap >= -1e-12 and float(np.max(np.abs(gap_eq) / scale)) <= 1e-8
          and float(np.max(eq_res)) <= 1e-8)
    return _result("schwarz_gap", ok, f"min gap {min_gap:.3e} over {n_draws} draws; "
                   f"equality residual {float(np.max(eq_res)):.3e}")


def check_f_laplacian(scen: Scenario, cfg: RunConfig, runs) -> CheckResult:
    meta = scen.expectations.get("f_laplacian")
    if meta is None:
        return _result("f_laplacian_bounds", "SKIP", "no declared pairs")
    n = scen.metric.dim
    if meta["mode"] == "flat":
        m = float(meta.get("m", 2.0))
        pairs = [(np.zeros(n), -rho)
                 for rho in meta.get("rhos", (0.5, 1.0, 2.0, 5.0))]
    else:
        m = None
        pairs = [(scenarios.equator_point(n, t_apex), t_apex - rho)
                 for t_apex in meta["apex_ts"] for rho in meta["rhos"]]
    worst = np.inf
    for apex, t_q in pairs:
        q = apex.copy()
        q[0] = t_q
        rep = f_laplacian_distance(scen.metric, scen.weight, apex, q, m=m,
                                   uniqueness=scen.uniqueness,
                                   rtol=cfg.rtol, atol=cfg.atol)
        if m is None:
            worst = min(worst, rep.slack_infinite)
            continue
        closed = -(n - 1.0) / (apex[0] - t_q)
        if abs(rep.value - closed) > 1e-8 * max(1.0, abs(closed)):
            worst = -np.inf
        worst = min(worst, rep.slack_finite, rep.slack_infinite)
    return _result("f_laplacian_bounds", worst >= -1e-6,
                   f"min bound slack {worst:.3e} over {len(pairs)} pairs")


def check_mean_curvature(scen: Scenario, cfg: RunConfig, runs) -> CheckResult:
    slices = scen.expectations.get("mean_curvature", [])
    if not slices:
        return _result("mean_curvature_evolution", "SKIP",
                       "no declared hypersurface slices")
    worst = 0.0
    series = {}
    for item in slices:
        n = scen.metric.dim
        shape = (np.eye(n - 1) if item["shape"] == "identity"
                 else float(item["shape"]) * np.eye(n - 1))
        spec = NormalCongruenceSpec(
            base_point=np.asarray(item["base"], dtype=float),
            normal=np.asarray(item["normal"], dtype=float),
            shape_operator=shape, span=tuple(item["span"]),
            label=item["label"])
        rep = mean_curvature_evolution(scen.metric, scen.weight, spec,
                                       rtol=cfg.rtol, atol=cfg.atol)
        worst = max(worst, rep.max_residual)
        series[item["label"]] = _diag_series(rep.diagnostics, rep.ts,
                                             rep.residual)
    return _result("mean_curvature_evolution", worst <= cfg.residual_tol,
                   f"max residual {worst:.3e} (tol {cfg.residual_tol:g})", series)


def check_conjugate_points(scen: Scenario, cfg: RunConfig, runs) -> CheckResult:
    meta = scen.expectations.get("conjugate")
    if meta is None:
        return _result("conjugate_points", "SKIP", "no expectation declared")
    expect = meta["expect"]
    if expect == "converging":
        spec = next(s for s in scen.geodesics if s.character == "timelike")
        t1 = meta["t1"]
        k = scen.metric.dim - 1
        b = meta["theta1"] / k
        _, run = _comoving_run(scen, cfg, runs)
        traj = jacobi.integrate_jacobi(run.series, np.eye(k), b * np.eye(k),
                                       (t1, spec.span[1]),
                                       rtol=cfg.rtol, atol=cfg.atol)
        report = detect_conjugate(traj)
        ok = len(report.zeros) >= 1
        where = f"{report.first_zero():.6f}" if ok else "none"
        return _result("conjugate_points", ok,
                       f"converging congruence det-zero at {where}")
    label = meta.get("geodesic")
    spec, run = _comoving_run(scen, cfg, runs, label=label)
    report = detect_conjugate(run.trajectory)
    if expect == "none":
        ok = not report.zeros
        msg = f"{len(report.zeros)} zeros found (expected none)"
    else:  # even_zero at a known location
        at = float(meta["at"])
        ok = any(abs(z.t - at) <= 1e-6 and z.certificate == "singular_value"
                 for z in report.zeros)
        msg = (f"zeros at {[round(z.t, 8) for z in report.zeros]} "
               f"(expected even-order zero at {at:.8f})")
    return _result("conjugate_points", ok, msg)


def check_certify(scen: Scenario, cfg: RunConfig, runs) -> CheckResult:
    if "weighted_de_sitter_family" not in scen.name:
        return _result("certify_weighted_de_sitter", "SKIP",
                       "only applies to the weighted family scenario")
    n = scen.metric.dim
    cert = certify_weighted_de_sitter(n=n)
    small = certify_weighted_de_sitter(n=n, K_grid=[0.1])
    small_min = small.results[0]["min_value"]
    ok = (cert.K_star is not None and not small.results[0]["passed"]
          and abs(small_min + (n - 1.0)) <= 0.1)
    return _result("certify_weighted_de_sitter", ok,
                   f"K_star = {cert.K_star}; K=0.1 min = {small_min:.4f}; "
                   f"{len(cert.findings)} findings")


CHECKS = {
    "metric_invariants": check_metric_invariants,
    "raychaudhuri_residual": check_raychaudhuri,
    "lagrange_conservation": check_lagrange,
    "trace_identity": check_trace_identity,
    "check_timelike_convergence": check_convergence,
    "check_f_generic": check_f_generic,
    "schwarz_gap": check_schwarz,
    "f_laplacian_bounds": check_f_laplacian,
    "mean_curvature_evolution": check_mean_curvature,
    "conjugate_points": check_conjugate_points,
    "certify_weighted_de_sitter": check_certify,
}


# ---------------------------------------------------------------------------
# run + artifacts
# ---------------------------------------------------------------------------

def _write_csv(path: Path, series: dict):
    """One row per sample: floats in shortest round-trip form, mask as 0/1."""
    lines = [",".join(CSV_COLUMNS)]
    for row in zip(*(series[col] for col in CSV_COLUMNS)):
        lines.append(",".join(str(int(val)) if col == "mask" else repr(float(val))
                              for col, val in zip(CSV_COLUMNS, row)))
    path.write_text("\n".join(lines) + "\n")


def resolve_checks(scen: Scenario, requested) -> list:
    if requested == "default":
        return [c for c in scen.default_checks if c in CHECKS]
    if requested == "all":
        return sorted(CHECKS)
    return list(requested)


def run(config: RunConfig) -> int:
    """Execute the configured checks; returns the process exit code."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["lorentzlab run report",
             f"config: {json.dumps(config.echo, sort_keys=True)}"]
    try:
        scen = scenarios.scenario_from_config(config.scenario_source)
    except (KeyError, TypeError, ValueError, LorentzLabError) as exc:
        lines.append(f"FAILED scenario resolution: {exc}")
        lines.append("result: ERROR")
        (out / "report.txt").write_text("\n".join(lines) + "\n")
        return 2

    lines.append(f"scenario: {scen.name}")
    results = []
    errored = False
    runs = {}
    for name in sorted(resolve_checks(scen, config.checks)):
        try:
            res = CHECKS[name](scen, config, runs)
        except Exception as exc:
            res = CheckResult(name, "ERROR", f"{type(exc).__name__}: {exc}",
                              "runtime error")
            errored = True
        results.append(res)
        for label, series in res.series.items():
            _write_csv(out / f"{name}__{label}.csv", series)

    for res in sorted(results, key=lambda r: r.name):
        lines.append(f"check {res.name}: {res.status} - {res.summary} [{res.tag}]")
    n_pass, n_fail, n_skip = (sum(r.status == status for r in results)
                              for status in ("PASS", "FAIL", "SKIP"))
    verdict, code = (("ERROR", 2) if errored else ("FAIL", 1) if n_fail
                     else ("PASS", 0))
    if errored:
        lines.append("FAILED: runtime error in at least one check")
    lines.append(f"result: {verdict} (passed {n_pass}, failed {n_fail}, "
                 f"skipped {n_skip})")
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    return code


def load_config_source(source: str) -> str:
    """A path on disk, or the name of a packaged config."""
    path = Path(source)
    if path.exists():
        return path.read_text()
    packaged = resources.files("lorentzlab").joinpath(f"data/{source}.json")
    if packaged.is_file():
        return packaged.read_text()
    raise ConfigError(f"no config file or packaged config named {source!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lorentzlab",
        description="geodesic congruence and weighted-curvature check suites")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a JSON config")
    p_run.add_argument("config", help="path to config JSON or packaged name")
    p_run.add_argument("--out", help="override output directory")
    p_run.add_argument("--seed", type=int, help="override RNG seed")
    p_run.add_argument("--tol", type=float,
                       help="override the residual tolerance")
    sub.add_parser("list-scenarios", help="print built-in scenario names")
    sub.add_parser("list-checks", help="print check identifiers")
    args = parser.parse_args(argv)

    if args.command != "run":
        names = BUILTIN_SCENARIOS if args.command == "list-scenarios" else CHECKS
        print("\n".join(sorted(names)))
        return 0

    try:
        echo = parse_config(load_config_source(args.config)).echo
        if args.out:
            echo["out_dir"] = args.out
        if args.seed is not None:
            echo["seed"] = args.seed
        if args.tol is not None:
            echo["tolerances"]["residual"] = args.tol
        # the overridden config passes the checks of a config file
        cfg = parse_config(json.dumps(echo))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
