"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from lorentzlab import (INFINITE_M, BakryEmeryParams, asymptotic_lagrange,
                        boundary_jacobi, certify_weighted_de_sitter,
                        constant_scalar, d_s_integral_formula,
                        f_laplacian_distance, hessian_scalar, integrate_jacobi,
                        kinematics, lagrange_defect, raychaudhuri_residual,
                        ricci, run_point_congruence, run_synthetic_congruence,
                        schwarz_equality_residual, schwarz_gap, sinh_squared_f,
                        trace_identity_check, verify_interval_finite_m,
                        verify_interval_infinite, verify_null_focal_bound)
from lorentzlab.congruence import parallel_frame
from lorentzlab.cli import parse_config, run
from lorentzlab.scenarios import equator_point, linear_time_f

I3 = np.eye(3)
Z3 = np.zeros((3, 3))
TIGHT = {"rtol": 1e-12, "atol": 1e-14}


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_flat_kinematics(mink4):
    t_start = time.perf_counter()
    a = 0.8
    run_ = run_point_congruence(mink4.metric, np.zeros(4), [1, 0, 0, 0],
                                (0.0, 10.0), f=linear_time_f(a),
                                diag_ts=np.linspace(0.2, 10.0, 981))
    diag = run_.diagnostics
    expected = 3.0 / diag.ts - a
    # theta_f crosses zero at t = 3.75; measure relative to the magnitude of
    # its terms so the crossing itself cannot blow up the quotient
    scale = np.abs(3.0 / diag.ts) + a
    rel = np.max(np.abs(diag.theta_f - expected) / scale)
    elapsed = time.perf_counter() - t_start
    _verdict(1, rel <= 1e-6 and elapsed < 1.0,
             f"flat expansion rel err {rel:.2e} (<=1e-6), {elapsed:.2f}s (<1s)")


def test_criterion_02_raychaudhuri_residuals(mink4, ds4):
    t_start = time.perf_counter()
    worst = {}

    traj, diag = run_synthetic_congruence(Z3, 3, Z3, I3, (0.0, 10.0),
                                          diag_ts=np.linspace(1.0, 10.0, 901))
    worst["minkowski"] = raychaudhuri_residual(
        diag, np.zeros(901), INFINITE_M).max_residual

    for name, Rval, span, window in (("R=+I", 1.0, (0.0, 3.0), (0.4, 2.9)),
                                     ("R=-I", -1.0, (0.0, 3.0), (0.4, 3.0))):
        ts = np.linspace(window[0], window[1], 1001)
        traj, diag = run_synthetic_congruence(Rval * I3, 3, Z3, I3, span,
                                              diag_ts=ts)
        ric = np.full(len(ts), 3.0 * Rval)
        worst[name] = raychaudhuri_residual(diag, ric, 2.0).max_residual

    spec = ds4.geodesic("comoving")
    for name, f in (("de_sitter f=0", constant_scalar(0.0)),
                    ("de_sitter f=sinh^2(2t)", sinh_squared_f(2.0))):
        run_ = run_point_congruence(ds4.metric, spec.p0, spec.v0, spec.span,
                                    f=f, diag_ts=np.linspace(-0.5, 2.0, 1601))
        params = BakryEmeryParams(m=INFINITE_M)
        ric = run_.ric_fm_series(ds4.metric, f, params)
        worst[name] = raychaudhuri_residual(run_.diagnostics, ric,
                                            INFINITE_M).max_residual

    elapsed = time.perf_counter() - t_start
    peak = max(worst.values())
    _verdict(2, peak <= 5e-5 and elapsed < 10.0,
             f"max residual {peak:.2e} over {sorted(worst)} (<=5e-5), "
             f"{elapsed:.1f}s (<10s)")


def test_criterion_03_conjugate_interval_finite_m():
    traj = integrate_jacobi(I3, Z3, I3, (0.0, 6.5), **TIGHT)
    diag = kinematics(traj, ts=np.linspace(0.5, 6.5, 1201), n=4)
    theta1 = diag.theta_f_at(2.0)
    ok = abs(theta1 - 3.0 / math.tan(2.0)) < 1e-8
    details = [f"theta1={theta1:.6f}"]
    for m in (1, 2, 3):
        rep = verify_interval_finite_m(traj, diag, 2.0, 4, float(m))
        zero = rep.first_zero()
        ok = ok and rep.verdict == "contained" and abs(zero - math.pi) <= 1e-6
        details.append(f"m={m}: zero at {zero:.8f} in "
                       f"[{rep.predicted_interval[0]:.3f},"
                       f" {rep.predicted_interval[1]:.3f}]")
    _verdict(3, ok, "; ".join(details))


def test_criterion_04_conjugate_interval_infinite():
    traj = integrate_jacobi(I3, Z3, I3, (0.0, 6.5), **TIGHT)
    diag = kinematics(traj, ts=np.linspace(0.5, 6.5, 1201), n=4)
    rep0 = verify_interval_infinite(traj, diag, 2.0, 4, 0.0)
    c0 = 0.9
    rep_c = verify_interval_infinite(traj, diag, 2.0, 4, c0,
                                     f_values=lambda t: c0)
    ok = (rep0.verdict == "contained" and rep_c.verdict == "contained"
          and rep0.predicted_interval == pytest.approx(rep_c.predicted_interval)
          and abs(rep0.first_zero() - math.pi) <= 1e-6)
    _verdict(4, ok,
             f"zero at {rep0.first_zero():.8f}; interval "
             f"[{rep0.predicted_interval[0]:.4f}, {rep0.predicted_interval[1]:.4f}] "
             f"(sigma from measured theta_f, constant-weight case identical)")


def test_criterion_05_boundary_value_formula(frw4):
    worst_mismatch = 0.0
    worst_endpoint = 0.0
    for R_source, s in ((Z3, 4.0), (-I3, 3.0), (I3, 2.0)):
        A = integrate_jacobi(R_source, Z3, I3, (0.0, s), **TIGHT)
        D = boundary_jacobi(R_source, 0.0, s, **TIGHT)
        for t in np.linspace(0.05, s - 0.02, 9):
            diff = d_s_integral_formula(A, t, s) - D.A(t)
            worst_mismatch = max(worst_mismatch, float(np.max(np.abs(diff))))
        worst_endpoint = max(worst_endpoint, float(np.max(np.abs(
            D.Aprime(s) + np.linalg.inv(A.A(s).T)))))

    # metric-derived curvature series of the toy cosmology
    spec = frw4.geodesic("comoving")
    run_ = run_point_congruence(frw4.metric, spec.p0, spec.v0, spec.span,
                                f=frw4.weight, jacobi_span=(0.0, 1.2),
                                **TIGHT)
    s = 1.1
    A = run_.trajectory
    D = boundary_jacobi(run_.series, 0.0, s, **TIGHT)
    for t in np.linspace(0.05, s - 0.02, 7):
        diff = d_s_integral_formula(A, t, s) - D.A(t)
        worst_mismatch = max(worst_mismatch, float(np.max(np.abs(diff))))
    worst_endpoint = max(worst_endpoint, float(np.max(np.abs(
        D.Aprime(s) + np.linalg.inv(A.A(s).T)))))
    _verdict(5, worst_mismatch <= 1e-6 and worst_endpoint <= 1e-6,
             f"quadrature vs shooting {worst_mismatch:.2e} (<=1e-6), "
             f"endpoint identity {worst_endpoint:.2e} (<=1e-6)")


def test_criterion_06_asymptotic_limit():
    rep = asymptotic_lagrange(-I3, 0.0, [5.0, 10.0, 20.0, 40.0], [1.0])
    err = float(np.max(np.abs(rep.limit[0] - math.exp(-1.0) * I3)))
    decaying = all(b < a for a, b in zip(rep.cauchy[:-1], rep.cauchy[1:]))
    _verdict(6, err <= 1e-5 and decaying and not rep.nonconvergent,
             f"D(1) error {err:.2e} (<=1e-5); Cauchy decay "
             + " > ".join(f"{c:.2e}" for c in rep.cauchy))


def test_criterion_07_lagrange_conservation(mink4, ds4, ds4w, static4, frw4):
    worst = 0.0
    for scen in (mink4, ds4, ds4w, static4, frw4):
        spec = next(s for s in scen.geodesics if s.character == "timelike")
        run_ = run_point_congruence(scen.metric, spec.p0, spec.v0, spec.span,
                                    f=scen.weight, **TIGHT)
        traj = run_.trajectory
        defects = [lagrange_defect(traj, t)
                   for t in np.linspace(traj.t0, traj.t1, 61)]
        worst = max(worst, max(defects))
    rng = np.random.default_rng(42)
    traj = integrate_jacobi(I3, I3, rng.normal(size=(3, 3)), (0.0, 3.0), **TIGHT)
    defects = [lagrange_defect(traj, t) for t in np.linspace(0.0, 3.0, 61)]
    drift = max(defects) - min(defects)
    _verdict(7, worst <= 1e-9 and drift <= 1e-9,
             f"max defect {worst:.2e} (<=1e-9) on from-a-point runs; "
             f"non-Lagrange drift {drift:.2e} (<=1e-9, defect {min(defects):.3f})")


def test_criterion_08_null_focal_bound():
    rep = verify_null_focal_bound(np.zeros((2, 2)), -2.0, 0.0, 4)
    zero = rep.first_zero()
    lo, hi = rep.predicted_interval
    ok = (abs(zero - 1.0) <= 1e-6 and rep.verdict == "contained"
          and lo <= zero <= hi and hi == pytest.approx(1.0 + 1e-6))
    _verdict(8, ok, f"blow-up at {zero:.8f} inside [0, (n-2)/|theta1|] = [0, 1]")


def test_criterion_09_f_laplacian_comparison(mink4, ds4w):
    worst_closed = 0.0
    worst_slack = 0.0
    for rho in (0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0):
        q = np.zeros(4)
        q[0] = -rho
        rep = f_laplacian_distance(mink4.metric, mink4.weight, np.zeros(4), q,
                                   m=2.0)
        closed = -3.0 / rho
        worst_closed = max(worst_closed,
                           abs(rep.value - closed) / max(1.0, abs(closed)))
        worst_slack = max(worst_slack, abs(rep.slack_finite - 2.0 / rho))
    ok = worst_closed <= 1e-8 and worst_slack <= 1e-6

    # weighted bound on 20 comoving pairs with the certified weight (K = 2)
    min_slack = np.inf
    count = 0
    for t_apex in (0.5, 1.0, 1.5, 2.0):
        for rho in (0.4, 0.8, 1.2, 1.6, 2.0):
            apex = equator_point(4, t_apex)
            q = apex.copy()
            q[0] = t_apex - rho
            rep = f_laplacian_distance(ds4w.metric, ds4w.weight, apex, q,
                                       uniqueness=ds4w.uniqueness)
            min_slack = min(min_slack, rep.slack_infinite)
            count += 1
    ok = ok and count == 20 and min_slack >= -1e-6
    _verdict(9, ok,
             f"flat closed-form rel err {worst_closed:.2e} (<=1e-8), "
             f"finite-m slack err {worst_slack:.2e} (<=1e-6); weighted bound "
             f"min slack {min_slack:.3f} over {count} pairs (>=-1e-6)")


def test_criterion_10_weighted_de_sitter_example(ds4):
    worst_hess = 0.0
    for K in (1.0, 2.0, 4.0):
        f = sinh_squared_f(K)
        for t in np.linspace(-3.0, 3.0, 25):
            p = equator_point(4, t)
            display = 4.0 * K ** 2 * math.cosh(K * t) ** 2 - 2.0 * K ** 2
            err = abs(hessian_scalar(ds4.metric, f, p)[0, 0] - display) \
                / max(1.0, abs(display))
            worst_hess = max(worst_hess, err)

    worst_einstein = 0.0
    for t in (-2.0, -0.7, 0.0, 1.3, 2.8):
        p = equator_point(4, t, azimuth=0.8)
        G = ds4.metric.at(p)
        worst_einstein = max(worst_einstein, float(np.max(np.abs(
            ricci(ds4.metric, p) - 3.0 * G))))

    cert = certify_weighted_de_sitter(4)
    small = certify_weighted_de_sitter(4, K_grid=[0.1]).results[0]
    ok = (worst_hess <= 1e-6 and worst_einstein <= 1e-6
          and cert.K_star is not None and math.isfinite(cert.K_star)
          and not small["passed"] and abs(small["min_value"] + 3.0) <= 0.1)
    _verdict(10, ok,
             f"Hess rel err {worst_hess:.2e} (<=1e-6); |Ric-3g| "
             f"{worst_einstein:.2e} (<=1e-6); K*={cert.K_star}; "
             f"K=0.1 min {small['min_value']:.3f} (within 0.1 of -3)")


def test_criterion_11_schwarz_sweep():
    rng = np.random.default_rng(20240)
    N = 1_000_000
    theta = rng.uniform(-10.0, 10.0, N)
    fp = rng.uniform(-10.0, 10.0, N)
    n = rng.uniform(2.0, 10.0, N)
    m = rng.uniform(1e-9, 100.0, N)
    _, _, gap = schwarz_gap(theta, fp, n, m)
    min_gap = float(np.min(gap))

    # equality witnesses: both signs of the characterization
    sign = rng.choice([-1.0, 1.0], N // 10)
    fp_eq = fp[: N // 10]
    n_eq, m_eq = n[: N // 10], m[: N // 10]
    theta_eq = sign * (n_eq - 1.0) / m_eq * fp_eq
    _, _, gap_eq = schwarz_gap(theta_eq, fp_eq, n_eq, m_eq)
    scale = np.maximum(1.0, np.abs(theta_eq) + np.abs(fp_eq)) ** 2
    gap_w = float(np.max(np.abs(gap_eq) / scale))
    char_w = float(np.max(schwarz_equality_residual(theta_eq, fp_eq, n_eq, m_eq)))
    ok = min_gap >= -1e-12 and gap_w <= 1e-8 and char_w <= 1e-8
    _verdict(11, ok,
             f"min gap {min_gap:.2e} over 1e6 draws (>=-1e-12); equality "
             f"witnesses: gap {gap_w:.2e}, characterization {char_w:.2e} (<=1e-8)")


def test_criterion_12_trace_identity(mink4, ds4, ds4w, static4, frw4):
    worst = 0.0
    cases = [
        (mink4, linear_time_f(1.0), BakryEmeryParams(m=2.0)),
        (ds4, ds4.weight, ds4.params),
        (ds4w, ds4w.weight, BakryEmeryParams(m=INFINITE_M)),
        (ds4w, ds4w.weight, BakryEmeryParams(m=3.0)),
        (static4, static4.weight, static4.params),
        (frw4, frw4.weight, frw4.params),
    ]
    for scen, f, params in cases:
        spec = next(s for s in scen.geodesics if s.character == "timelike")
        frame = parallel_frame(scen.metric, spec.p0, spec.v0, spec.span)
        a, b = spec.span
        for t in np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), 5):
            worst = max(worst, trace_identity_check(f, params, frame, t))
    _verdict(12, worst <= 1e-6,
             f"max trace-identity residual {worst:.2e} over 6 scenario/weight "
             f"combinations (<=1e-6)")


def test_criterion_13_cli_determinism_and_runtime(tmp_path):
    t_start = time.perf_counter()
    suite = [
        ("minkowski4", "default"),
        ("de_sitter4_weighted", "default"),
        ("weighted_de_sitter_family4", ["certify_weighted_de_sitter"]),
    ]
    codes = []
    snapshots = []
    for tag in ("first", "second"):
        files = {}
        for scenario, checks in suite:
            out = tmp_path / tag / scenario
            cfg = parse_config(json.dumps(
                {"scenario": scenario, "checks": checks, "seed": 20240,
                 "out_dir": str(out)}))
            codes.append(run(cfg))
            for f in sorted(out.iterdir()):
                key = f"{scenario}/{f.name}"
                body = f.read_bytes()
                if f.name == "report.txt":
                    body = body.split(b"\n", 2)[2]  # drop the out_dir echo
                files[key] = body
        snapshots.append(files)
    elapsed = time.perf_counter() - t_start
    identical = snapshots[0] == snapshots[1]
    ok = all(c == 0 for c in codes) and identical and elapsed < 300.0
    _verdict(13, ok,
             f"two full runs: exit codes {sorted(set(codes))}, byte-identical="
             f"{identical}, {elapsed:.0f}s (<300s)")
