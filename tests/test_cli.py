import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzlab import cli
from lorentzlab.cli import (CHECKS, CSV_COLUMNS, load_config_source, main,
                            parse_config, run)
from lorentzlab.errors import ConfigError, ParseError, ValidationError


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config('{"scenario": "minkowski4", '
                       '"checks": ["raychaudhuri_residual"]}')
    assert cfg.scenario_source == "minkowski4"
    assert cfg.checks == ["raychaudhuri_residual"]
    assert cfg.seed == 20240
    assert cfg.rtol == 1e-9
    assert cfg.echo["tolerances"]["residual"] == 5e-5


def test_parse_rejects_unknown_check():
    with pytest.raises(ValidationError) as err:
        parse_config('{"scenario": "de_sitter4", "checks": ["nosuch"]}')
    assert any("nosuch" in v for v in err.value.violations)


def test_parse_collects_all_violations():
    with pytest.raises(ValidationError) as err:
        parse_config('{"scenario": "nowhere", "checks": ["nosuch"], '
                     '"seed": -1, "tolerances": {"rtol": 0.0}}')
    text = " ".join(err.value.violations)
    for needle in ("nowhere", "nosuch", "seed", "rtol"):
        assert needle in text
    assert len(err.value.violations) == 4


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as err:
        parse_config("{not json")
    assert "line 1" in str(err.value)


def test_run_minkowski_subset(tmp_path):
    cfg = parse_config(json.dumps({
        "scenario": "minkowski4",
        "checks": ["raychaudhuri_residual", "trace_identity", "schwarz_gap"],
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(cfg) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "result: PASS" in report
    assert "raychaudhuri_residual: PASS" in report
    # every check line carries its identity/inequality tag
    for line in report.splitlines():
        if line.startswith("check "):
            assert line.rstrip().endswith("]") and "[" in line


def test_flat_laplacian_slack_prints_zero_not_rounding(tmp_path):
    # the least Minkowski slack is 0 in closed form; the solve's rounding is not
    # reported as a negative slack
    cfg = parse_config(json.dumps({
        "scenario": "minkowski4", "checks": ["f_laplacian_bounds"],
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(cfg) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "min bound slack 0.000e+00 over 4 pairs" in report


def test_run_documented_expected_failure(tmp_path):
    # unweighted de Sitter violates the convergence condition: exit 1
    cfg = parse_config(json.dumps({
        "scenario": "de_sitter4",
        "checks": ["check_timelike_convergence"],
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(cfg) == 1
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "check_timelike_convergence: FAIL" in report
    assert "min Ric_f^m(v,v) = -3" in report


def test_run_unknown_scenario_is_config_error(tmp_path):
    cfg = parse_config(json.dumps({
        "scenario": {"builtin": "not_a_scenario"},
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(cfg) == 2
    assert "ERROR" in (tmp_path / "out" / "report.txt").read_text()


@pytest.mark.parametrize("conf, code", [
    ({"scenario": "minkowski4", "checks": ["schwarz_gap"]}, 0),
    ({"scenario": "de_sitter4", "checks": ["check_timelike_convergence"]}, 1),
    ({"scenario": "minkowski4", "checks": ["nosuch"]}, 2),
], ids=["passing", "failing", "bad"])
def test_python_m_lorentzlab_exits_as_main(tmp_path, conf, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(conf))
    assert main(["run", str(path), "--out", str(tmp_path / "main")]) == code
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "lorentzlab", "run", str(path),
                          "--out", str(tmp_path / "module")], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == code, out.stderr
    if code != 2:  # the reports differ only in the echoed out_dir
        module, main_ = ((tmp_path / d / "report.txt").read_text().splitlines()
                         for d in ("module", "main"))
        assert module[2:] == main_[2:]


def test_csv_schema_and_determinism(tmp_path):
    conf = {
        "scenario": "minkowski4",
        "checks": ["raychaudhuri_residual"],
        "seed": 777,
    }
    outputs = []
    for tag in ("a", "b"):
        conf["out_dir"] = str(tmp_path / tag)
        assert run(parse_config(json.dumps(conf))) == 0
        files = sorted(Path(conf["out_dir"]).iterdir())
        outputs.append({f.name: f.read_bytes() for f in files})
    # identical file sets, byte-identical contents (report included)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        if name.endswith("report.txt"):
            # out_dir appears in the echo; compare everything after it
            a = outputs[0][name].split(b"\n", 2)[2]
            b = outputs[1][name].split(b"\n", 2)[2]
            assert a == b
        else:
            assert outputs[0][name] == outputs[1][name]
    csv_name = "raychaudhuri_residual__comoving.csv"
    assert csv_name in outputs[0]
    header = outputs[0][csv_name].split(b"\n", 1)[0].decode()
    assert header == ",".join(CSV_COLUMNS)


def test_packaged_golden_config_runs_end_to_end(tmp_path):
    text = load_config_source("weighted_de_sitter")
    cfg = parse_config(text)
    cfg.out_dir = str(tmp_path / "cert")
    assert run(cfg) == 0
    report = (tmp_path / "cert" / "report.txt").read_text()
    assert "certify_weighted_de_sitter: PASS" in report
    assert "K_star = 1.5" in report


def test_all_packaged_configs_parse():
    for name in ("minkowski_full", "de_sitter_weighted_full",
                 "weighted_de_sitter", "de_sitter_unweighted_convergence"):
        cfg = parse_config(load_config_source(name))
        assert cfg.seed == 20240


def test_main_listing_commands(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "minkowski4" in out and "de_sitter4" in out
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for name in CHECKS:
        assert name in out


def test_main_run_with_overrides(tmp_path, capsys):
    code = main(["run", "de_sitter_unweighted_convergence",
                 "--out", str(tmp_path / "o"), "--seed", "11", "--tol", "1e-4"])
    assert code == 1  # documented expected failure
    report = (tmp_path / "o" / "report.txt").read_text()
    assert '"seed": 11' in report and "0.0001" in report
    assert main(["run", "no_such_config", "--out", str(tmp_path)]) == 2


def test_each_run_builds_its_own_congruences(tmp_path, monkeypatch):
    built = []
    build = cli.run_point_congruence

    def counting(*args, **kwargs):
        built.append(args[:3])
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "run_point_congruence", counting)
    cfg = parse_config(json.dumps({
        "scenario": "minkowski4", "out_dir": str(tmp_path),
        "checks": ["raychaudhuri_residual", "lagrange_conservation"]}))
    assert run(cfg) == 0
    assert len(built) == 1  # shared by the checks of one run
    assert run(cfg) == 0
    assert len(built) == 2


def _schwarz(seed):
    cfg = parse_config(json.dumps({"scenario": "minkowski4", "seed": seed}))
    return CHECKS["schwarz_gap"](None, cfg, {})


def test_schwarz_check_passes_for_every_seed():
    # equality cases with m near its floor make theta ~ 1e8; the gap is
    # judged relative to the squared size of its terms
    failing = [seed for seed in range(100) if _schwarz(seed).status != "PASS"]
    assert failing == []


def test_schwarz_check_fails_for_wrong_denominator(monkeypatch):
    def wrong_gap(theta, fprime, n, m):
        lhs = theta ** 2 / (n - 1.0) + fprime ** 2 / m
        rhs = (np.abs(theta) + np.abs(fprime)) ** 2 / (n + m)
        return lhs, rhs, lhs - rhs

    monkeypatch.setattr(cli, "schwarz_gap", wrong_gap)
    assert _schwarz(20240).status == "FAIL"


@pytest.mark.parametrize("extra, needle", [
    ({"samples": {"n_timelike": "x"}}, "n_timelike"),
    ({"samples": {"n_timelike": 2.5}}, "n_timelike"),
    ({"seed": True}, "seed"),
    pytest.param({"tolerances": 5}, "'tolerances' must be an object",
                 id="tolerances_not_object"),
    pytest.param({"samples": "x"}, "'samples' must be an object",
                 id="samples_not_object"),
    pytest.param({"checks": [["a"]]}, "unknown check identifier ['a']",
                 id="check_not_string"),
    pytest.param({"tolerances": {"rtol": 1e300}},
                 "'rtol' must be positive and below 1", id="rtol_above_1"),
    pytest.param({"tolerances": {"rtol": 1e-16}},
                 "'rtol' must be at least the integrator's floor",
                 id="rtol_below_the_integrator_floor"),
    pytest.param({"samples": {"n_timelike": 10 ** 9}},
                 "n_timelike must be an integer in", id="n_timelike_above_bound"),
])
def test_mistyped_config_values_exit_2_at_parse_time(tmp_path, capsys, extra,
                                                     needle):
    conf = {"scenario": "minkowski4", "checks": ["schwarz_gap"], **extra}
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(conf))
    assert any(needle in v for v in err.value.violations)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(conf))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert needle in capsys.readouterr().err


def test_scenario_construction_error_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": {"builtin": "de_sitter4", "m": -1},
                                "checks": ["schwarz_gap"]}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "FAILED scenario resolution: m must be a positive real" in report
    assert report.endswith("result: ERROR\n")


def test_config_bounds_and_unknown_fields():
    cfg = parse_config(json.dumps({
        "scenario": "minkowski4", "tolerances": {"rtol": 0.5},
        "samples": {"n_timelike": cli.MAX_TIMELIKE}}))
    assert (cfg.rtol, cfg.n_timelike) == (0.5, cli.MAX_TIMELIKE)
    for bad in ({"tolerances": {"rtol": 1}}, {"tolerances": {"atol": 1e400}},
                {"tolerances": {"rtl": 1e-9}}, {"samples": {"n": 3}},
                {"out_dir": 3}):
        with pytest.raises(ValidationError):
            parse_config(json.dumps({"scenario": "minkowski4", **bad}))


@pytest.mark.parametrize("scenario, needle", [
    ({"builtin": "de_sitter4", "Q": 1}, "unknown scenario field(s) ['Q']"),
    ({"builtin": "de_sitter4", "weight": {"type": "sinh_squared", "Q": 1}},
     "unknown sinh_squared weight parameter(s) ['Q']"),
    ({"builtin": "de_sitter4", "weight": {"type": "zero", "c": 1.0}},
     "unknown zero weight parameter(s) ['c']"),
], ids=["scenario_field", "weight_parameter", "zero_weight_parameter"])
def test_unknown_scenario_fields_exit_2(tmp_path, scenario, needle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": scenario, "checks": ["schwarz_gap"]}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    report = (tmp_path / "o" / "report.txt").read_text()
    assert f"FAILED scenario resolution: {needle}" in report
    assert report.endswith("result: ERROR\n")


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"scenario": "minkowski4", "seed": ' + "1" * 5000 + "}",
], ids=["deeper_than_the_decoder_goes", "integer_of_5000_digits"])
def test_json_the_decoder_refuses_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_config(text)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=12)


def _near(keys):
    """Objects whose fields are mostly the schema's own."""
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=3), _json
                           | st.sampled_from([1e-9, 0.5, 1, 16, "default"]),
                           max_size=len(keys) + 1)


_config = _json | st.fixed_dictionaries({}, optional={
    "scenario": _json | st.sampled_from(sorted(cli.BUILTIN_SCENARIOS)),
    "checks": _json | st.lists(st.sampled_from(sorted(CHECKS)) | _json),
    "seed": _json, "out_dir": _json,
    "tolerances": _json | _near(sorted(cli.DEFAULTS["tolerances"])),
    "samples": _json | _near(sorted(cli.DEFAULTS["samples"]))})


@settings(max_examples=300, deadline=None)
@given(_config)
def test_parse_config_returns_a_config_or_raises_config_error(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    assert isinstance(cfg, cli.RunConfig)
    assert 0 < cfg.rtol < 1 and 1 <= cfg.n_timelike <= cli.MAX_TIMELIKE
    json.dumps(cfg.echo)


@pytest.mark.parametrize("flag, value, needle", [
    ("--tol", "-1", "tolerance 'residual' must be positive"),
    ("--tol", "nan", "tolerance 'residual' must be positive"),
    ("--tol", "inf", "tolerance 'residual' must be positive"),
    ("--seed", "-5", "seed must be a nonnegative integer"),
])
def test_overrides_pass_the_config_checks(tmp_path, capsys, flag, value,
                                          needle):
    path = tmp_path / "two_checks.json"
    path.write_text(json.dumps({"scenario": "minkowski4", "checks": [
        "raychaudhuri_residual", "schwarz_gap"]}))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and needle in err
    assert not out.exists()
