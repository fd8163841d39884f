"""lorentzlab benchmark: one command, three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md):

* congruence_sweep  run_point_congruence and its diagnostics along every
                    built-in geodesic, in one process;
* cli_packaged      the four packaged configs, each a cold `lorentzlab run`
                    in a fresh interpreter;
* pointwise_scan    curvature certificates with no ODE solve, through the
                    analytic callbacks and the finite-difference fallback.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics cpu_s, setup_s and peak_rss_mb; with --trace 1 it
holds the per-layer metrics of a traced run instead.  Times are CPU
seconds scaled to a reference core by a calibration kernel sampled inside
each measured process (clock.py).  A run makes whole
rounds of the workload's operations until the next round would end after
--seconds, at least one.  Everything the run writes goes to a temporary
directory under .bench_tmp/ in the checkout, which is removed at the end.
Only the standard library is imported here; lorentzlab runs in child
processes.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from common import Tally, median_round, rounds
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("congruence_sweep", "cli_packaged", "pointwise_scan")
SETUP_BEFORE, SETUP_AFTER = 3, 2     # timed set-up probes per run
CHILD_LIMIT_S = 170     # a child that runs longer than this is killed

# packaged config -> documented exit code
CONFIGS = {"minkowski_full": 0, "de_sitter_weighted_full": 0,
           "weighted_de_sitter": 0, "de_sitter_unweighted_convergence": 1}
FULL_CONFIGS = ("minkowski_full", "de_sitter_weighted_full")
# K grid of certify_weighted_de_sitter when none is given: 0.5, 1.0, ..., 6.0
DEFAULT_K_GRID = [0.5 * i for i in range(1, 13)]
N = 4


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd, cwd, stdout=None):
    """Run cmd to completion; return (exit code, rusage)."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=stdout)
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def probe(tmp):
    """One set-up measurement in a fresh interpreter."""
    out = Path(tmp) / "probe.json"
    with open(out, "w") as fh:
        code, _ = spawn([sys.executable, str(BENCH / "setup_probe.py")],
                           tmp, stdout=fh)
    if code != 0:
        raise SystemExit(f"set-up probe exited with {code}")
    info = json.loads(out.read_text())
    expected = os.path.realpath(ROOT / "src" / "lorentzlab" / "__init__.py")
    if info["lorentzlab_file"] != expected:
        raise SystemExit(f"lorentzlab imported from {info['lorentzlab_file']}, "
                         f"not from {expected}")
    return info


# ---------------------------------------------------------------------------
# cli_packaged: cold CLI processes, driven from here
# ---------------------------------------------------------------------------

def _check_lines(lines):
    return {line.split(":")[0][len("check "):]: line.split(": ", 1)[1]
            for line in lines if line.startswith("check ")}


def check_cli(config, code, tmp, out, reference):
    """Oracles for one packaged config run; out is relative to tmp."""
    miss = []
    if code != CONFIGS[config]:
        return [f"exit code {code}, documented {CONFIGS[config]}"]
    checks = _check_lines((Path(tmp) / out / "report.txt").read_text().splitlines())
    if config in FULL_CONFIGS:
        bad = [name for name, text in checks.items() if not text.startswith("PASS")]
        if not checks or bad:
            miss.append(f"checks not PASS: {bad or 'none reported'}")
    elif config == "de_sitter_unweighted_convergence":
        # the report prints the minimum to 6 significant digits, so that is
        # as far as this oracle can check it (pointwise_scan checks it to
        # 1e-12 in process)
        text = checks.get("check_timelike_convergence", "")
        value = text.split("min Ric_f^m(v,v) = ")[-1].split(" over")[0]
        if not text.startswith("FAIL") or value != str(-(N - 1)):
            miss.append(f"unweighted de Sitter minimum: {text!r}, expected -(n-1) = -3")
    else:
        text = checks.get("certify_weighted_de_sitter", "")
        expected = min(k for k in DEFAULT_K_GRID if 2 * k * k >= N - 1)
        found = text.split("K_star = ")[-1].split(";")[0]
        if not text.startswith("PASS") or found != repr(expected):
            miss.append(f"K_star {found!r}, expected {expected}")
    if reference is not None:
        miss += _compare_outputs(Path(tmp), out, reference)
    return miss


def _artifacts(tmp, out):
    """Written files by name; the report's out_dir echo is blanked."""
    files = {p.name: p.read_bytes() for p in (tmp / out).iterdir()}
    files["report.txt"] = files["report.txt"].replace(out.encode(), b"OUT_DIR")
    return files


def _compare_outputs(tmp, out, reference):
    """report.txt and CSVs byte-identical to the first round's, apart from
    the out_dir echo.  In a traced run the first round is the untraced one."""
    ours, theirs = _artifacts(tmp, out), _artifacts(tmp, reference)
    if sorted(ours) != sorted(theirs):
        return [f"artifact set {sorted(ours)} differs from the first round's"]
    return [f"{name} differs from the first round's"
            for name in sorted(ours) if ours[name] != theirs[name]]


def cli_packaged(args, tmp):
    # the configs keep their packaged seed: with most other seeds the
    # schwarz_gap check fails (see CHANGES.md); the benchmark's seed orders
    # the configs within each round
    order = sorted(CONFIGS)
    random.Random(args.seed).shuffle(order)
    tally = Tally()
    rss = [0]
    layers = []

    def run_round(i):
        traced = args.trace and i > 0
        times = {"cpu": {}} if traced else {"cpu": {}, "ref": {}}
        parts = []
        for config in order:
            out = f"round{i}/{config}"
            cmd = [sys.executable, str(BENCH / "cli_child.py")]
            if traced:
                spans = f"{tmp}/spans-{i}-{config}.npz"
                metrics = f"{tmp}/layers-{i}-{config}.json"
                cmd += ["trace", spans, metrics]
            else:
                sampler = f"{tmp}/clock-{i}-{config}.json"
                cmd += ["clock", sampler]
            code, usage = spawn(cmd + ["run", config, "--out", out], tmp)
            cpu = usage.ru_utime + usage.ru_stime
            if not traced:
                rss[0] = max(rss[0], usage.ru_maxrss)
                sampled = json.loads(Path(sampler).read_text())
                cpu -= sampled["spent"]
                times["ref"][config] = cpu * sampled["factor"]
            times["cpu"][config] = cpu
            reference = f"round0/{config}" if i > 0 else None
            tally.record(config, check_cli, config, code, tmp, out, reference)
            if traced:
                part = json.loads(Path(metrics).read_text())
                part["cli.artifact_bytes"] = sum(
                    p.stat().st_size for p in (Path(tmp) / out).iterdir())
                parts.append(part)
        if traced:
            layers.append(tracer.combine(parts))
        return times

    # fresh interpreters throughout, so lorentzlab.cli's module-level run
    # cache never carries work from one round into the next
    result = {}
    if args.trace:
        t0 = perf_counter()
        result["untraced"] = [run_round(0)]
        result["rounds"] = rounds(run_round, args.seconds - (perf_counter() - t0),
                                  first=1)
        result["layers"] = layers
    else:
        result["rounds"] = rounds(run_round, args.seconds)
    result.update(peak_rss_kb=rss[0], attempted=tally.attempted,
                  failed=tally.failed, wrong=tally.wrong)
    return result


def in_process(args, tmp):
    out = Path(tmp) / "worker.json"
    code, usage = spawn([sys.executable, str(BENCH / "worker.py"),
                            args.workload, str(args.seed), str(args.seconds),
                            str(int(args.trace)), tmp, str(out)], tmp)
    if code != 0:
        raise SystemExit(f"{args.workload} worker exited with {code}")
    result = json.loads(out.read_text())
    if not args.trace:
        result["peak_rss_kb"] = usage.ru_maxrss
    else:
        result["layers"] = [tracer.combine([part]) for part in result["layers"]]
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def summary(name, values, unit, what):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (f"{name}: median {statistics.median(values):.4f} {unit}, "
                f"quartiles {q1:.4f} / {q3:.4f} over {len(values)} {what}")
    return f"{name}: {values[0]:.4f} {unit} (1 {what[:-1]})"


def layer_metrics(result):
    """Counts must agree between traced rounds; times are round medians."""
    layers = result["layers"]
    consistent = all(layer[c] == layers[0][c]
                     for layer in layers for c in tracer.COUNTS)
    if not consistent:
        for c in tracer.COUNTS:
            print(f"count {c} varies between rounds: "
                  f"{[layer[c] for layer in layers]}", file=sys.stderr)
    metrics = {}
    for name, unit in tracer.METRICS:
        values = [layer[name] for layer in layers]
        value = values[0] if name in tracer.COUNTS else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    traced = median_round(result["rounds"], "cpu")
    untraced = median_round(result["untraced"], "cpu")
    overhead = traced - untraced
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"tracing overhead: {overhead:.4f} CPU s per round (traced "
          f"{traced:.4f} s over {len(result['rounds'])} rounds, untraced "
          f"{untraced:.4f} s over {len(result['untraced'])})")
    return consistent, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.seed %= 2 ** 31        # numpy takes nonnegative seeds
    # on SIGTERM, unwind: spawn() stops the running child, and the
    # temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "lorentzlab" / "__init__.py").is_file():
        print(f"no lorentzlab source tree under {ROOT}/src", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        info = probe(tmp)       # compiles bytecode and checks the import path
        # set-up probes before the workload and after it, so the median
        # samples the machine at both ends of the run
        setups = [probe(tmp)["setup_s"] for _ in range(SETUP_BEFORE)]
        run = cli_packaged if args.workload == "cli_packaged" else in_process
        result = run(args, tmp)
        setups += [probe(tmp)["setup_s"] for _ in range(SETUP_AFTER)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(f"machine: nproc {len(os.sched_getaffinity(0))}, python "
          f"{info['python']}, numpy {info['numpy']}, scipy {info['scipy']}, "
          f"BLAS threads 1 (OMP/OPENBLAS/MKL_NUM_THREADS=1)")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    key = "cpu" if args.trace else "ref"
    totals = [sum(times[key].values()) for times in result["rounds"]]
    print(summary("traced round (CPU)" if args.trace else "round (reference)",
                  totals, "s", "rounds"))
    print(summary("setup_s", setups, "s", "probes"))
    # an oracle miss makes the run incorrect; an operation that raised is
    # counted in `failed` only
    correct = result["wrong"] == 0
    if args.trace:
        consistent, metrics = layer_metrics(result)
        correct = correct and consistent
    else:
        rss_mb = result["peak_rss_kb"] / 1024.0
        cpu_s = median_round(result["rounds"])
        print(f"cpu_s: {cpu_s:.4f} s (sum over operations of each one's "
              f"median reference time across the rounds; "
              f"{median_round(result['rounds'], 'cpu'):.4f} CPU s unscaled)")
        print(f"peak_rss_mb: {rss_mb:.4f} MB (largest workload process)")
        metrics = {
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
