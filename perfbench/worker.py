"""One in-process workload run (congruence_sweep, pointwise_scan).

Usage: python perfbench/worker.py WORKLOAD SEED SECONDS TRACE TMPDIR OUT_JSON

run.py starts this in a process of its own, so the peak resident memory it
reads back belongs to the workload alone.  Untraced rounds run with the
calibration sampler of clock.py and record each operation's CPU time and
its reference time, scaled by the round's samples.  With TRACE=1 the first
half of SECONDS goes to untraced rounds, for the tracing overhead, and the
second half to traced rounds without the sampler, at least one of each; the
traced rounds' counts must agree exactly.
"""

import json
import os
import sys
from time import thread_time

import clock
import tracer
import workloads
from common import Tally, rounds

OP_SAMPLES = 5


def main(workload, seed, seconds, trace, tmp, out):
    run, make_oracles = workloads.ROUNDS[workload]
    oracles = make_oracles()
    tally = Tally()
    clk = None

    def run_round(_):
        """One round; each operation's time covers only its calls into
        lorentzlab, and `build` the scenario construction."""
        timer = workloads.Timer(clk.cpu if clk else thread_time)
        start = clk.mark() if clk else None
        times, spans = {}, {}

        def record(label, op, *args):
            before, mark = timer.total, clk.mark() if clk else None
            tally.record(label, op, *args)
            times[label] = timer.total - before
            if clk:
                spans[label] = (mark, clk.mark())

        run(timer, seed, oracles, record)
        times["build"] = timer.total - sum(times.values())
        if clk is None:
            return {"cpu": times}
        # an operation is scaled by the samples taken while it ran, or by
        # the whole round's when it took fewer than OP_SAMPLES
        round_factor = clk.factor(start)
        ref = {}
        for label, t in times.items():
            mark, end = spans.get(label, ((0, 0.0), (0, 0.0)))
            ref[label] = t * (clk.factor(mark, end) if end[0] - mark[0] >= OP_SAMPLES
                              else round_factor)
        return {"cpu": times, "ref": ref}

    result = {}
    clk = clock.Clock().start()
    if trace:
        result["untraced"] = rounds(run_round, seconds / 2)
        clk.stop()
        clk = None
        rec = tracer.Recorder()
        tracer.install(rec)
        layers = []

        def traced_round(i):
            rec.reset()
            times = run_round(i)
            path = os.path.join(tmp, f"spans-{i}.npz")
            rec.write(path)
            layers.append(tracer.aggregate(path))
            return times

        result["rounds"] = rounds(traced_round, seconds / 2,
                                  first=len(result["untraced"]))
        result["layers"] = layers
    else:
        result["rounds"] = rounds(run_round, seconds)
        clk.stop()
    result.update(attempted=tally.attempted, failed=tally.failed,
                  wrong=tally.wrong)
    with open(out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    name, seed, seconds, trace, tmp, out = sys.argv[1:7]
    main(name, int(seed), float(seconds), trace == "1", tmp, out)
