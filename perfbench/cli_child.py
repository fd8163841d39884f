"""One cold `lorentzlab run`, for cli_packaged.

Usage: python perfbench/cli_child.py clock OUT_JSON run CONFIG [...]
       python perfbench/cli_child.py trace SPANS_NPZ METRICS_JSON run CONFIG [...]

Calls lorentzlab.cli.main with the remaining arguments, as
`python -m lorentzlab.cli` does, in a fresh interpreter, and exits with
main's code.  In `clock` mode the calibration sampler of clock.py runs
throughout and its tally goes to OUT_JSON; in `trace` mode the tracer is
installed and the spans and their per-layer aggregate are written out.
"""

import json
import sys

if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "clock":
        import clock
        clk = clock.Clock().start()
        try:
            import lorentzlab.cli
            code = lorentzlab.cli.main(sys.argv[3:])
        finally:
            clk.stop()
            with open(sys.argv[2], "w") as fh:
                json.dump({"spent": clk.spent, "factor": clk.factor()}, fh)
    else:
        import lorentzlab.cli
        import tracer
        rec = tracer.Recorder()
        tracer.install(rec)
        code = lorentzlab.cli.main(sys.argv[4:])
        rec.write(sys.argv[2])
        with open(sys.argv[3], "w") as fh:
            json.dump(tracer.aggregate(sys.argv[2]), fh)
    sys.exit(code)
