"""Pieces shared by run.py and worker.py; standard library only."""

import statistics
import sys
import traceback
from time import perf_counter


class Tally:
    """Operations attempted and failed.  An operation fails when it raises
    or misses one of its oracles; the workload then goes on.  A miss also
    counts as wrong: the program gave an output its oracle rejects."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, label, op, *args):
        self.attempted += 1
        try:
            miss = op(*args)
        except Exception:
            miss = None
            print(f"FAILED {label}: {traceback.format_exc()}", file=sys.stderr)
        if miss is None or miss:
            self.failed += 1
        if miss:
            self.wrong += 1
            print(f"FAILED {label}: " + "; ".join(miss), file=sys.stderr)


def rounds(run_round, seconds, first=0):
    """Run whole rounds of the workload's operations, at least one, until
    the next would end after `seconds` of wall time; return each round's
    record, {"cpu": {operation: CPU seconds}} and, for rounds timed with
    the calibration sampler, "ref": {operation: reference seconds}."""
    times = []
    t0 = perf_counter()
    while True:
        r0 = perf_counter()
        times.append(run_round(first + len(times)))
        now = perf_counter()
        if now - t0 + (now - r0) > seconds:
            return times


def median_round(times, key="ref"):
    """Time of a typical round: the sum over operations of each
    operation's median time across the rounds."""
    ops = times[0][key]
    return sum(statistics.median(t[key][op] for t in times) for op in ops)
