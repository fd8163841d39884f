"""Reference-speed clock: CPU time scaled by a calibration kernel that runs
inside the measured process, every PERIOD_S of its CPU time.

On a host shared with other tenants the speed of a vCPU changes with their
load: the same work can take 1.8 times longer in one second than in the
next.  Wall time also counts the time the host runs other tenants in place
of this one.  So an operation is timed in CPU time, which leaves that out,
and is scaled by REF_KERNEL_S over the mean time of a fixed kernel sampled
while the operation ran: when the vCPU slows down, the operation and the
kernel both take longer (in one measurement 1.8 and 1.6 times), and the
scaled time stays nearly put.  The kernel is the benchmark's own code, the
same kind of work as lorentzlab's (small numpy arrays, einsum, 4x4
inverses and Python float arithmetic), and does not change with the
program.

A SIGPROF interval timer runs the kernel; the handler's own CPU time is
taken out of every reading, so an operation's time is the program's alone.
Readings use the thread's CPU clock: while a process-wide CPU timer is
armed, Linux updates the process CPU clock only at scheduler ticks.  The
measured processes run lorentzlab in one thread (one BLAS thread).
"""

import math
import signal
from time import thread_time

import numpy as np

PERIOD_S = 0.012        # CPU seconds between kernel samples
# usual mean kernel CPU time inside the workloads on the reference machine,
# a 2.1 GHz Xeon vCPU; reference seconds read about as CPU seconds there
REF_KERNEL_S = 0.51e-3

_G = np.diag([-1.0, 1.3, 0.8, 1.1]) + 0.05 * (np.ones((4, 4)) - np.eye(4))
_DG = np.sin(np.arange(64.0)).reshape(4, 4, 4)


def kernel(reps=10):
    """Fixed work: Christoffel-style contractions of a 4x4 metric and an
    RK4 loop in Python floats."""
    acc = 0.0
    for r in range(reps):
        ginv = np.linalg.inv(_G + 0.01 * r * np.eye(4))
        bracket = (np.einsum("bdc->dbc", _DG) + np.einsum("cdb->dbc", _DG)
                   - _DG)
        gamma = 0.5 * np.einsum("ad,dbc->abc", ginv, bracket)
        quad = np.einsum("ace,edb->abcd", gamma, gamma)
        acc += float(quad[0, 1, 2, 3])
        y, v, h = 1.0, 0.0, 0.01
        for _ in range(12):
            k1, l1 = v, -math.sin(y)
            k2, l2 = v + 0.5 * h * l1, -math.sin(y + 0.5 * h * k1)
            k3, l3 = v + 0.5 * h * l2, -math.sin(y + 0.5 * h * k2)
            k4, l4 = v + h * l3, -math.sin(y + h * k3)
            y += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            v += h * (l1 + 2 * l2 + 2 * l3 + l4) / 6.0
        acc += y
    return acc


class Clock:
    """The calibration sampler, and this thread's CPU time net of it."""

    def __init__(self):
        self.spent = 0.0        # CPU seconds in the handler
        self.samples = 0
        self.kernel_s = 0.0     # CPU seconds in the kernel

    def _sample(self, signum, frame):
        t0 = thread_time()
        kernel()
        t1 = thread_time()
        self.samples += 1
        self.kernel_s += t1 - t0
        self.spent += thread_time() - t0

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)   # a late one is dropped

    def cpu(self):
        """CPU seconds of this thread, net of the sampler."""
        return thread_time() - self.spent

    def mark(self):
        return self.samples, self.kernel_s

    def factor(self, mark=(0, 0.0), end=None):
        """Reference seconds per CPU second over the samples taken between
        two marks (by default since mark): REF_KERNEL_S over their mean
        kernel time."""
        end = end or self.mark()
        samples, kernel_s = end[0] - mark[0], end[1] - mark[1]
        if not samples:
            raise RuntimeError("no calibration sample taken")
        return REF_KERNEL_S * samples / kernel_s
