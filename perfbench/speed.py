"""The machine's speed while a pass runs, for scaling its times.

On a shared machine the same pass can take 30% longer from one minute to
the next, with nothing changed but the load from other tenants.  A fixed
pure-Python loop is timed every PERIOD_S seconds of wall time (from a
SIGALRM handler, so in the pass's own thread and process), and each sample
gives the speed REF_S / duration.  Times are reported net of the samples
and multiplied by the mean speed: the seconds the work would take on the
machine at its reference speed.  The loop touches only a few small objects,
so the program's own state hardly affects it.
"""

import signal
import statistics
import time

PERIOD_S = 0.1
REF_LOOPS = 20_000
# the loop's duration on an idle core of the baseline machine (Intel Xeon,
# 2 vCPUs, Python 3.11.7); only ratios between runs matter
REF_S = 0.0011


def sample():
    """Seconds the reference loop takes now."""
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t


class SpeedProbe:
    """Context manager that samples the speed while its block runs."""

    def __init__(self):
        self.samples = []   # (time.perf_counter() at start, seconds)

    def _on_alarm(self, signum, frame):
        self.samples.append((time.perf_counter(), sample()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append((time.perf_counter(), sample()))
        return False

    def scaled(self, start, end):
        """Seconds of work in [start, end]: the interval less the samples
        taken in it, times the mean speed over it widened by one period on
        each side, so that a short interval gets its neighbours."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        near = [REF_S / d for t, d in self.samples
                if start - PERIOD_S <= t <= end + PERIOD_S]
        if not near:
            near = [REF_S / d for _, d in self.samples]
        return (end - start - inside) * statistics.fmean(near)
