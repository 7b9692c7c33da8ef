"""Step timing scaled by a reference loop.

The machines this benchmark was written on (2-vCPU KVM guests) change speed
by 20-35% within a second, with no steal time: a fixed interpreter loop's
time switches between two levels that far apart several times a second, the
two vCPUs independently, and 40-60 s windows still spread 18%.  No run length
averages that away.  So every timed step is bracketed by a short fixed
reference loop on the same CPU, and a SIGALRM timer runs the same loop every
SAMPLE_EVERY seconds inside the step.  The step's wall time, less the
samples' own time, is scaled by NOMINAL_S over the mean of these reference
times: the step's wall time at the reference loop's nominal speed.  The raw
wall time is kept alongside.  perfbench/run.py pins the process (and the
set-up probes it starts) to one CPU so the loop and the step share it.

The scaling also cancels any slowdown the program leaves behind in its own
process (spinning BLAS threads, a trace hook, a fragmented heap), because
it slows the reference loop too.  So the reference times are kept
(`Clock.refs`), and after each untraced pass perfbench/run.py times the
loop in this process and in a fresh process that holds only numpy and this
module, taking turns, and counts the CPU time of this process's other
threads (`contamination_pair`).  A run whose in-process loop is slower or
faster than the fresh one, or whose other threads use a share of the CPU,
beyond the wall_s bound is reported as unresolved.
"""

import contextlib
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

#: the reference loop's time at nominal speed (about its median on the
#: machine the baseline was taken on); it only sets the scale of the results
NOMINAL_S = 0.002

#: seconds between reference loops run inside a step; a sample waits for
#: the numpy call in progress to return
SAMPLE_EVERY = 0.2

#: reference loops on each side of a contamination pair
PAIR_LOOPS = 10

_REF_ARRAY = np.linspace(0.0, 1.0, 1 << 14)


def reference_loop() -> float:
    """Seconds for a fixed mix of interpreter and numpy work."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    for _ in range(13):
        total += float(np.sum(np.sqrt(_REF_ARRAY + total % 3)))
    return time.perf_counter() - start


def contamination_pair() -> dict:
    """Reference loop times in this process ("inside") and in a fresh one
    ("fresh"), and the CPU seconds other threads of this process used
    meanwhile ("other_cpu_s", of "wall_s").

    The two processes take turns, one loop each, so both see the machine
    at the same speed even though it switches within a second.  Threads
    this process left spinning on its CPU slow both sides alike, so their
    CPU time is counted apart."""
    fresh = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
    inside, outside = [], []
    wall, cpu, own = time.perf_counter(), time.process_time(), time.thread_time()
    try:
        for _ in range(PAIR_LOOPS):
            inside.append(reference_loop())
            fresh.stdin.write("\n")
            fresh.stdin.flush()
            outside.append(float(fresh.stdout.readline()))
    finally:
        fresh.stdin.close()
        fresh.wait(timeout=60)
    return {"inside": inside, "fresh": outside,
            "other_cpu_s": (time.process_time() - cpu) - (time.thread_time() - own),
            "wall_s": time.perf_counter() - wall}


class Clock:
    """Accumulates the raw and scaled wall time of the steps of one pass.

    `steps` holds each step's (start, end, factor) in time.perf_counter()
    seconds, the factor being what scales the step's time; `samples` holds
    the (start, end) of each reference loop run inside a step.  Spans
    recorded inside a step can so be scaled the same way.  `refs` holds
    every reference loop time."""

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.steps = []
        self.samples = []
        self.refs = [reference_loop()]

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        self.refs.append(reference_loop())
        self.samples.append((start, time.perf_counter()))

    def sampled_between(self, start: float, end: float) -> float:
        """Seconds of in-step reference loops that ran within [start, end]."""
        return sum(b - a for a, b in self.samples if start <= a and b <= end)

    @contextlib.contextmanager
    def step(self):
        first_ref = len(self.refs) - 1
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.refs.append(reference_loop())
            factor = NOMINAL_S / statistics.fmean(self.refs[first_ref:])
            seconds = end - start - self.sampled_between(start, end)
            self.steps.append((start, end, factor))
            self.raw += seconds
            self.scaled += seconds * factor


if __name__ == "__main__":
    # the fresh side of contamination_pair: one loop per line read
    reference_loop()  # the first loop of a process runs cold
    for _line in sys.stdin:
        print(reference_loop(), flush=True)
