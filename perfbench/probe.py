"""One set-up sample: cold import of numpy and tubelab in this fresh process
plus building a workload's inputs from its seed.

    python3 perfbench/probe.py <workload> <seed> <workdir>

Prints the elapsed seconds.  perfbench/run.py starts it with `src` on
PYTHONPATH.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import numpy  # noqa: E402,F401
import tubelab  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - START))
