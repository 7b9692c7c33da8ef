"""tubelab benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; tubelab is imported from ./src.  The workloads
are described in perfbench/workloads.py and their metrics in BENCHMARK.json.

--trace 0 measures the end-to-end metrics with tracing off: set-up time (the
median over fresh processes that import numpy and tubelab and build the
inputs), the median wall time of the passes run in --seconds seconds (at
least one), and the process's peak RSS.  Both times are scaled to the
nominal speed of a reference loop run next to them on the same CPU
(perfbench/clock.py).

--trace 1 alternates untraced and traced passes (at least two pairs, more
while --seconds lasts), then runs one memory pass with tracemalloc inside
the outermost xray and extension spans.  Spans and counters of the traced
passes give the per-layer metrics, each the median over those passes, with
span times scaled like the step that holds them; the spans are written to
perfbench/out/.

Every pass checks the paper predicates and compares its values with the
reference snapshot (perfbench/reference.json).  One JSON line holds the
environment and the info: SHA-256 digests of the files the workload writes,
the raw (unscaled) median pass time, the reference loop's mean factor, how
far its time in this process moved from a fresh process's, and the CPU
share of this process's other threads; either beyond the wall_s bound
marks the run unresolved.  The last line is
the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS thread, set before clock.py imports numpy and inherited by the
# set-up probes; recorded in the environment block
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from clock import (NOMINAL_S, Clock, contamination_pair,  # noqa: E402
                   reference_loop)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

#: fresh processes timed per run for setup_s
SETUP_SAMPLES = 7
#: reference loops on each side of a set-up sample
PROBE_REF_LOOPS = 5
#: fewest untraced/traced pass pairs of a --trace 1 run
TRACED_PAIRS = 2


def probe_setup(workload: str, seed: int, workdir: str) -> float:
    """One set-up sample, scaled by reference loops run just before and
    after it."""
    refs = [reference_loop() for _ in range(PROBE_REF_LOOPS)]
    os.makedirs(workdir)
    try:
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload,
             str(seed), workdir],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs += [reference_loop() for _ in range(PROBE_REF_LOOPS)]
    return (float(done.stdout.strip().splitlines()[-1]) * NOMINAL_S
            / statistics.fmean(refs))


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return func()
    return None


def git_state():
    """(revision, dirty) of the checkout, or ("unknown", None) outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30, check=True)
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return rev.stdout.strip(), bool(status.stdout.strip())


def environment(seed: int, reference: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "git_rev": rev,
        "git_dirty": dirty,
        "seed": seed,
        "reference_seeds": reference["seeds"],
    }


class Tally:
    """Checks attempted and failed over a run."""

    def __init__(self, reference: dict, workload: str, seed: int):
        self.reference = reference["workloads"][workload]
        self.seed = seed
        self.attempted = 0
        self.failed = []

    def add(self, outcome):
        from workloads import snapshot_checks

        attempted, failed = snapshot_checks(outcome, self.reference, self.seed)
        self.attempted += attempted
        self.failed += failed

    def expect(self, name: str, passed: bool):
        self.attempted += 1
        if not passed:
            self.failed.append(name)


def timed(run_pass, inputs, seed, tracer=None):
    """(clock, outcome) of one pass, traced by `tracer` if given."""
    clock = Clock()
    with tracer.installed() if tracer else contextlib.nullcontext():
        outcome = run_pass(inputs, seed, clock)
    return clock, outcome


def reference_check(clocks, pairs, bound: float) -> dict:
    """The reference loop's mean factor over the run's steps; how far its
    in-process time moved from a fresh process's, and the CPU share of this
    process's other threads (clock.contamination_pair).  The scaling
    cancels a slowdown the program leaves in its own process, so a run
    where either exceeds `bound` is marked unresolved."""
    inside = statistics.median(t for p in pairs for t in p["inside"])
    fresh = statistics.median(t for p in pairs for t in p["fresh"])
    other = (sum(p["other_cpu_s"] for p in pairs)
             / sum(p["wall_s"] for p in pairs))
    return {"ref_factor": statistics.fmean(r for c in clocks for r in c.refs)
            / NOMINAL_S,
            "ref_contamination": inside / fresh - 1,
            "other_threads_cpu": other,
            "resolved": abs(inside / fresh - 1) <= bound and other <= bound}


def measure(wl, seed: int, seconds: float, workdir: str, tally: Tally):
    setup = [probe_setup(wl.name, seed, f"{workdir}-probe{k}")
             for k in range(SETUP_SAMPLES)]
    inputs = wl.make_inputs(seed, workdir)
    clocks, pairs = [], []
    start = time.perf_counter()
    while not clocks or time.perf_counter() - start < seconds:
        clock, outcome = timed(wl.run_pass, inputs, seed)
        clocks.append(clock)
        pairs.append(contamination_pair())
        tally.add(outcome)
    metrics = {
        "wall_s": statistics.median(c.scaled for c in clocks),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = dict(outcome.info, passes=len(clocks),
                raw_wall_s=statistics.median(c.raw for c in clocks))
    return metrics, info, clocks, pairs


def measure_traced(wl, seed: int, seconds: float, workdir: str, tally: Tally,
                   run_id: str):
    """Untraced and span-traced passes in turn (at least TRACED_PAIRS pairs,
    more while --seconds lasts), then one memory pass.  Per-layer metrics
    are medians over the traced passes, their times scaled like wall_s;
    bench.trace_overhead compares the median scaled pass times."""
    from spans import LAYERS, Tracer

    inputs = wl.make_inputs(seed, workdir)
    plain_clocks, traced_clocks, tracers, pairs = [], [], [], []
    start = time.perf_counter()
    while (len(tracers) < TRACED_PAIRS
           or time.perf_counter() - start < seconds):
        clock, plain = timed(wl.run_pass, inputs, seed)
        plain_clocks.append(clock)
        pairs.append(contamination_pair())
        tracer = Tracer(f"{run_id}.{len(tracers)}")
        clock, spanned = timed(wl.run_pass, inputs, seed, tracer)
        traced_clocks.append(clock)
        tracers.append(tracer)
        tally.add(plain)
        tally.add(spanned)
        tally.expect("traced pass gives the untraced snapshot values",
                     (spanned.fixed, spanned.seeded) == (plain.fixed, plain.seeded))
    mem = Tracer(f"{run_id}.memory", memory=True)
    _clock, mem_outcome = timed(wl.run_pass, inputs, seed, mem)
    tally.add(mem_outcome)
    tally.expect("memory pass gives the untraced snapshot values",
                 (mem_outcome.fixed, mem_outcome.seeded) == (plain.fixed, plain.seeded))

    per_pass = [t.layer_metrics(c) for t, c in zip(tracers, traced_clocks)]
    # counts are the same every pass; median_low keeps them whole numbers
    metrics = {k: (statistics.median_low if isinstance(v, int)
                   else statistics.median)([p[k] for p in per_pass])
               for k, v in per_pass[0].items()}
    metrics.update(mem.memory_metrics())
    untraced = statistics.median(c.scaled for c in plain_clocks)
    traced = statistics.median(c.scaled for c in traced_clocks)
    metrics["bench.trace_overhead"] = (traced - untraced) / untraced
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    record = {
        "run": run_id, "pairs": len(tracers),
        "untraced_wall_s": untraced, "traced_wall_s": traced,
        "layer_self_sum_s": self_sum,
        # the layers' self time against the untraced pass: a gap beyond the
        # tracing overhead means spans miss work or are in other units
        "self_sum_gap": (self_sum - untraced) / untraced,
        "self_sum_within_overhead":
            abs(self_sum - untraced) <= abs(traced - untraced),
        # the untraced passes' own range, over their median: an overhead
        # smaller than this is not resolved
        "untraced_pass_range": (max(c.scaled for c in plain_clocks)
                                - min(c.scaled for c in plain_clocks)) / untraced,
        # share of the traced passes' step time that lies inside a span
        "span_coverage": self_sum / traced,
        "metrics": metrics,
        "spans": [r for t in tracers + [mem] for r in t.span_records()],
    }
    return metrics, record, plain.info, plain_clocks + traced_clocks, pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tubelab", "__init__.py")):
        print(f"error: no tubelab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    # one CPU, inherited by the set-up probes: the reference loop then runs
    # where the steps run; recorded in the environment block
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tally = Tally(reference, wl.name, args.seed)
    env = environment(args.seed, reference)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            run_id = f"{wl.name}-{args.seed}-{os.getpid()}"
            metrics, record, info, clocks, pairs = measure_traced(
                wl, args.seed, args.seconds, workdir, tally, run_id)
        else:
            metrics, info, clocks, pairs = measure(wl, args.seed, args.seconds,
                                                   workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bound = next(m["bound"] for m in declared["end_to_end"]
                 if m["name"] == "wall_s")
    info.update(reference_check(clocks, pairs, bound))
    if not info["resolved"]:
        print("unresolved: the reference loop in this process differs from "
              f"a fresh process's by {info['ref_contamination']:+.3f}, other "
              f"threads use {info['other_threads_cpu']:.3f} of the CPU "
              f"(bound {bound})", file=sys.stderr)
    if args.trace:
        with open(os.path.join(OUT, f"trace-{wl.name}-{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(dict(record, environment=env, info=info), fh)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    for name in tally.failed:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps({"environment": env, "info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
