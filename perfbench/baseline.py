"""Measure the baseline and write perfbench/baseline.json.

    python3 perfbench/baseline.py

Run from the repository root.  Makes SETS sets of untraced runs of
perfbench/run.py at BENCHMARK.json's run_seconds, each set one run of every
workload per seed in SEEDS, then one traced run of each workload.  Records
for each set and end-to-end metric (and the unscaled pass time) its values,
median, quartiles and spread (interquartile distance over the median, with
the quartiles of statistics.quantiles(values, n=4)); each later set's
median against the first's, with the metric's bound; the reference loop's
factor, its contamination, the other threads' CPU share and whether every
run was resolved; the checks attempted and failed; the traced per-layer
breakdown, with the sum of the layers' self time against the untraced wall
time; and the environment block.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEEDS = range(1, 11)
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int):
    """(environment and info, result) of one benchmark run."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    env_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(env_line), json.loads(result_line)


def summary(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1,
            "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def measure_set(declared, seconds):
    """{workload: summaries of one run per seed}, and the last environment."""
    out = {}
    for wl in declared["workloads"]:
        name = wl["name"]
        results, infos = [], []
        for seed in SEEDS:
            head, result = run(name, seed, seconds, 0)
            results.append(result)
            infos.append(head["info"])
            print(name, seed, json.dumps(result), flush=True)
        out[name] = {
            "end_to_end": {
                m["name"]: dict(summary([r["metrics"][m["name"]]["value"]
                                         for r in results]), unit=m["unit"])
                for m in declared["end_to_end"]},
            "raw_wall_s": summary([i["raw_wall_s"] for i in infos]),
            "ref_factor": summary([i["ref_factor"] for i in infos]),
            "ref_contamination": [i["ref_contamination"] for i in infos],
            "other_threads_cpu": [i["other_threads_cpu"] for i in infos],
            "all_resolved": all(i["resolved"] for i in infos),
            "checks": {"attempted": sum(r["attempted"] for r in results),
                       "failed": sum(r["failed"] for r in results)},
        }
    return out, head["environment"]


def traced_breakdown(name, seconds):
    seed = SEEDS[0]
    _head, traced = run(name, seed, seconds, 1)
    with open(os.path.join(HERE, "out", f"trace-{name}-{seed}.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    layer_self = {k[:-len(".self_s")]: v["value"]
                  for k, v in traced["metrics"].items() if k.endswith(".self_s")}
    keep = ("pairs", "untraced_wall_s", "traced_wall_s", "layer_self_sum_s",
            "self_sum_gap", "self_sum_within_overhead", "untraced_pass_range",
            "span_coverage")
    return dict({k: record[k] for k in keep}, seed=seed,
                correct=traced["correct"],
                layers_by_self_s=sorted(layer_self, key=layer_self.get,
                                        reverse=True),
                metrics={k: v["value"] for k, v in traced["metrics"].items()})


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    sets = []
    for _ in range(SETS):
        measured, env = measure_set(declared, seconds)
        sets.append(measured)
    out = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for wl in declared["workloads"]:
        name = wl["name"]
        first = sets[0][name]["end_to_end"]
        out["workloads"][name] = {
            "why": wl["why"],
            "sets": [s[name] for s in sets],
            # later medians against the first set's; the bound is how much
            # worse a metric may read before a change is refused
            "agreement": {
                m["name"]: {"bound": m["bound"], "changes": [
                    s[name]["end_to_end"][m["name"]]["median"]
                    / first[m["name"]]["median"] - 1 for s in sets[1:]]}
                for m in declared["end_to_end"]},
            "traced": traced_breakdown(name, seconds),
        }
    env.pop("seed")
    out["environment"] = env
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
