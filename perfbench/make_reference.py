"""Write perfbench/reference.json, the snapshot every benchmark pass is
compared with: one untraced pass of each workload per reference seed.

    python3 perfbench/make_reference.py

Run from the repository root.  Refuses to write a reference in which a
paper predicate fails or a seed-free value depends on the seed.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from clock import Clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: seeds the seed-dependent values are recorded for
REFERENCE_SEEDS = (1, 2)


def main() -> int:
    reference = {"seeds": list(REFERENCE_SEEDS), "workloads": {}}
    for name, wl in WORKLOADS.items():
        fixed, seeded = None, {}
        for seed in REFERENCE_SEEDS:
            workdir = os.path.join(HERE, "out", f"reference-{name}-{seed}")
            os.makedirs(workdir)
            try:
                outcome = wl.run_pass(wl.make_inputs(seed, workdir), seed,
                                      Clock())
            finally:
                shutil.rmtree(workdir)
            failed = [check for check, ok in outcome.checks if not ok]
            if failed:
                sys.exit(f"{name} seed {seed}: predicates failed: {failed}")
            if fixed is not None and outcome.fixed != fixed:
                sys.exit(f"{name}: seed-free values differ between seeds")
            fixed = outcome.fixed
            seeded[str(seed)] = outcome.seeded
            print(f"{name} seed {seed}: {len(outcome.checks)} predicates pass, "
                  f"{len(outcome.fixed)} + {len(outcome.seeded)} values")
        reference["workloads"][name] = {"fixed": fixed, "seeded": seeded}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
