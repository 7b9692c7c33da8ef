"""Self-tests of the benchmark: metric names, the snapshot check, tracing
transparency and wrapper removal.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
from clock import Clock, contamination_pair  # noqa: E402
import workloads  # noqa: E402
from tubelab import xray  # noqa: E402


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


DECLARED = _load(os.path.join(ROOT, "BENCHMARK.json"))
REFERENCE = _load(os.path.join(HERE, "reference.json"))


def test_metric_names_are_well_formed_and_all_measured():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    tracer = spans.Tracer("names")
    measured = set(tracer.layer_metrics()) | set(tracer.memory_metrics())
    measured.add("bench.trace_overhead")
    assert {m["name"] for m in DECLARED["per_layer"]} == measured
    assert set(workloads.WORKLOADS) == {w["name"] for w in DECLARED["workloads"]}


def _reference_outcome(name, seed):
    ref = REFERENCE["workloads"][name]
    return workloads.Outcome(fixed=dict(ref["fixed"]),
                             seeded=dict(ref["seeded"][str(seed)]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_reference_value_fails_the_check(name):
    ref = REFERENCE["workloads"][name]
    seed = REFERENCE["seeds"][0]
    attempted, failed = workloads.snapshot_checks(
        _reference_outcome(name, seed), ref, seed)
    assert attempted > 0 and failed == []

    outcome = _reference_outcome(name, seed)
    key = next(k for k, v in sorted(outcome.fixed.items())
               if isinstance(v, float) and v != 0)
    outcome.fixed[key] *= 1 + 1e-14  # within the tolerance
    assert workloads.snapshot_checks(outcome, ref, seed)[1] == []
    outcome.fixed[key] *= 1 + 1e-9
    attempted, failed = workloads.snapshot_checks(outcome, ref, seed)
    assert len(failed) / attempted > 0
    assert key in failed[0]


def test_unreferenced_seed_checks_only_seed_free_values():
    ref = REFERENCE["workloads"]["kakeya"]
    outcome = _reference_outcome("kakeya", REFERENCE["seeds"][0])
    unused = max(REFERENCE["seeds"]) + 1
    attempted, failed = workloads.snapshot_checks(outcome, ref, unused)
    assert failed == [] and attempted == len(ref["fixed"])


def _originals():
    return [getattr(mod, attr) for mod, attr in spans.WRAPS]


def test_traced_pass_matches_untraced_and_wrappers_are_removed(monkeypatch, tmp_path):
    # a two-scale kakeya pass keeps the test short; the benchmark itself
    # repeats this comparison on every traced run
    monkeypatch.setattr(workloads, "KAKEYA_DELTAS", (1 / 8, 1 / 16))
    monkeypatch.setattr(workloads, "PROP111_TRIALS", 2)
    originals = _originals()
    inputs = workloads.kakeya_inputs(3, str(tmp_path))
    plain = workloads.kakeya_pass(inputs, 3, Clock())
    tracer = spans.Tracer("test")
    with tracer.installed():
        assert all(getattr(m, a) is not f
                   for (m, a), f in zip(spans.WRAPS, originals))
        traced = workloads.kakeya_pass(inputs, 3, Clock())
    assert _originals() == originals
    assert (traced.fixed, traced.seeded, traced.checks) == (
        plain.fixed, plain.seeded, plain.checks)
    metrics = tracer.layer_metrics()
    assert metrics["xray.calls"] > 0
    assert 0 < metrics["xray.tube_pairs"] <= 2 * 2 * 24 * 24
    assert 0 < metrics["xray.pair_hit_ratio"] <= 1
    records = tracer.span_records()
    assert all(r["parent"] is None or r["parent"] < r["id"] for r in records)


def test_span_times_are_scaled_like_the_enclosing_step():
    clock = Clock()
    # two steps at factors 0.5 and 2; the first ran one reference sample
    # inside the child span
    clock.steps = [(0.9, 3.1, 0.5), (4.9, 6.1, 2.0)]
    clock.samples = [(1.6, 1.7)]
    tracer = spans.Tracer("units")
    tracer.spans = [(0, None, "xray.prop111_constant", 1.0, 3.0),
                    (1, 0, "geometry.tube_intersection_exact", 1.5, 2.0),
                    (2, None, "xray.prop111_constant", 5.0, 6.0),
                    (3, None, "fields.mixed_norm", 7.0, 7.5)]  # in no step
    self_s, total_s = tracer.span_times(clock)
    assert total_s == pytest.approx({"xray.prop111_constant": 1.9 * 0.5 + 2.0,
                                     "geometry.tube_intersection_exact": 0.2,
                                     "fields.mixed_norm": 0.5})
    assert self_s["xray.prop111_constant"] == pytest.approx(0.95 - 0.2 + 2.0)
    assert self_s["geometry.tube_intersection_exact"] == pytest.approx(0.2)


def test_a_slowdown_left_in_the_process_marks_the_run_unresolved():
    def check():
        return run.reference_check([Clock()], [contamination_pair()], 0.25)

    clean = check()
    sys.setprofile(lambda *args: None)
    try:
        hooked = check()
    finally:
        sys.setprofile(None)
    assert hooked["ref_contamination"] > clean["ref_contamination"] + 0.25
    assert not hooked["resolved"]

    stop = threading.Event()
    spinner = threading.Thread(target=lambda: [None for _ in iter(stop.is_set, True)])
    spinner.start()
    try:
        spinning = check()
    finally:
        stop.set()
        spinner.join()
    assert spinning["other_threads_cpu"] > 0.25
    assert not spinning["resolved"]


def test_wrappers_are_removed_when_a_pass_raises():
    originals = _originals()
    with pytest.raises(xray.XrayError):
        with spans.Tracer("raise").installed():
            xray.kakeya_witness("no-such-kind", 3, 1 / 8)
    assert _originals() == originals


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kakeya", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
