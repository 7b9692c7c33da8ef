"""The benchmark workloads.

Each workload has `make_inputs(seed, workdir)`, the set-up that builds its
inputs from the seed, and `run_pass(inputs, seed, clock)`, one pass that
calls tubelab only through module attributes (so trace wrappers see every
call), times each call as a step of `clock` (perfbench/clock.py) and returns
an Outcome: the values to compare against the reference snapshot and the
paper predicates as named checks.

Why these workloads:
- restriction: extension slab evaluation and domain masking (trace caps,
  c1/c2 sweeps), scattered-point evaluation (the c0 modulation search) and
  the generic non-separable path (perturbed phase); no X-ray work.
- kakeya: the tube rasterizer (bilinear Kakeya sweeps) and the exact
  tube-pair sum (Prop. 1.11 constants); no extension work.
- lab-cli: the in-process CLI a user runs: verify suites (Whitney location,
  Monte-Carlo tube volumes, lemma oracles), a delta-ball sweep (forward
  X-ray transform) with its --check replay, and the exponent table.
  `verify --suite all` is left out: one X-ray-suite transform (n=3,
  delta=1/8, half-width 0.5) alone takes about 42 s, too long to repeat per
  run, and lab-cli covers the same kernels.

Sizes are chosen so one pass takes 4-10 s on a 2-core machine and a run
repeats it several times: trace caps stop at R=32 (R=64 alone takes 10-12 s,
with pass-to-pass spreads near 25%), the c2 and delta-ball sweeps stop at
delta=1/16, and Prop. 1.11 uses three field pairs per delta.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os

import numpy as np

from tubelab import cli, extension, geometry, witnesses, xray
from tubelab.fields import NetFunction

#: slope tolerance of the sweep predicates (the acceptance criteria's)
SLOPE_TOL = 0.15


@dataclasses.dataclass
class Outcome:
    fixed: dict = dataclasses.field(default_factory=dict)  # seed-free values
    seeded: dict = dataclasses.field(default_factory=dict)  # seed-dependent
    checks: list = dataclasses.field(default_factory=list)  # (name, passed)
    info: dict = dataclasses.field(default_factory=dict)  # file digests, reported only

    def check(self, name: str, passed: bool):
        self.checks.append((name, bool(passed)))


def flatten(prefix: str, obj, out: dict):
    """Nested JSON value -> {"prefix.key.0...": leaf}."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            flatten(f"{prefix}.{k}", v, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            flatten(f"{prefix}.{i}", v, out)
    else:
        out[prefix] = obj


def _slope_check(out: Outcome, clock, name: str, kind: str, n: int, p, q,
                 scales):
    with clock.step():
        fit, rows = witnesses.run_sweep(kind, n, p, q, scales)
    predicted = witnesses.predicted_exponent(kind, n, p, q)
    for scale, ratio in rows:
        out.fixed[f"{name}.ratio.{scale!r}"] = ratio
    out.fixed[f"{name}.slope"] = fit.slope
    out.check(f"{name} slope {fit.slope:+.3f} within {SLOPE_TOL} of "
              f"{predicted:+.3f}", abs(fit.slope - predicted) <= SLOPE_TOL)


def _trace_check(out: Outcome, clock, name: str, caps, phi):
    rows = []
    for R, (f, g) in caps:
        with clock.step():
            rows.append((R, extension.local_ratio(f, g, phi, 2, 1, R).value))
        out.fixed[f"{name}.ratio.R{R}"] = rows[-1][1]
    with clock.step():
        slope = witnesses.fit_power_law(rows).slope
    out.fixed[f"{name}.slope"] = slope
    out.check(f"{name} slope {slope:.3f} in [0.8, 1.2]", 0.8 <= slope <= 1.2)


# ---------------------------------------------------------------------------
# restriction

TRACE_R = (8, 16, 32)


def restriction_inputs(seed: int, workdir: str) -> dict:
    return {
        "phi": geometry.quadratic_phase(2),
        "perturbed": geometry.perturbed_phase(2, 0.05),
        "trace": [(R, witnesses.trace_caps(3, R)) for R in TRACE_R],
    }


def restriction_pass(inp: dict, seed: int, clock) -> Outcome:
    out = Outcome()
    _trace_check(out, clock, "trace", inp["trace"], inp["phi"])
    _slope_check(out, clock, "c1", witnesses.C1_SQUASHED, 3, 2, 5 / 3,
                 [1 / 4, 1 / 8, 1 / 16, 1 / 32])
    _slope_check(out, clock, "c2", witnesses.C2_STRETCHED, 3, 2, 5 / 3,
                 [1 / 4, 1 / 8, 1 / 16])
    _slope_check(out, clock, "c0", witnesses.C0_MODULATED, 2, 2, 2,
                 [8, 16, 32, 64])
    _trace_check(out, clock, "perturbed", inp["trace"], inp["perturbed"])
    return out


# ---------------------------------------------------------------------------
# kakeya

KAKEYA_DELTAS = (1 / 8, 1 / 16, 1 / 32)
KAKEYA_PAIRS = ((2.0, 10 / 3), (3.0, 10 / 3), (4.0, 10 / 3))
PROP111_TRIALS = 3
PROP111_TUBES = 24
PROP111_BOUND = 32.0


def kakeya_inputs(seed: int, workdir: str) -> dict:
    """Seeded random 24-tube field pairs for the Prop. 1.11 constants."""
    rng = np.random.default_rng(seed)
    pairs = []
    for delta in KAKEYA_DELTAS:
        net = geometry.build_net(3, delta)

        def draw(idx_set):
            vals = {}
            for _ in range(PROP111_TUBES):
                w = int(rng.choice(idx_set))
                vals[(w, int(rng.integers(0, len(net.points))))] = float(
                    rng.uniform(0.2, 1.0))
            return xray.XrayField(net, delta, NetFunction(net, vals))

        for _ in range(PROP111_TRIALS):
            pairs.append((delta, draw(net.e1_indices), draw(net.e2_indices)))
    return {"prop111": pairs}


def kakeya_pass(inp: dict, seed: int, clock) -> Outcome:
    out = Outcome()
    for kind in (xray.K0_DELTAS, xray.K1_SLAB):
        # one sweep call per delta (the sweep treats deltas independently)
        # keeps each timed step short
        rows = {pq: [] for pq in KAKEYA_PAIRS}
        for delta in KAKEYA_DELTAS:
            with clock.step():
                part, preds = xray.run_kakeya_sweep_multi(kind, 3, KAKEYA_PAIRS,
                                                          [delta])
            for pq in KAKEYA_PAIRS:
                rows[pq] += part[pq]
        for (p, q), pts in rows.items():
            name = f"{kind}.p{p:g}"
            for delta, ratio in pts:
                out.fixed[f"{name}.ratio.{delta!r}"] = ratio
            with clock.step():
                slope = witnesses.fit_power_law(pts).slope
            out.fixed[f"{name}.slope"] = slope
            out.check(f"{name} slope {slope:+.3f} within {SLOPE_TOL} of "
                      f"{preds[(p, q)]:+.3f}",
                      abs(slope - preds[(p, q)]) <= SLOPE_TOL)
    worst = 0.0
    for k, (delta, F, G) in enumerate(inp["prop111"]):
        with clock.step():
            res = xray.prop111_constant(F, G, spacing=delta / 4)
        out.seeded[f"prop111.{k}.grid"] = res.grid_value
        out.seeded[f"prop111.{k}.pair"] = res.pair_value
        worst = max(worst, res.grid_value, res.pair_value)
    out.check(f"prop111 constants {worst:.3f} <= {PROP111_BOUND:g}",
              worst <= PROP111_BOUND)
    return out


# ---------------------------------------------------------------------------
# lab-cli

SWEEP_CONFIG = """command = sweep
family = delta-ball
n = 3
p = 5/2
q = 10/3
scales = 1/4, 1/8, 1/16
seed = {seed}
output_dir = {outdir}
"""


def lab_cli_inputs(seed: int, workdir: str) -> dict:
    outdir = os.path.join(workdir, "sweep")
    config = os.path.join(workdir, "delta_ball.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CONFIG.format(seed=seed, outdir=outdir))
    return {"config": config, "outdir": outdir}


def _cli(clock, argv) -> tuple:
    """(exit code, parsed JSON stdout) of one in-process `tubelab` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), clock.step():
        code = cli.main(argv)
    text = buf.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _matches(a, b) -> bool:
    """Equal JSON objects, floats compared within the snapshot tolerance."""
    return (isinstance(a, dict) and isinstance(b, dict)
            and all(compare_value(a.get(k), b.get(k)) for k in set(a) | set(b)))


def lab_cli_pass(inp: dict, seed: int, clock) -> Outcome:
    out = Outcome()
    for suite in ("lemmas", "geometry"):
        code, res = _cli(clock, ["verify", "--suite", suite, "--seed", str(seed)])
        out.check(f"verify --suite {suite} exits 0 (got {code})", code == 0)
        flatten(f"verify.{suite}", res, out.seeded)
    config = inp["config"]
    code, summary = _cli(clock, ["sweep", "--config", config])
    out.check(f"sweep exits 0 (got {code})", code == 0)
    csv = _read(os.path.join(inp["outdir"], "sweep.csv"))
    summary_bytes = _read(os.path.join(inp["outdir"], "summary.json"))
    out.check("sweep prints the summary it writes",
              _matches(summary, json.loads(summary_bytes)))
    flatten("sweep.summary", json.loads(summary_bytes), out.fixed)
    header, *lines = csv.decode().splitlines()
    out.fixed["sweep.csv.header"] = header
    for i, line in enumerate(lines):
        family, n, p, q, scale, ratio, grid_n, row_seed = line.split(",")
        out.fixed[f"sweep.csv.{i}"] = f"{family},{n},{p},{q},{grid_n}"
        out.fixed[f"sweep.csv.{i}.scale"] = float(scale)
        out.fixed[f"sweep.csv.{i}.ratio"] = float(ratio)
        out.check(f"sweep.csv row {i} records seed {seed}",
                  row_seed == str(seed))
    out.info["sweep.csv.sha256"] = hashlib.sha256(csv).hexdigest()
    out.info["summary.json.sha256"] = hashlib.sha256(summary_bytes).hexdigest()
    code, verdict = _cli(clock, ["sweep", "--config", config, "--check"])
    out.check(f"sweep --check exits 0 (got {code})", code == 0)
    out.check("sweep --check verdict equals the computed summary",
              _matches(verdict, summary))
    code, table = _cli(clock, ["exponents", "table1"])
    out.check(f"exponents table1 exits 0 (got {code})", code == 0)
    flatten("table1", table, out.fixed)
    return out


# ---------------------------------------------------------------------------
# snapshot comparison

#: relative agreement required when floating-point order changes
REL_TOL = 1e-12


def compare_value(a, b) -> bool:
    numeric = (int, float)
    if (isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return type(a) is type(b) and a == b


def snapshot_checks(out: Outcome, reference: dict, seed: int):
    """(attempted, failed names): the predicates, then every snapshot value
    against the reference.  Seeded values are compared only for a seed the
    reference was taken with; values missing on either side fail."""
    attempted = len(out.checks)
    failed = [name for name, ok in out.checks if not ok]
    groups = [(out.fixed, reference["fixed"])]
    seeded_ref = reference["seeded"].get(str(seed))
    if seeded_ref is not None:
        groups.append((out.seeded, seeded_ref))
    for got, want in groups:
        for key in sorted(set(got) | set(want)):
            attempted += 1
            if key not in got or key not in want or not compare_value(got[key], want[key]):
                failed.append(f"snapshot {key}: got {got.get(key)!r}, "
                              f"reference {want.get(key)!r}")
    return attempted, failed


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object
    run_pass: object


WORKLOADS = {
    w.name: w for w in (
        Workload("restriction", restriction_inputs, restriction_pass),
        Workload("kakeya", kakeya_inputs, kakeya_pass),
        Workload("lab-cli", lab_cli_inputs, lab_cli_pass),
    )
}
