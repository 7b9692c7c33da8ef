"""Command-line entry point: exact exponent queries, witness sweeps with
CSV/JSON persistence, verification suites, and region emission.  Each
command and `exponents` subcommand accepts only the flags it reads.

Config files are flat `key = value` text (lists comma-separated); rationals
are written as "a/b".  Identical config + seed reproduces byte-identical
CSV and summary JSON; wall-clock data lives only in the run record.

Exit codes: 0 pass, 1 acceptance fail, 2 usage/parse error, 3 resource or
oscillation-guard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import exponents as expm
from . import TubelabError, extension, fields, geometry, lemmas, witnesses, xray

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class ConfigError(TubelabError):
    pass


@dataclasses.dataclass
class ExperimentConfig:
    command: str
    family: str = ""
    n: int = 3
    p: str = "2"
    q: str = "2"
    scales: tuple = ()
    grid_n: int = 16
    seed: int = None
    output_dir: str = "."
    box_constant: float = witnesses.DEFAULT_BOX_CONSTANT
    tolerance: float = 0.15

    @property
    def p_value(self) -> float:
        return float(Fraction(self.p))

    @property
    def q_value(self) -> float:
        return float(Fraction(self.q))

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        out["scales"] = list(self.scales)
        return out


def parse_config_text(text: str) -> dict:
    """{key: (value text, "line <k>")}; a later line overrides an earlier one."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = (value.strip(), f"line {lineno}")
    return out


def _rational_text(text: str) -> str:
    """p and q stay text, as the CSV records them, but must parse."""
    float(Fraction(text))
    return text


def _scales(text: str) -> tuple:
    return tuple(float(Fraction(s.strip())) for s in text.split(",") if s.strip())


#: config key -> parser of its value text
_CONFIG_PARSERS = {
    "family": str, "n": int, "p": _rational_text, "q": _rational_text,
    "scales": _scales, "grid_n": int, "seed": int, "output_dir": str,
    "box_constant": float, "tolerance": float,
}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {path}: {reason}") from None


def _check_ranges(cfg: ExperimentConfig, where: dict):
    """Refuse out-of-range values; where maps keys to their line or flag."""
    def check(key, ok, need):
        if not ok:
            raise ConfigError(f"{where.get(key, '')}bad value for {key!r}: {need}")

    check("n", cfg.n >= 2, f"{cfg.n} (need n >= 2)")
    check("grid_n", cfg.grid_n >= 1, f"{cfg.grid_n} (need grid_n >= 1)")
    check("seed", cfg.seed is None or cfg.seed >= 0, f"{cfg.seed} (need seed >= 0)")
    for key, values in (("p", [cfg.p_value]), ("q", [cfg.q_value]),
                        ("scales", cfg.scales), ("box_constant", [cfg.box_constant])):
        check(key, all(0 < v < math.inf for v in values),
              "need positive finite values")
    check("tolerance", 0 <= cfg.tolerance < math.inf,
          "need a non-negative finite value")


def load_config(path: str, overrides: dict = None) -> ExperimentConfig:
    """The config at path, its lines overridden by flag values (None: unset)."""
    raw = parse_config_text(_read_text(path))
    raw.update({key: (value, "--" + key.replace("_", "-"))
                for key, value in (overrides or {}).items() if value is not None})
    try:
        command, line = raw.pop("command")
    except KeyError:
        raise ConfigError("config missing 'command'")
    if command != "sweep":
        raise ConfigError(f"{line}: unknown command {command!r} (need 'sweep')")
    where = {key: f"{at}: " for key, (_value, at) in raw.items()}
    cfg = ExperimentConfig(command=command)
    for key, (value, _at) in raw.items():
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{where[key]}unknown config key {key!r}")
        try:
            setattr(cfg, key, _CONFIG_PARSERS[key](value))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ConfigError(f"{where[key]}bad value for {key!r}: {value!r}") from None
    _check_ranges(cfg, where)
    if cfg.family not in witnesses.FAMILIES:
        raise ConfigError(f"{where.get('family', '')}unknown family {cfg.family!r}")
    if not cfg.scales:
        raise ConfigError("sweep needs scales")
    if cfg.seed is None:
        raise ConfigError("sweep needs an explicit seed")
    return cfg


def _atomic_write(path: str, data):
    """Write text or bytes to path through a temporary file beside it."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            os.chmod(tmp, 0o644)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(obj):
    sys.stdout.write(_json_dumps(obj))


# ---------------------------------------------------------------------------
# exponents command


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}")


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


#: exponents subcommand -> the flags its branch of cmd_exponents reads (and
#: so the only flags its parser accepts); `tubelab region` takes "region"'s
EXPONENT_FLAGS = {
    "lemma-alpha": ("n", "p", "q", "alpha"),
    "bootstrap": ("alpha", "steps"),
    "region": ("kind", "n"),
    "sharp-line": ("n", "q"),
    "interpolate": ("p1", "q1", "p2", "q2", "theta", "kind"),
    "x-imply": ("p", "q"),
    "modest": ("n",),
    "table1": (),
    "whitney-check": ("n", "p", "p-tilde", "q"),
}

#: (subcommand, flag) pairs with no default: the subcommand refuses any default
_REQUIRED_FLAGS = {("lemma-alpha", "alpha"), ("sharp-line", "q"), ("x-imply", "q")}

#: flag -> argparse keywords; an unlisted flag is a rational defaulting to 2
_FLAG_SPECS = {"n": {"type": int, "default": 3}, "steps": {"type": int},
               "alpha": {}, "kind": {}, "theta": {"default": "1/2"}}


def _add_exponent_flags(parser, sub: str):
    for flag in EXPONENT_FLAGS[sub]:
        required = (sub, flag) in _REQUIRED_FLAGS
        spec = {} if required else _FLAG_SPECS.get(flag, {"default": "2"})
        parser.add_argument("--" + flag, required=required, **spec)


def cmd_exponents(args) -> int:
    sub = args.subcommand
    if sub == "lemma-alpha":
        q_tilde, ratio = expm.lemma_alpha(_frac(args.p), _frac(args.q),
                                          _frac(args.alpha), args.n)
        _emit({"q_tilde": _frac_str(q_tilde), "ratio": _frac_str(ratio),
               "p_tilde_inf": _frac_str(q_tilde / ratio)})
    elif sub == "bootstrap":
        out = {"fixed_point": _frac_str(expm.bootstrap_fixed_point())}
        if args.alpha is not None:
            steps = 30 if args.steps is None else args.steps
            iters = expm.bootstrap_iterate(_frac(args.alpha), steps)
            out["iterates"] = [_frac_str(a) for a in iters]
        elif args.steps is not None:
            raise ConfigError("bootstrap --steps needs --alpha")
        _emit(out)
    elif sub == "region":
        _emit(expm.region(args.kind or expm.BILINEAR_RESTRICTION,
                          args.n).to_json())
    elif sub == "sharp-line":
        _emit({"p": _frac_str(expm.sharp_line(args.n, _frac(args.q)))})
    elif sub == "interpolate":
        try:
            inv = [1 / _frac(t) for t in (args.p1, args.q1, args.p2, args.q2)]
        except ZeroDivisionError:
            raise ConfigError("interpolate needs nonzero exponents") from None
        kind = args.kind or expm.LINEAR
        e1 = expm.EstimatePoint(inv[0], inv[1], kind=kind)
        e2 = expm.EstimatePoint(inv[2], inv[3], kind=kind)
        mid = expm.interpolate(e1, e2, _frac(args.theta))
        _emit(mid.to_json())
    elif sub == "x-imply":
        w, r, ok = expm.x_imply(_frac(args.p), _frac(args.q))
        det = expm.x_imply_collinearity(_frac(args.p), _frac(args.q))
        _emit({"w": _frac_str(w), "r": _frac_str(r), "applicable": ok,
               "collinearity_det": _frac_str(det)})
    elif sub == "modest":
        _emit({"threshold": _frac_str(expm.modest_threshold(args.n))})
    elif sub == "table1":
        _emit(expm.catalog_to_json())
    elif sub == "whitney-check":
        ok, eps = expm.whitney_exponent_check(args.n, _frac(args.p),
                                              _frac(args.p_tilde), _frac(args.q))
        _emit({"feasible": ok, "epsilon": _frac_str(eps)})
    return EXIT_PASS


# ---------------------------------------------------------------------------
# sweep command


def _format_float(x: float) -> str:
    return repr(float(x))


def _sweep_csv(cfg: ExperimentConfig, rows) -> str:
    lines = ["family,n,p,q,scale,ratio,grid_n,seed"]
    for scale, ratio in rows:
        lines.append(
            f"{cfg.family},{cfg.n},{cfg.p},{cfg.q},"
            f"{_format_float(scale)},{_format_float(ratio)},{cfg.grid_n},{cfg.seed}"
        )
    return "\n".join(lines) + "\n"


def _sweep_summary(cfg: ExperimentConfig, fit, predicted) -> dict:
    ok = abs(fit.slope - predicted) <= cfg.tolerance
    return {
        "family": cfg.family,
        "n": cfg.n,
        "p": cfg.p,
        "q": cfg.q,
        "slope": fit.slope,
        "predicted": predicted,
        "max_residual": fit.max_residual,
        "tolerance": cfg.tolerance,
        "pass": bool(ok),
    }


def _write_run_record(cfg: ExperimentConfig, outdir: str, artifacts, verdicts,
                      started, finished):
    record = {
        "config": cfg.to_json(),
        "started_at": started,
        "finished_at": finished,
        "artifacts": sorted(artifacts),
        "verdicts": verdicts,
    }
    _atomic_write(os.path.join(outdir, "run_record.json"), _json_dumps(record))


def cmd_sweep(cfg: ExperimentConfig, check_only: bool = False) -> int:
    outdir = cfg.output_dir
    csv_path = os.path.join(outdir, "sweep.csv")
    summary_path = os.path.join(outdir, "summary.json")
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    p, q = cfg.p_value, cfg.q_value
    if check_only:
        # replay the acceptance predicate from the stored CSV, whose rows
        # must be this config's: family,n,p,q and grid_n as _sweep_csv writes
        lines = _read_text(csv_path).strip().splitlines()
        want = [cfg.family, str(cfg.n), cfg.p, cfg.q, str(cfg.grid_n)]
        rows = []
        for k, line in enumerate(lines[1:], 2):
            parts = line.split(",")
            if parts[:4] + parts[6:7] != want:
                raise ConfigError(f"{csv_path} line {k}: row {line!r} is not "
                                  f"from this config ({','.join(want)})")
            try:
                rows.append((float(parts[4]), float(parts[5])))
            except ValueError:
                raise ConfigError(
                    f"{csv_path} line {k}: malformed row {line!r}") from None
        fit = witnesses.fit_sweep(cfg.family, rows)
    else:
        fit, rows = witnesses.run_sweep(cfg.family, cfg.n, p, q, cfg.scales,
                                        grid_n=cfg.grid_n,
                                        box_constant=cfg.box_constant)
    summary = _sweep_summary(
        cfg, fit, witnesses.predicted_exponent(cfg.family, cfg.n, p, q))
    if not check_only:
        _atomic_write(csv_path, _sweep_csv(cfg, rows))
        _atomic_write(summary_path, _json_dumps(summary))
        finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        _write_run_record(cfg, outdir, ["sweep.csv", "summary.json"],
                          {"sweep": summary["pass"]}, started, finished)
    _emit(summary)
    return EXIT_PASS if summary["pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# witness command


def _dump_witness_field(cap, box, outdir: str, stem: str):
    """Evaluate the extension field of a cap on a coarse grid over the
    witness box and write it in the GridFunction binary format."""
    lo, hi = box.bounding_box()
    phi = geometry.quadratic_phase(len(lo) - 1)

    def sampler(pts):
        gn = extension.required_grid_counts(cap, phi, pts).max()
        return extension.evaluate_extension(cap, phi, pts, gn)

    grid = fields.grid_from_sampler(sampler, lo, hi, [17] * len(lo))
    raw, sidecar = grid.to_binary()
    _atomic_write(os.path.join(outdir, f"{stem}.bin"), raw)
    _atomic_write(os.path.join(outdir, f"{stem}.json"), _json_dumps(sidecar))
    return [f"{stem}.bin", f"{stem}.json"]


def cmd_witness(args) -> int:
    f, g, box = witnesses.build_witness(args.family, args.n, args.scale,
                                        box_constant=args.box_constant)
    def cap_json(cap):
        if cap is None:
            return None
        return {
            "support_lo": list(cap.support_lo),
            "support_hi": list(cap.support_hi),
            "modulation": list(cap.modulation) if cap.modulation else None,
            "measure": cap.measure,
        }

    lo, hi = box.bounding_box()
    out = {
        "family": args.family,
        "n": args.n,
        "scale": args.scale,
        "parameters": {"box_constant": args.box_constant},
        "f": cap_json(f),
        "g": cap_json(g),
        "box_bounds": [list(map(float, lo)), list(map(float, hi))],
    }
    if args.dump_dir:
        artifacts = _dump_witness_field(f, box, args.dump_dir, "field_f")
        if g is not None:
            artifacts += _dump_witness_field(g, box, args.dump_dir, "field_g")
        out["artifacts"] = artifacts
    _emit(out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify command: seeded invariant suites, machine-readable verdicts


def _suite_lemmas(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    # sequence and quasi-norm inequalities on random data
    ok = True
    for k in range(100):
        a = rng.standard_normal(rng.integers(1, 12))
        p = float(rng.uniform(1, 6))
        s, _f = lemmas.young_check(a, p)
        ok &= s
    out["young"] = {"pass": bool(ok), "trials": 100}
    # quasi-orthogonality across p, seeds
    worst = {}
    ok = True
    for p in (1.0, 1.5, np.inf):
        vals = []
        for s in range(50):
            rects = [lemmas.FreqRect((int(c),), (4,))
                     for c in (-96, -48, 0, 48, 96, 144, -144, -192)]
            vals.append(lemmas.quasi_orthogonality_ratio(rects, seed + s, p))
        worst[str(p)] = max(vals)
        ok &= max(vals) <= 4.0
    ratio2 = lemmas.quasi_orthogonality_ratio(
        [lemmas.FreqRect((int(c),), (4,)) for c in (-60, 0, 60)], seed, 2.0)
    ok &= ratio2 <= 1 + 1e-6
    worst["2.0"] = ratio2
    out["quasi_orthogonality"] = {"pass": bool(ok), "worst": worst}
    # dyadic mass bounds
    ok = True
    worst_c = 0.0
    for k in range(100):
        n = 2 if k % 2 == 0 else 3
        om = lemmas.random_omega_set(n, 5, seed + 1000 + k)
        p = float(rng.choice([0.5, 2.0, 4.0]))
        j = int(rng.integers(1, 5))
        lhs, rhs_big, rhs_small = lemmas.xr_bounds_check(om, j, p, Fraction(1))
        rhs = rhs_big if p >= 1 else rhs_small
        if lhs > 0:
            worst_c = max(worst_c, lhs / rhs)
        ok &= lhs <= 16.0 * rhs + 1e-12
        if abs(p - 1.0) < 1e-9:
            ok &= abs(lhs - float(om.measure)) < 1e-12
    out["xr_est"] = {"pass": bool(ok), "worst_constant": worst_c}
    # stopping-time decomposition invariants
    ok = True
    for k in range(100):
        n = 2 if k % 2 == 0 else 3
        om = lemmas.random_omega_set(n, 4, seed + 2000 + k)
        thresholds = {j: Fraction(1, 2 ** min(j + 1, 4)) for j in range(5)}
        dec = lemmas.cz_decompose(om, thresholds)
        ok &= dec.validate(om)
    out["cz"] = {"pass": bool(ok), "trials": 100}
    # multi-scale functional monotonicity
    ok = True
    for k in range(50):
        om2 = lemmas.random_omega_set(3, 4, seed + 3000 + k)
        sub = lemmas.OmegaSet(om2.mask & (rng.random(om2.mask.shape) < 0.7))
        if not sub.mask.any():
            continue
        ok &= lemmas.xr_norm(sub, 2.0).value <= lemmas.xr_norm(om2, 2.0).value + 1e-12
    out["xr_norm_monotone"] = {"pass": bool(ok)}
    return out


def _suite_geometry(seed: int) -> dict:
    out = {}
    rng = np.random.default_rng(seed)
    # close-pair uniqueness vs an exhaustive scan of levels 1..16
    ok = True
    checked = 0
    for n in (2, 3):
        x, y = rng.uniform(-1, 1, (10000, 2, n - 1)).transpose(1, 0, 2)
        level = geometry.whitney_levels(x, y, 16)
        located = level > 0
        x, y, level = x[located], y[located], level[located]
        checked += len(level)
        hits = np.zeros(len(level), dtype=int)
        hit_level = np.zeros(len(level), dtype=int)
        for jj in range(1, 17):
            k1 = np.floor((x.T + 1) * 2**jj).astype(int)
            k2 = np.floor((y.T + 1) * 2**jj).astype(int)
            close = (~geometry.adjacent(k1, k2)
                     & geometry.adjacent(k1 // 2, k2 // 2))
            hits += close
            hit_level[close] = jj
        ok &= bool(np.all((hits == 1) & (hit_level == level)))
    out["whitney_unique"] = {"pass": bool(ok), "checked": checked}
    # overlap bound for tube pairs, noise folded in at three sigma
    worst = 0.0
    ok = True
    for n in (2, 3):
        for delta in (1 / 8, 1 / 16, 1 / 32):
            net = geometry.build_net(n, delta)
            for _ in range(200):
                w1 = net.e1[rng.integers(0, len(net.e1))]
                w2 = net.e2[rng.integers(0, len(net.e2))]
                i1 = net.points[rng.integers(0, len(net.points))]
                tstar = rng.uniform(-0.75, 0.75)
                i2 = i1 + tstar * (w1 - w2) + rng.uniform(-delta, delta, n - 1)
                i2 = net.points[net.nearest_index(i2)]
                t1 = geometry.Tube(tuple(w1), tuple(i1), delta)
                t2 = geometry.Tube(tuple(w2), tuple(i2), delta)
                est, err = geometry.tube_intersection_volume(
                    t1, t2, 20000, int(rng.integers(0, 2**31)))
                bound = (est + 3 * err) * (np.linalg.norm(w1 - w2) + delta) / delta**n
                worst = max(worst, bound)
                ok &= bound <= 64.0
    out["overlap_bound"] = {"pass": bool(ok), "worst": worst}
    return out


def _suite_xray(seed: int) -> dict:
    out = {}
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for n, delta in ((2, 1 / 8), (2, 1 / 16), (3, 1 / 8)):
        net = geometry.build_net(n, delta)
        # compact support keeps the live boxes X gathers from small
        half = 1.2 if n == 2 else 0.5
        m = int(np.ceil(2 * half / (delta / 4)))
        f = fields.grid_from_sampler(
            lambda P: np.exp(-2 * np.sum(P * P, axis=1))
            * (np.sum(P * P, axis=1) <= (half - delta / 4) ** 2),
            [-half] * n, [half] * n, [m] * n)
        xf = xray.xray_transform(f, net).values
        pick = slice(None, None, max(1, len(xf.values) // 50))
        gv = rng.uniform(0.1, 1.0, size=len(xf.values[pick]))
        g = xray.XrayField(net, delta, fields.NetFunction(
            net, dict(zip(zip(xf.omega[pick], xf.base[pick]), gv))))
        xg = xray.xray_adjoint(g, f)
        lhs = net.delta**net.dim * float(np.sum(xf.values[pick] * gv))
        rhs = float(np.real(np.sum(np.conj(f.samples) * xg.samples))
                    * f.cell_measure)
        gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        worst = max(worst, gap)
        ok &= gap <= 1e-12
    out["adjoint_identity"] = {"pass": bool(ok), "worst_gap": worst}
    # fixed-direction tubes cover the half ball with bounded overlap
    ok = True
    worst_cov = 0
    for n, delta in ((2, 1 / 16), (3, 1 / 8)):
        net = geometry.build_net(n, delta)
        for w_idx in (0, len(net.points) // 2, len(net.points) - 1):
            omega = net.points[w_idx]
            pts = rng.uniform(-0.5, 0.5, size=(500, n))
            pts = pts[np.linalg.norm(pts, axis=1) <= 0.5]
            cover = np.zeros(len(pts), dtype=int)
            for i_idx in range(len(net.points)):
                tube = geometry.Tube(tuple(omega), tuple(net.points[i_idx]),
                                     delta)
                cover += tube.contains(pts).astype(int)
            ok &= int(cover.min()) >= 1 and int(cover.max()) <= 8
            worst_cov = max(worst_cov, int(cover.max()))
    out["tube_cover"] = {"pass": bool(ok), "max_multiplicity": worst_cov}
    # dual computation agreement on a crossing pair
    net = geometry.build_net(3, 1 / 8)
    w1 = int(net.e1_indices[len(net.e1_indices) // 2])
    w2 = int(net.e2_indices[len(net.e2_indices) // 2])
    i0 = net.nearest_index([0.0, 0.0])
    F = xray.XrayField(net, 1 / 8, fields.NetFunction(net, {(w1, i0): 1.0}))
    G = xray.XrayField(net, 1 / 8, fields.NetFunction(net, {(w2, i0): 1.0}))
    res = xray.prop111_constant(F, G, spacing=(1 / 8) / 16)
    out["prop111_crossing"] = {
        "pass": bool(res.relative_gap <= 0.05),
        "gap": res.relative_gap,
        "constant": res.pair_value,
    }
    return out


SUITES = {"lemmas": _suite_lemmas, "geometry": _suite_geometry,
          "xray": _suite_xray}


def cmd_verify(suite: str, seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"bad seed {seed}: need a non-negative integer")
    results = {name: SUITES[name](seed)
               for name in (SUITES if suite == "all" else [suite])}
    all_pass = all(check["pass"] for suite_out in results.values()
                   for check in suite_out.values())
    _emit({"suites": results, "pass": bool(all_pass)})
    return EXIT_PASS if all_pass else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: a prefix of a flag is not the flag
    ap = argparse.ArgumentParser(prog="tubelab", allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("exponents", allow_abbrev=False).add_subparsers(
        dest="subcommand", required=True)
    for name in EXPONENT_FLAGS:
        _add_exponent_flags(ex.add_parser(name, allow_abbrev=False), name)
    rg = sub.add_parser("region", allow_abbrev=False)
    _add_exponent_flags(rg, "region")
    rg.set_defaults(subcommand="region")

    sw = sub.add_parser("sweep", allow_abbrev=False)
    sw.add_argument("--config", required=True)
    sw.add_argument("--output-dir", default=None)
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--tolerance", type=float, default=None)
    sw.add_argument("--check", action="store_true")

    wt = sub.add_parser("witness", allow_abbrev=False)
    wt.add_argument("--family", required=True)
    wt.add_argument("--n", type=int, default=3)
    wt.add_argument("--scale", type=float, required=True)
    wt.add_argument("--box-constant", type=float,
                    default=witnesses.DEFAULT_BOX_CONSTANT)
    wt.add_argument("--dump-dir", default=None)

    vf = sub.add_parser("verify", allow_abbrev=False)
    vf.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    vf.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        if args.command in ("exponents", "region"):
            return cmd_exponents(args)
        if args.command == "sweep":
            cfg = load_config(args.config, {"output_dir": args.output_dir,
                                            "seed": args.seed,
                                            "tolerance": args.tolerance})
            return cmd_sweep(cfg, check_only=args.check)
        if args.command == "witness":
            return cmd_witness(args)
        return cmd_verify(args.suite, args.seed)
    except (TubelabError, MemoryError) as exc:
        code = getattr(exc, "exit_code", EXIT_RESOURCE)  # MemoryError: resource
        kind = "resource error" if code == EXIT_RESOURCE else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
