import contextlib
import io
import json
import os
import pathlib
import shlex
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import cli, exponents, witnesses


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_exponents_lemma_alpha(capsys):
    code, out = run_cli(capsys, "exponents", "lemma-alpha", "--n", "3",
                        "--p", "5/2", "--q", "10/3", "--alpha", "3/80")
    assert code == 0
    assert out == {"q_tilde": "34/9", "ratio": "77/45", "p_tilde_inf": "170/77"}


def test_exponents_bootstrap(capsys):
    code, out = run_cli(capsys, "exponents", "bootstrap")
    assert code == 0 and out["fixed_point"] == "3/20"
    code, out = run_cli(capsys, "exponents", "bootstrap", "--alpha", "1",
                        "--steps", "3")
    assert out["iterates"] == ["1", "8/25", "23/125", "98/625"]


def test_exponents_region_vertex(capsys):
    code, out = run_cli(capsys, "exponents", "region",
                        "--kind", "bilinear-restriction-conjecture", "--n", "3")
    assert code == 0
    verts = [tuple((v[0]["num"], v[0]["den"], v[1]["num"], v[1]["den"]))
             for v in out["vertices"]]
    assert (1, 2, 3, 5) in verts


def test_exponents_parse_error(capsys):
    code = cli.main(["exponents", "lemma-alpha", "--p", "5//2",
                     "--q", "10/3", "--alpha", "3/80"])
    assert code == cli.EXIT_USAGE


def test_exponents_whitney_check(capsys):
    code, out = run_cli(capsys, "exponents", "whitney-check", "--n", "3",
                        "--p", "2", "--p-tilde", "199/100", "--q", "2")
    assert code == 0 and out["feasible"] and out["epsilon"] == "2/199"


def test_config_parsing(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(
        "command = sweep\nfamily = c1-squashed\nn = 3\np = 2\nq = 5/3\n"
        "scales = 1/4, 1/8, 1/16\nseed = 3\noutput_dir = out\n")
    cfg = cli.load_config(str(path))
    assert cfg.q_value == pytest.approx(5 / 3)
    assert cfg.scales == (0.25, 0.125, 0.0625)


def test_config_missing_seed(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(
        "command = sweep\nfamily = c1-squashed\nn = 3\np = 2\nq = 5/3\n"
        "scales = 1/4, 1/8, 1/16\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(path))


def test_config_unknown_key(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("command = sweep\nbogus = 1\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(path))


def test_malformed_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("command = sweep\nfamily = c1-squashed\n")
    code = cli.main(["sweep", "--config", str(path)])
    assert code == cli.EXIT_USAGE


def sweep_config(tmp_path, outdir, scales="1/4, 1/8, 1/16",
                 family="c1-squashed", p="2", q="5/3"):
    path = tmp_path / f"{family}.cfg"
    path.write_text(
        f"command = sweep\nfamily = {family}\nn = 3\np = {p}\nq = {q}\n"
        f"scales = {scales}\nseed = 7\noutput_dir = {outdir}\n")
    return str(path)


def test_sweep_writes_artifacts_and_passes(tmp_path, capsys):
    out1 = tmp_path / "run1"
    cfgp = sweep_config(tmp_path, out1)
    code, summary = run_cli(capsys, "sweep", "--config", cfgp)
    assert code == 0 and summary["pass"]
    csv_text = (out1 / "sweep.csv").read_text()
    assert csv_text.splitlines()[0] == "family,n,p,q,scale,ratio,grid_n,seed"
    assert len(csv_text.splitlines()) == 4
    record = json.loads((out1 / "run_record.json").read_text())
    assert set(record["artifacts"]) == {"summary.json", "sweep.csv"}
    assert record["verdicts"] == {"sweep": True}


def test_sweep_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfgp = sweep_config(tmp_path, out1)
    assert cli.main(["sweep", "--config", cfgp]) == 0
    capsys.readouterr()
    assert cli.main(["sweep", "--config", cfgp, "--output-dir", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_sweep_check_replay(tmp_path, capsys):
    out1 = tmp_path / "r1"
    cfgp = sweep_config(tmp_path, out1)
    code, first = run_cli(capsys, "sweep", "--config", cfgp)
    code, replay = run_cli(capsys, "sweep", "--config", cfgp, "--check")
    assert code == 0
    assert replay == first


@pytest.mark.parametrize("family,p,q,predicted", [
    ("k0-deltas", "5/2", "10/3", 0.4),
    ("k1-slab", "5/2", "5", 0.0),
    ("delta-ball", "5/2", "10/3", 0.0),
])
def test_sweep_check_replay_tube_families(tmp_path, capsys, family, p, q,
                                          predicted):
    cfgp = sweep_config(tmp_path, tmp_path / "r1", family=family, p=p, q=q)
    code, first = run_cli(capsys, "sweep", "--config", cfgp)
    replay_code, replay = run_cli(capsys, "sweep", "--config", cfgp, "--check")
    assert first["predicted"] == pytest.approx(predicted, abs=1e-12)
    assert replay_code == code
    assert replay == first


@pytest.mark.parametrize("body,message", [
    ("family = k0-deltas\np = 5/2\nq = 10/3\nscales = 1/4, 1/8\n", None),
    ("family = c1-squashed\np = 2\nq = 5/3\nscales = 1/4, 1/8\n", None),
    ("family = c1-squashed\nn = three\np = 2\nq = 5/3\n"
     "scales = 1/4, 1/8, 1/16\n", "error: line 3: bad value for 'n': 'three'\n"),
    ("family = c1-squashed\nmc_samples = 5\np = 2\nq = 5/3\n"
     "scales = 1/4, 1/8, 1/16\n",
     "error: line 3: unknown config key 'mc_samples'\n"),
    ("family = c1-squashed\np = 0\nq = 5/3\nscales = 1/4, 1/8, 1/16\n", None),
    ("family = delta-ball\np = 2\nq = -1\nscales = 1/4, 1/8, 1/16\n", None),
    ("family = k0-deltas\nn = 1\np = 2\nq = 2\nscales = 1/4, 1/8, 1/16\n",
     None),
    ("family = k0-deltas\np = 5/2\nq = 10/3\nscales = 1/2, 1, 2\n", None),
    ("family = k1-slab\np = 2\nq = 2\nscales = 1/4, 1/8, 1/16\n"
     "tolerance = nan\n", None),
    ("family = k1-slab\np = 2\nq = 2\nscales = 1/4, 1/8, 1/16\n"
     "box_constant = nan\n", None),
    ("family = knapp-classic\ngrid_n = 0\np = 2\nq = 4\n"
     "scales = 1/4, 1/8, 1/16\n",
     "error: line 3: bad value for 'grid_n': 0 (need grid_n >= 1)\n"),
    ("family = knapp-classic\ngrid_n = -5\np = 2\nq = 4\n"
     "scales = 1/4, 1/8, 1/16\n",
     "error: line 3: bad value for 'grid_n': -5 (need grid_n >= 1)\n"),
    ("command = nonsense\nfamily = knapp-classic\np = 2\nq = 4\n"
     "scales = 1/4, 1/8, 1/16\n",
     "error: line 2: unknown command 'nonsense' (need 'sweep')\n"),
    ("family = c1-squashed\np = 2\nq = 5/3\nscales = 1/4, 1/8, 1/16\n"
     "command = verify\n",
     "error: line 6: unknown command 'verify' (need 'sweep')\n"),
    ("command =\nfamily = c1-squashed\np = 2\nq = 5/3\n"
     "scales = 1/4, 1/8, 1/16\n",
     "error: line 2: unknown command '' (need 'sweep')\n"),
], ids=["two-scale-k0", "two-scale-c1", "n-not-an-integer", "mc-samples",
        "p-zero", "q-negative", "n-one", "k0-delta-above-quarter",
        "tolerance-nan", "box-constant-nan-tube-family", "grid-n-zero",
        "grid-n-negative", "command-nonsense", "command-verify",
        "command-empty"])
def test_sweep_input_errors_exit_usage(tmp_path, capsys, body, message):
    outdir = tmp_path / "out"
    path = tmp_path / "bad.cfg"
    path.write_text(f"command = sweep\n{body}seed = 1\noutput_dir = {outdir}\n")
    code = cli.main(["sweep", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert message is None or err == message
    assert not (outdir / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--seed", "5", "verify", "--suite", "lemmas"],
    ["--config", "{cfg}", "sweep"],
    ["exponents", "modest", "--tolerance", "nan", "--output-dir", "{missing}"],
    ["verify", "--suite", "lemmas", "--tolerance", "0.2"],
    ["witness", "--family", "c1-squashed", "--n", "2", "--scale", "0.25",
     "--seed", "5"],
    ["exponents", "x-imply", "--n", "4", "--p", "170/77", "--q", "34/9"],
    ["exponents", "table1", "--n", "7"],
    ["exponents", "sharp-line", "--n", "3", "--p", "5", "--q", "4"],
    ["exponents", "bootstrap", "--steps", "-3"],
    ["exponents", "lemma-alpha", "--n", "3", "--p", "5/2", "--q", "10/3"],
    ["exponents", "sharp-line", "--n", "3"],
    ["exponents", "x-imply", "--p", "5/2"],
    ["exponents", "bootstrap", "--alph", "1", "--s", "3"],
    ["exponents", "whitney-check", "--p-t", "199/100"],
    ["witness", "--family", "knapp-classic", "--n", "2", "--scale", "0.25",
     "--box", "2"],
], ids=["seed-before-verify", "config-before-sweep", "exponents-sweep-flags",
        "verify-tolerance", "witness-seed", "x-imply-n", "table1-n",
        "sharp-line-p", "bootstrap-steps-without-alpha",
        "lemma-alpha-without-alpha", "sharp-line-without-q", "x-imply-without-q",
        "bootstrap-flag-prefixes", "whitney-check-flag-prefix",
        "witness-flag-prefix"])
def test_flags_only_where_they_are_read(tmp_path, capsys, argv):
    cfgp = sweep_config(tmp_path, tmp_path / "never-written")
    code = cli.main([a.format(cfg=cfgp, missing=tmp_path / "missing")
                     for a in argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert not (tmp_path / "never-written").exists()


@pytest.mark.parametrize("sub, flag", [("lemma-alpha", "alpha"), ("sharp-line", "q"),
                                       ("x-imply", "q")])
def test_a_missing_required_flag_is_named(capsys, sub, flag):
    assert cli.main(["exponents", sub]) == cli.EXIT_USAGE
    assert f"required: --{flag}" in capsys.readouterr().err


def test_bootstrap_steps_are_capped(capsys):
    cap = exponents.MAX_BOOTSTRAP_STEPS
    argv = ["exponents", "bootstrap", "--alpha", "1", "--steps"]
    code, out = run_cli(capsys, *argv, str(cap))
    assert code == cli.EXIT_PASS and len(out["iterates"]) == cap + 1
    code = cli.main(argv + [str(cap + 1)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


_EVERY_EXPONENT_FLAG = sorted({flag for flags in cli.EXPONENT_FLAGS.values()
                               for flag in flags})
# own flags that make a subcommand run where its defaults are refused
_RUNNABLE = {"lemma-alpha": ["--alpha", "3/80"], "sharp-line": ["--q", "4"],
             "x-imply": ["--q", "3"]}


@pytest.mark.parametrize("command", [["exponents", sub] for sub in cli.EXPONENT_FLAGS]
                         + [["region"]], ids=" ".join)
def test_foreign_exponent_flags_exit_usage(capsys, command):
    """Each exponents subcommand, and region, runs with its own flags alone
    and stops at the parser (exit 2, usage on stderr, nothing on stdout) on
    any flag that only another subcommand declares."""
    argv = command + _RUNNABLE.get(command[-1], [])
    assert cli.main(argv) == cli.EXIT_PASS
    capsys.readouterr()
    own = cli.EXPONENT_FLAGS[command[-1]]
    for flag in (f for f in _EVERY_EXPONENT_FLAG if f not in own):
        code = cli.main(argv + ["--" + flag, "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_USAGE, ""), flag
        assert captured.err.startswith("usage: "), flag


def test_readme_usage_lines_exit_zero(capsys):
    """Every exponents, region and witness line of the README's CLI usage
    block runs and exits 0, and the block shows every exponents subcommand."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    runs = [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith(("tubelab exponents ", "tubelab region ",
                                "tubelab witness "))]
    assert {argv[1] for argv in runs if argv[0] == "exponents"} == set(cli.EXPONENT_FLAGS)
    assert [argv for argv in runs if cli.main(argv) != cli.EXIT_PASS] == []


def test_verify_reads_its_seed(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "lemmas",
                        lambda seed: {"probe": {"pass": True, "seed": seed}})
    code, out = run_cli(capsys, "verify", "--suite", "lemmas", "--seed", "5")
    assert code == 0 and out["suites"]["lemmas"]["probe"]["seed"] == 5
    code, out = run_cli(capsys, "verify", "--suite", "lemmas")
    assert code == 0 and out["suites"]["lemmas"]["probe"]["seed"] == 0


def test_sweep_flags_override_config_lines(tmp_path, capsys):
    cfgp = sweep_config(tmp_path, tmp_path / "from-config")
    out2 = tmp_path / "from-flag"
    code, summary = run_cli(capsys, "sweep", "--config", cfgp, "--seed", "5",
                            "--tolerance", "0.2", "--output-dir", str(out2))
    assert code == 0 and summary["tolerance"] == 0.2
    rows = (out2 / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",5") for row in rows)
    assert not (tmp_path / "from-config").exists()
    code = cli.main(["sweep", "--config", cfgp, "--tolerance", "nan"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err == ("error: --tolerance: bad value for 'tolerance': "
                   "need a non-negative finite value\n")


@pytest.mark.parametrize("args", [
    ["--config", "missing.cfg"],
    ["--config", "c1-squashed.cfg", "--check"],
], ids=["missing-config", "check-without-csv"])
def test_sweep_unreadable_input_exit_usage(tmp_path, capsys, monkeypatch,
                                           args):
    monkeypatch.chdir(tmp_path)
    sweep_config(tmp_path, tmp_path / "never-written")
    code = cli.main(["sweep", *args])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: cannot read ") and "Traceback" not in err


@pytest.mark.parametrize("row", [
    "0.125,nan", "0.125,inf", "inf,1.5", "0.0,1.5", "-0.125,1.5",
], ids=["nan-ratio", "inf-ratio", "inf-scale", "zero-scale", "negative-scale"])
@pytest.mark.parametrize("family", ["c1-squashed", "c0-modulated"])
def test_sweep_check_non_finite_rows_exit_usage(tmp_path, capsys, family, row):
    outdir = tmp_path / "r1"
    outdir.mkdir()
    (outdir / "sweep.csv").write_text(
        "family,n,p,q,scale,ratio,grid_n,seed\n"
        + "".join(f"{family},3,2,5/3,{r},16,7\n"
                  for r in ("0.25,1.0", row, "0.0625,4.0")))
    cfgp = sweep_config(tmp_path, outdir, family=family)
    code = cli.main(["sweep", "--config", cfgp, "--check"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("error: ") and "finite" in captured.err


@pytest.mark.parametrize("field,value", [
    (0, "knapp-classic"), (1, "2"), (2, "5/2"), (3, "3"), (6, "32"),
], ids=["family", "n", "p", "q", "grid-n"])
def test_sweep_check_refuses_rows_of_another_config(tmp_path, capsys, field,
                                                    value):
    # rows the c1-squashed, n = 3, p = 2, q = 5/3, grid_n = 16 config would
    # write, with one of those columns changed on the second row
    outdir = tmp_path / "r1"
    outdir.mkdir()
    rows = [f"c1-squashed,3,2,5/3,{s},{r},16,7".split(",")
            for s, r in (("0.25", "1.0"), ("0.125", "2.0"), ("0.0625", "4.0"))]
    rows[1][field] = value
    (outdir / "sweep.csv").write_text(
        "family,n,p,q,scale,ratio,grid_n,seed\n"
        + "".join(",".join(row) + "\n" for row in rows))
    cfgp = sweep_config(tmp_path, outdir)
    code = cli.main(["sweep", "--config", cfgp, "--check"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert captured.err.startswith(f"error: {outdir / 'sweep.csv'} line 3: row ")
    assert "not from this config" in captured.err


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "{cfg}"],
    ["witness", "--family", "c1-squashed", "--n", "2", "--scale", "0.25",
     "--dump-dir", "{blocker}/dump"],
], ids=["sweep-output-dir", "witness-dump-dir"])
def test_write_errors_exit_usage(tmp_path, capsys, argv):
    blocker = tmp_path / "a-regular-file"
    blocker.write_text("")
    cfgp = sweep_config(tmp_path, blocker)
    code = cli.main([a.format(cfg=cfgp, blocker=blocker) for a in argv])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: cannot write {blocker}") and "Traceback" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["witness", "--family", "knapp-classic", "--n", "2", "--scale", "nan"],
    ["witness", "--family", "c0-modulated", "--n", "2", "--scale", "inf"],
    ["witness", "--family", "knapp-classic", "--n", "1", "--scale", "0.25"],
    ["witness", "--family", "knapp-classic", "--n", "2", "--scale", "1e-12",
     "--box-constant", "1e-300"],
    ["witness", "--family", "c0-modulated", "--n", "2", "--scale", "4e307"],
    ["witness", "--family", "c0-modulated", "--n", "2", "--scale", "1e308"],
    ["exponents", "interpolate", "--p1", "0"],
    ["exponents", "interpolate", "--p1", "1/3"],
    ["exponents", "interpolate", "--kind", "nonsense"],
    ["verify", "--suite", "lemmas", "--seed", "-1"],
    ["exponents", "bootstrap", "--alpha", "1", "--steps", "-3"],
], ids=["witness-scale-nan", "witness-c0-scale-inf", "witness-n-one",
        "witness-region-overflow", "witness-c0-probe-overflow",
        "witness-c0-centre-overflow",
        "interpolate-p1-zero",
        "interpolate-p1-third", "interpolate-unknown-kind",
        "verify-negative-seed", "bootstrap-negative-steps"])
def test_non_sweep_input_errors_exit_usage(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_interpolate_default_kind_is_linear(capsys):
    code, out = run_cli(capsys, "exponents", "interpolate", "--p1", "1",
                        "--q1", "1", "--p2", "2", "--q2", "2")
    assert code == cli.EXIT_PASS
    assert out["kind"] == exponents.LINEAR
    assert (out["inv_p"], out["inv_q"]) == ({"num": 3, "den": 4},
                                            {"num": 3, "den": 4})


def test_k0_sweep_off_the_eighth_lattice(tmp_path, capsys):
    cfgp = sweep_config(tmp_path, tmp_path / "r1", scales="7/100, 7/200, 7/400",
                        family="k0-deltas", p="5/2", q="10/3")
    code, out = run_cli(capsys, "sweep", "--config", cfgp)
    assert code == cli.EXIT_PASS and out["pass"]


def test_modulation_below_its_floor_is_a_resource_error(monkeypatch, capsys):
    monkeypatch.setattr(witnesses, "evaluate_extension",
                        lambda cap, phi, pts, gn: np.zeros(len(pts), complex))
    for kind, n, scale in ((witnesses.C0_MODULATED, 2, 8.0),
                           (witnesses.C2_STRETCHED, 3, 0.25)):
        with pytest.raises(witnesses.ModulationSearchError,
                           match=r"best modulated amplitude 0 is below the floor \d"):
            witnesses.build_witness(kind, n, scale)
    code = cli.main(["witness", "--family", "c2-stretched", "--n", "3",
                     "--scale", "0.25"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_RESOURCE and captured.out == ""
    assert captured.err.startswith("resource error: best modulated amplitude")


def test_witness_command(capsys):
    code, out = run_cli(capsys, "witness", "--family", "c1-squashed",
                        "--n", "3", "--scale", "0.125")
    assert code == 0
    assert out["f"]["support_lo"][0] == pytest.approx(-0.5 - 0.125**2)
    assert out["g"]["support_lo"][0] >= 0.25


def test_verify_unknown_suite(capsys):
    code = cli.main(["verify", "--suite", "nonsense"])
    assert code == cli.EXIT_USAGE


def test_verify_lemmas_suite_shape(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "lemmas")
    assert code == 0 and out["pass"]
    checks = out["suites"]["lemmas"]
    assert set(checks) == {"young", "quasi_orthogonality", "xr_est", "cz",
                           "xr_norm_monotone"}
    assert all(c["pass"] for c in checks.values())
    assert checks["quasi_orthogonality"]["worst"]["2.0"] <= 1 + 1e-6


def test_verify_xray_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "xray")
    assert code == 0 and out["pass"]
    checks = out["suites"]["xray"]
    assert set(checks) == {"adjoint_identity", "tube_cover", "prop111_crossing"}
    assert all(c["pass"] for c in checks.values())
    assert checks["adjoint_identity"]["worst_gap"] <= 1e-12


def test_verify_xray_suite_is_pinned(capsys):
    # a change to X, X*, the suite's draws or the Prop. 1.11 grid sum moves these
    pinned = {0: 3.325632190562399e-16, 1: 1.8458335591163939e-16}
    for seed, worst_gap in pinned.items():
        code, out = run_cli(capsys, "verify", "--suite", "xray", "--seed", str(seed))
        checks = out["suites"]["xray"]
        assert code == 0 and out["pass"]
        assert checks["adjoint_identity"] == {"pass": True, "worst_gap": worst_gap}
        assert checks["tube_cover"] == {"pass": True, "max_multiplicity": 4}
        assert checks["prop111_crossing"] == {"pass": True, "gap": 0.0008537921855685628,
                                              "constant": 5.333333175696955}


def test_verify_geometry_suite_is_pinned(capsys):
    # any change to the suite's draws or checks moves these values
    pinned = {1: (19999, 6.769976965303232), 2: (20000, 6.857616298468898)}
    for seed, (checked, worst) in pinned.items():
        code, out = run_cli(capsys, "verify", "--suite", "geometry",
                            "--seed", str(seed))
        checks = out["suites"]["geometry"]
        assert code == 0 and out["pass"]
        assert checks["whitney_unique"] == {"pass": True, "checked": checked}
        assert checks["overlap_bound"] == {"pass": True, "worst": worst}


def test_sweep_resource_guard_exit_code(tmp_path, capsys):
    path = tmp_path / "huge.cfg"
    path.write_text(
        "command = sweep\nfamily = c1-squashed\nn = 3\np = 2\nq = 5/3\n"
        "scales = 1/512, 1/1024, 1/2048\nseed = 1\n"
        f"output_dir = {tmp_path / 'o'}\n")
    code = cli.main(["sweep", "--config", str(path)])
    assert code == cli.EXIT_RESOURCE


@pytest.mark.parametrize("argv", [
    ["witness", "--family", "c0-modulated", "--n", "2", "--scale", "1e200"],
    ["witness", "--family", "c0-modulated", "--n", "3", "--scale", "2.2e307"],
    ["sweep", "--config", "{cfg}"],
], ids=["witness-c0-huge-scale", "witness-c0-largest-scale",
        "sweep-c0-huge-scales"])
def test_node_count_overflow_exits_resource(tmp_path, capsys, argv):
    cfgp = sweep_config(tmp_path, tmp_path / "o", scales="1e200, 2e200, 4e200",
                        family="c0-modulated", p="2", q="4")
    code = cli.main([a.format(cfg=cfgp) for a in argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_RESOURCE and captured.out == ""
    assert captured.err.startswith("resource error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [
    *[pytest.param(f"sweep {family} {n}", id=f"sweep-{family}-n{n}")
      for family in ("k0-deltas", "delta-ball") for n in (33, 66)],
    *[pytest.param(f"witness --family {family} --n {n} --scale {scale}",
                   id=f"witness-{family}-n{n}")
      for family, scale in (("c2-stretched", "0.125"), ("c0-modulated", "8"))
      for n in (33, 40)],
    *[pytest.param(f"witness --family c1-squashed --n {n} --scale 0.125 --dump-dir dump",
                   id=f"dump-c1-squashed-n{n}") for n in (33, 70)],
])
def test_grids_past_the_point_cap_exit_resource(tmp_path, capsys, command):
    # the net, probe mesh or dump grid of 9^32, 3^33 or 17^33 points and up
    # (past numpy's dimension and size limits) is refused by its exact count
    argv = command.split()
    if argv[0] == "sweep":
        cfg = pathlib.Path(sweep_config(tmp_path, tmp_path / "o", family=argv[1]))
        cfg.write_text(cfg.read_text().replace("n = 3", f"n = {argv[2]}"))
        argv = ["sweep", "--config", str(cfg)]
    code = cli.main([str(tmp_path / a) if a == "dump" else a for a in argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_RESOURCE and captured.out == ""
    assert captured.err.startswith("resource error: a grid of ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "o").exists() and not (tmp_path / "dump").exists()


@pytest.mark.parametrize("family", ["knapp-classic", "c1-squashed"])
def test_witnesses_that_form_no_grid_run_at_n_33(capsys, family):
    code, out = run_cli(capsys, "witness", "--family", family, "--n", "33",
                        "--scale", "0.125")
    assert code == 0 and len(out["f"]["support_lo"]) == 32


def test_sweep_refuses_a_negative_seed(tmp_path, capsys):
    # as verify refuses --seed -1: on the config line, and as the flag
    cfg = pathlib.Path(sweep_config(tmp_path, tmp_path / "o"))
    text = cfg.read_text()
    for lines, flags, message in (
            (text.replace("seed = 7", "seed = -7"), [], "line 7: bad value for 'seed': -7"),
            (text, ["--seed", "-1"], "--seed: bad value for 'seed': -1")):
        cfg.write_text(lines)
        code = cli.main(["sweep", "--config", str(cfg), *flags])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == ""
        assert captured.err == f"error: {message} (need seed >= 0)\n"
    assert not (tmp_path / "o").exists()


def test_every_library_error_derives_from_one_base():
    from tubelab import (TubelabError, extension, fields, geometry, lemmas,
                         xray)

    modules = (cli, exponents, extension, fields, geometry, lemmas, witnesses,
               xray)
    errors = {obj for mod in modules for obj in vars(mod).values()
              if isinstance(obj, type) and issubclass(obj, Exception)
              and obj.__module__ == mod.__name__}
    assert all(issubclass(err, TubelabError) for err in errors)
    assert {err.__name__: err.exit_code for err in errors} == {
        "ConfigError": 2, "ExponentDomainError": 2, "ExtensionError": 2,
        "OscillationGuardError": 3, "FieldError": 2, "GeometryError": 2,
        "DepthExceededError": 2, "DegenerateInputError": 2, "LemmaError": 2,
        "WitnessError": 2, "ModulationSearchError": 3, "XrayError": 2}


def test_region_command_alias(capsys):
    code, out = run_cli(capsys, "region",
                        "--kind", "kakeya-bilinear-conjecture", "--n", "3")
    assert code == 0
    verts = [tuple((v[0]["num"], v[0]["den"], v[1]["num"], v[1]["den"]))
             for v in out["vertices"]]
    assert (1, 3, 1, 3) in verts


# Value pools for the fuzzed sweep configs: valid values, then malformed,
# out-of-range and unknown ones.  The valid dimensions and scales are the
# cheap ones (n = 2, the coarsest dyadic scales), so that the configs that
# do run stay fast.
_FUZZ_VALID = {
    "family": sorted(witnesses.FAMILIES),
    "n": ["2"],
    "p": ["2", "5/2", "1", "4"],
    "q": ["2", "10/3", "1", "5"],
    "scales": ["1/4, 1/8, 1/16", "4, 8, 16"],
}
# c0-modulated scales R past the quadrature node cap, up to 1e308 (where
# the witness box and the later scales of a sweep overflow)
_C0_HUGE_R = st.floats(min_value=1e100, max_value=1e308)
_C0_HUGE_SCALES = _C0_HUGE_R.map(lambda r: f"{r!r}, {2 * r!r}, {4 * r!r}")
_NUMBERS = ["0", "-1", "1/0", "x", "", "1e400", "1e-400", "nan", "inf"]
_FUZZ_OTHER = {
    "command": ["verify", ""],
    "family": ["nonsense", ""],
    "n": ["1", "0", "-2", "three", "2.5", ""],
    "p": _NUMBERS,
    "q": _NUMBERS,
    "scales": ["1/2, 1, 2", "1/4, 1/8", "1/4, 1/6, 1/16", "0, 1/8, 1/16",
               "-1/4, -1/8, -1/16", "1/4,, x", "inf, 1/8, 1/16", ""],
    "grid_n": ["0", "-4", "x", "4"],
    "seed": ["-1", "x", ""],
    "box_constant": ["0", "-1", "nan", "x", "1e-9", "1e9"],
    "tolerance": ["-1", "nan", "inf", "x"],
    "mc_samples": ["5"],
    "bogus": ["1"],
}
_FUZZ_LINES = st.one_of(
    st.sampled_from(sorted(_FUZZ_OTHER)).flatmap(
        lambda key: st.sampled_from(_FUZZ_VALID.get(key, [])
                                    + _FUZZ_OTHER[key]).map(
            lambda value: f"{key} = {value}")),
    st.sampled_from(["no equals sign", "# comment", "= 3", ""]),
)
_CSV_FIELDS = ["0.25", "0.125", "0.0625", "8.0", "16.0", "1.5", "nan", "inf",
               "-inf", "0", "-1", "x", ""]
_CSV_ROWS = st.one_of(
    st.tuples(st.sampled_from(sorted(witnesses.FAMILIES)),
              st.sampled_from(_CSV_FIELDS), st.sampled_from(_CSV_FIELDS)).map(
        lambda t: f"{t[0]},2,2,2,{t[1]},{t[2]},16,1"),
    st.sampled_from(["malformed", "1,2,3", "", ",,,,,,,"]),
)
_FUZZ_FLAGS = [["--check"], ["--seed", "3"], ["--seed", "x"],
               ["--tolerance", "0.2"], ["--tolerance", "nan"],
               ["--output-dir", "out2"], ["--config", "missing.cfg"],
               ["--threads", "1"], ["-h"]]


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name} in the output")


@settings(max_examples=200, deadline=None)
@given(base=st.fixed_dictionaries({key: st.sampled_from(values)
                                   for key, values in _FUZZ_VALID.items()}),
       lines=st.lists(_FUZZ_LINES, max_size=4),
       flags=st.lists(st.sampled_from(_FUZZ_FLAGS), max_size=3),
       with_config=st.sampled_from([True, True, True, False]),
       csv_rows=st.lists(_CSV_ROWS, max_size=5),
       c0_scales=st.one_of(st.none(), _C0_HUGE_SCALES))
def test_fuzzed_sweep_input_exit_codes(base, lines, flags, with_config,
                                       csv_rows, c0_scales):
    """Random config text, argv and (under --check) stored sweep.csv rows end
    in a documented exit code, never in an escaping exception, and any JSON
    printed is standard JSON (no NaN or Infinity)."""
    # a valid line per sweep key makes a runnable config likely; the random
    # lines after it may override any of them
    if c0_scales is not None:
        base = {**base, "family": "c0-modulated", "scales": c0_scales}
    text = "\n".join(["command = sweep", "seed = 1"]
                     + [f"{key} = {value}" for key, value in base.items()]
                     + lines + ["output_dir = out"])
    argv = (["sweep"] + (["--config", "sweep.cfg"] if with_config else [])
            + [token for flag in flags for token in flag])
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("sweep.cfg", "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            if "--check" in argv:
                outdir = "out2" if "out2" in argv else "out"
                os.mkdir(outdir)
                with open(os.path.join(outdir, "sweep.csv"), "w",
                          encoding="utf-8") as fh:
                    fh.write("\n".join(["family,n,p,q,scale,ratio,grid_n,seed"]
                                       + csv_rows) + "\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    assert code in (cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_USAGE,
                    cli.EXIT_RESOURCE)
    assert "Traceback" not in err.getvalue()
    if out.getvalue().strip() and "-h" not in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# Value pools for the fuzzed non-sweep argv: random rationals and the
# special values, random kinds (estimate kinds, region kinds, unknown).
_FUZZ_RATIONALS = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=12).map(str),
    st.sampled_from(["0", "-1", "1/0", "nan", "inf", "-inf", "x", ""]),
)
_FUZZ_KINDS = st.sampled_from([
    exponents.LINEAR, exponents.BILINEAR, exponents.KAKEYA,
    exponents.KAKEYA_BILINEAR, exponents.RESTRICTION,
    exponents.BILINEAR_RESTRICTION, exponents.KAKEYA_BILINEAR_REGION,
    "restriction", "bilinear-restriction", "kakeya-bilinear", "nonsense", ""])
_FUZZ_DIMS = st.sampled_from(["-1", "0", "1", "2", "3", "4", "x"])
_EXPONENT_OPTIONS = {
    "--n": _FUZZ_DIMS,
    "--steps": st.sampled_from(["-3", "0", "5", "40", "x"]),
    "--kind": _FUZZ_KINDS,
    **{flag: _FUZZ_RATIONALS for flag in (
        "--p", "--q", "--alpha", "--p1", "--q1", "--p2", "--q2", "--theta",
        "--p-tilde")},
}
# witness scales stay at delta <= 1/4 on the two families that need no
# modulation search, so every built witness is cheap
_FUZZ_SCALES = st.one_of(
    st.floats(min_value=0.0, max_value=0.25).map(repr),
    st.sampled_from(["0", "-1", "1/0", "1/8", "nan", "inf", "-inf", "x"]),
)
_FUZZ_BOX_CONSTANTS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
    st.sampled_from(["0", "-1", "nan", "inf", "x"]),
)


def _options(pool: dict):
    return st.dictionaries(st.sampled_from(sorted(pool)), st.just(None)).flatmap(
        lambda keys: st.fixed_dictionaries({k: pool[k] for k in keys}))


def _exponent_argv(command: list, sub: str):
    """command followed by a random subset of sub's own flags (none for an
    unknown sub), so that most draws get past the parser."""
    own = {"--" + flag: _EXPONENT_OPTIONS["--" + flag]
           for flag in cli.EXPONENT_FLAGS.get(sub, ())}
    return (_options(own) if own else st.just({})).map(
        lambda o: command + [x for kv in o.items() for x in kv])


_NON_SWEEP_ARGV = st.one_of(
    st.sampled_from([*cli.EXPONENT_FLAGS, "nonsense"]).flatmap(
        lambda sub: _exponent_argv(["exponents", sub], sub)),
    _exponent_argv(["region"], "region"),
    st.tuples(st.sampled_from(["knapp-classic", "c1-squashed"]), _FUZZ_DIMS,
              _FUZZ_SCALES, _options({"--box-constant": _FUZZ_BOX_CONSTANTS})).map(
        lambda t: ["witness", "--family", t[0], "--n", t[1], "--scale", t[2]]
        + [x for kv in t[3].items() for x in kv]),
    st.tuples(_FUZZ_DIMS, _C0_HUGE_R).map(
        lambda t: ["witness", "--family", "c0-modulated", "--n", t[0],
                   "--scale", repr(t[1])]),
)


@settings(max_examples=300, deadline=None)
@given(argv=_NON_SWEEP_ARGV)
def test_fuzzed_non_sweep_argv_exit_codes(argv):
    """Random argv for every exponents subcommand, region and witness ends
    in exit 0, 2 or 3, never in an escaping exception, and any JSON printed
    is standard JSON (no NaN or Infinity)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_PASS, cli.EXIT_USAGE, cli.EXIT_RESOURCE)
    assert "Traceback" not in err.getvalue()
    if out.getvalue().strip():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
