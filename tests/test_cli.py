import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from nlstab import cli, operators, spectra
from nlstab.cli import ConfigError, main, parse_config, run, write_csv
from nlstab.profiles import dark_soliton_momentum_exact


def _run_cli(tmp_path, text, name="run", seed=0):
    cfg = tmp_path / (name + ".cfg")
    cfg.write_text(text)
    out = tmp_path / name
    code = main(["--config", str(cfg), "--out", str(out), "--seed", str(seed)])
    return code, out


def test_parse_config():
    cfg = parse_config("a=1\n# comment\n b.c = x=y \n\n")
    assert cfg == {"a": "1", "b.c": "x=y"}
    with pytest.raises(ConfigError):
        parse_config("not a pair")
    # a repeated key is an error, not a silent last-one-wins
    with pytest.raises(ConfigError, match="line 3: repeated key 'grid.N'"):
        parse_config("grid.N=512\n# again\ngrid.N = 1024\n")


def test_unknown_command_is_config_error(tmp_path):
    code, _ = _run_cli(tmp_path, "command=frobnicate\n")
    assert code == 1


def test_unknown_key_is_config_error(tmp_path, capsys):
    # a typo must not run silently on the defaults
    code, out = _run_cli(tmp_path, "command=profile\ngrid.n=64\n")
    assert code == 1
    assert "grid.n" in capsys.readouterr().err
    assert not (out / "profile.json").exists()
    with pytest.raises(ConfigError, match="grid.n"):
        run({"command": "profile", "grid.n": "64"}, str(tmp_path / "direct"))
    # keys that no command reads: spectra take Lc on a truncated grid,
    # shooting its own domain and tolerance, and grid.L and grid.N set
    # every axis
    gp = ["nonlinearity.kind=gp", "grid.N=512"]
    for lines in [["command=spectrum", "spectrum.kind=Lc"] + gp,
                  ["command=profile", "grid.boundary=truncated"] + gp,
                  ["command=shoot", "shoot.rmax=60"] + CQ_LINES,
                  ["command=shoot", "shoot.tol=1e-12"] + CQ_LINES,
                  ["command=profile", "grid.L1=50", "nonlinearity.kind=gp",
                   "grid.dim=1", "grid.N=256"],
                  ["command=profile", "grid.N1=128", "grid.dim=2",
                   "grid.N=64", "profile.kind=bubble-radial"] + CQ_LINES]:
        key = lines[1].split("=")[0]
        code, _ = _run_cli(tmp_path, "\n".join(lines), name=key)
        assert code == 1, key
        assert key in capsys.readouterr().err


def test_keys_are_the_keys_read():
    # each command accepts exactly the keys that it, or a cli function it
    # calls, reads through _get
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def reads(name):
        keys = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "_get":
                    keys.add(node.args[1].value)
                elif node.func.id in functions:
                    keys |= reads(node.func.id)
        return keys

    assert set(cli.KEYS) == set(cli.COMMANDS)
    for command, function in cli.COMMANDS.items():
        assert cli.KEYS[command] == reads(function.__name__), command


@pytest.mark.parametrize("lines", [
    ["command=branch", "speed.c=0.9", "speed.list=0,0.1,0.2",
     "nonlinearity.kind=gp", "grid.N=512"],
    ["command=profile", "speed.list=0,0.1,0.2", "nonlinearity.kind=gp",
     "grid.N=512"]], ids=["branch-speed.c", "profile-speed.list"])
def test_a_key_of_another_command_is_config_error(tmp_path, capsys, lines):
    # speed.c sets the wave of a single-speed command, speed.list the
    # speeds of a branch: neither command reads the other's key
    key = lines[1].split("=")[0]
    code, out = _run_cli(tmp_path, "\n".join(lines))
    assert code == 1
    assert "%s does not read: %s" % (lines[0], key) in capsys.readouterr().err
    assert not any(out.iterdir())


def test_missing_config_file(tmp_path):
    code = main(["--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("header, columns, rows", [
    (["x", "comp1", "comp2"], [[-1.0, 0.5], [1.0, 1.0], [0.0, 0.1]],
     ["-1,1,0", "0.5,1,0.10000000000000001"]),
    (["c", "P", "E", "dPdc", "newton_iters", "residual",
      "projected_residual"],
     [[0.25, 0.5], [-1.5, -2.0], [1.0, 1.25], [None, -4.0], [4, 0],
      [0.125, 2.0 ** -40], [2.0 ** -45, None]],
     ["0.25,-1.5,1,,4,0.125,2.8421709430404007e-14",
      "0.5,-2,1.25,-4,0,9.0949470177292824e-13,"]),
    (["k", "lambda_u", "n_neg"], [[0.0, 0.5], [0.25, 0.0], [1, 0]],
     ["0,0.25,1", "0.5,0,0"]),
    (["t", "E", "P", "proj_u", "proj_s"],
     [[0.0, 0.5], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]],
     ["0,1,2,3,4", "0.5,1,2,3,4"]),
    (["r", "u", "uprime", "phi"],
     [np.array([0.0, 1.5]), np.array([1.0, 0.5]), np.array([0.0, -0.25]),
      np.array([1.0, -2.0])],
     ["0,1,0,1", "1.5,0.5,-0.25,-2"]),
], ids=["profile", "branch", "band", "monitors", "shoot"])
def test_write_csv(tmp_path, header, columns, rows):
    # the header line, then every value at 17 significant digits (ints
    # as integers) and None as an empty field
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_text().splitlines() == [",".join(header)] + rows


def test_profile_command(tmp_path):
    code, out = _run_cli(tmp_path, "\n".join([
        "command=profile",
        "nonlinearity.kind=gp",
        "grid.N=512", "grid.L=40", "speed.c=0.0",
    ]))
    assert code == 0
    for name in ("profile.bin", "profile.csv", "profile.json"):
        assert (out / name).exists()
    meta = json.loads((out / "profile.json").read_text())
    assert meta["c"] == 0.0
    assert meta["residual"] <= 1e-2
    assert meta["projected_residual"] is None    # a closed form, not solved
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "x,comp1,comp2"
    assert len(lines) == 513


def test_profile_command_moving_bubble(tmp_path):
    code, out = _run_cli(tmp_path, "\n".join(
        ["command=profile", "profile.kind=bubble-line", "grid.N=512",
         "speed.c=0.01"] + CQ_BUBBLE))
    assert code == 0
    meta = json.loads((out / "profile.json").read_text())
    assert meta["c"] == 0.01 and meta["representation"] == "hydro"
    assert meta["projected_residual"] <= 1e-11


def test_branch_command_slow_wave_verdict(tmp_path):
    code, out = _run_cli(tmp_path, "\n".join([
        "command=branch",
        "nonlinearity.kind=cubic-quintic",
        "nonlinearity.alpha1=0.2",
        "nonlinearity.alpha3=1.0",
        "nonlinearity.alpha5=1.0",
        "grid.dim=1", "grid.N=512", "grid.L=30",
        "speed.list=0.01,0.02,0.03",
    ]))
    assert code == 0
    verdict = json.loads((out / "branch.json").read_text())
    assert verdict["verdict"] == "unstable (dP/dc<0)"
    lines = (out / "branch.csv").read_text().splitlines()
    assert lines[0] == "c,P,E,dPdc,newton_iters,residual,projected_residual"
    assert len(lines) == 4
    assert all(float(line.split(",")[-1]) <= 1e-11 for line in lines[1:])


def test_branch_command_symmetric_speeds(tmp_path):
    # the wave at -c is the conjugate of the wave at c: P is odd and E
    # even in c to the last bit, and only one of the pair is solved
    code, out = _run_cli(tmp_path, "\n".join(
        ["command=branch", "grid.N=512", "grid.L=30",
         "speed.list=-0.004,0,0.004"] + CQ_LINES))
    assert code == 0
    rows = [line.split(",") for line in
            (out / "branch.csv").read_text().splitlines()[1:]]
    (c_lo, p_lo, e_lo), (c_hi, p_hi, e_hi) = (
        [float(v) for v in rows[i][:3]] for i in (0, 2))
    assert c_lo == -c_hi and p_lo == -p_hi != 0.0 and e_lo == e_hi
    assert [int(row[4]) for row in rows][1:] == [0, 0]
    assert int(rows[0][4]) > 0


def test_branch_command_dark_soliton_verdict(tmp_path):
    code, out = _run_cli(tmp_path, "\n".join([
        "command=branch", "nonlinearity.kind=gp", "grid.N=512", "grid.L=40",
        "speed.list=0.3,0.4,0.5",
    ]))
    assert code == 0
    verdict = json.loads((out / "branch.json").read_text())
    assert verdict["verdict"] == "stable (dP/dc>0)"
    rows = (out / "branch.csv").read_text().splitlines()[1:]
    for row in rows:
        c, p = (float(v) for v in row.split(",")[:2])
        exact = dark_soliton_momentum_exact(c)
        assert abs(p - exact) <= 1e-2 * abs(exact)
        assert row.endswith(",")     # closed forms: no Newton residual


def test_spectrum_command(tmp_path):
    code, out = _run_cli(tmp_path, "\n".join([
        "command=spectrum",
        "nonlinearity.kind=gp",
        "grid.N=512", "grid.L=40", "speed.c=0.5",
    ]))
    assert code == 0
    rep = json.loads((out / "spectrum.json").read_text())
    assert rep["n_negative"] == 1
    nd = json.loads((out / "nondegeneracy.json").read_text())
    assert nd["kernel_dim"] == 1


CQ_BUBBLE = ["nonlinearity.kind=cubic-quintic", "nonlinearity.alpha1=0.2",
             "nonlinearity.alpha3=1.0", "nonlinearity.alpha5=1.0",
             "grid.L=30"]


@pytest.mark.parametrize("profile, grid, kernel", [
    ("bubble-radial", ["grid.dim=2", "grid.N=64"], 2),
    ("bubble-line", ["grid.dim=1", "grid.N=1024"], 1),
], ids=["radial-64x64", "line-1024"])
def test_spectrum_defaults_to_lc_for_a_bubble(tmp_path, profile, grid, kernel):
    # a density/phase wave gets the verdict operator Lc like any other
    code, out = _run_cli(tmp_path, "\n".join(
        ["command=spectrum", "profile.kind=" + profile] + CQ_BUBBLE + grid))
    assert code == 0
    rep = json.loads((out / "spectrum.json").read_text())
    assert rep["kind"] == "Lc"
    assert rep["n_negative"] == 1
    nd = json.loads((out / "nondegeneracy.json").read_text())
    assert nd["kernel_dim"] == kernel and nd["n_negative"] == 1
    # in 2D the kernel window resolves the translations only to the
    # operator's O(h^2) translation residual (1.9e-2 at 64^2)
    assert nd["verdict"] == "non-degenerate"
    assert nd["worst_projection_residual"] <= nd["residual_bound"]


def test_spectrum_of_a_radial_bubble_with_double_eigenvalues(tmp_path):
    # the sectors m >= 1 of the radial bubble come in near-double pairs on
    # the square grid: 31 eigenvalues lie below the kernel threshold, and
    # Lanczos asked for exactly 31 returns 30
    law = [key for key in CQ_BUBBLE if not key.startswith("grid.L=")]
    code, out = _run_cli(tmp_path, "\n".join(
        ["command=spectrum", "profile.kind=bubble-radial", "grid.L=40",
         "grid.dim=2", "grid.N=128"] + law))
    assert code == 0
    nd = json.loads((out / "nondegeneracy.json").read_text())
    assert nd["verdict"] == "non-degenerate"
    assert (nd["n_negative"], nd["kernel_dim"]) == (1, 2)


def test_transversal_command(tmp_path):
    code, out = _run_cli(tmp_path, "\n".join([
        "command=transversal",
        "nonlinearity.kind=gp",
        "grid.N=1024", "grid.L=40", "speed.c=0.0",
        "transversal.samples=2", "transversal.hamN=512",
    ]))
    assert code == 0
    band = json.loads((out / "band.json").read_text())
    assert abs(band["band"][1] - np.sqrt(0.5)) < 1e-2
    lines = (out / "band.csv").read_text().splitlines()
    assert lines[0] == "k,lambda_u,n_neg"


def test_shoot_command(tmp_path):
    code, out = _run_cli(tmp_path, "\n".join([
        "command=shoot",
        "nonlinearity.kind=cubic-quintic",
        "nonlinearity.alpha1=0.2",
        "nonlinearity.alpha3=1.0",
        "nonlinearity.alpha5=1.0",
        "shoot.dim=2",
    ]))
    assert code == 0
    verdict = json.loads((out / "shoot.json").read_text())
    assert verdict["verdict"] == "non-degenerate"
    lines = (out / "shoot.csv").read_text().splitlines()
    assert lines[0] == "r,u,uprime,phi"
    assert verdict["conditions"]["G1"] is True


def test_shoot_command_below_u1(tmp_path):
    # the 2D ground state of (0.24, 1, 1) lies below u1
    code, out = _run_cli(tmp_path, "\n".join([
        "command=shoot", "nonlinearity.kind=cubic-quintic",
        "nonlinearity.alpha1=0.24", "nonlinearity.alpha3=1.0",
        "nonlinearity.alpha5=1.0", "shoot.dim=2"]))
    assert code == 0
    alpha0 = json.loads((out / "shoot.json").read_text())["alpha0"]
    assert abs(alpha0 - 0.3651279) <= 1e-6


def test_evolve_and_report(tmp_path):
    text = "\n".join([
        "command=evolve",
        "nonlinearity.kind=gp",
        "grid.N=512", "grid.L=40", "speed.c=0.8",
        "profile.polish=1",
        "evolve.T=0.2", "evolve.dt=1e-3",
    ])
    code, out = _run_cli(tmp_path, text)
    assert code == 0
    assert (out / "monitors.csv").exists()
    drift = json.loads((out / "evolve.json").read_text())
    assert drift["E_drift"] <= 1e-6
    cfg2 = tmp_path / "rep.cfg"
    cfg2.write_text("command=report\n")
    code2 = main(["--config", str(cfg2), "--out", str(out)])
    assert code2 == 0
    summary = json.loads((out / "report.json").read_text())
    assert "coercivity" in summary and "evolve" in summary


def test_evolve_reports_no_drift_for_an_undefined_momentum(tmp_path):
    # the c=0 soliton vanishes at x=0 and stays near 0 there (|u|^2 of
    # 1e-35 at t=0.05): its renormalized momentum is undefined at both times
    code, out = _run_cli(tmp_path, "\n".join([
        "command=evolve", "nonlinearity.kind=gp", "grid.N=512", "grid.L=40",
        "speed.c=0.0", "evolve.T=0.05", "evolve.dt=0.01",
    ]))
    assert code == 0
    rows = (out / "monitors.csv").read_text().splitlines()
    assert rows[0] == "t,E,P"
    assert [row.split(",")[2] for row in rows[1:]] == ["nan", "nan"]
    drift = json.loads((out / "evolve.json").read_text())
    assert drift["P_drift"] is None and drift["P_undefined"] == 2
    assert drift["E_undefined"] == 0 and drift["E_drift"] <= 1e-6


@pytest.mark.parametrize("line", [
    "grid.dim=3", "grid.N=100", "nonlinearity.alpha1=1.0",
    "profile.polish=yes",
], ids=lambda line: line.split("=")[0])
def test_bad_config_value_is_config_error(tmp_path, capsys, line):
    code, _ = _run_cli(tmp_path, "\n".join([
        "command=spectrum", "nonlinearity.kind=cubic-quintic",
        "nonlinearity.alpha1=0.2", "nonlinearity.alpha3=1.0",
        "nonlinearity.alpha5=1.0", "profile.kind=bubble-line",
        "grid.N=512", "grid.L=30", line,
    ]))
    assert code == 1
    assert "config error" in capsys.readouterr().err


CQ_LINES = ["nonlinearity.kind=cubic-quintic", "nonlinearity.alpha1=0.2",
            "nonlinearity.alpha3=1.0", "nonlinearity.alpha5=1.0"]


@pytest.mark.parametrize("lines", [
    ["command=profile", "nonlinearity.kind=gp", "profile.kind=bubble-line"],
    ["command=evolve", "nonlinearity.kind=gp", "grid.N=512", "evolve.T=0.01",
     "evolve.dt=0"],
    ["command=evolve", "nonlinearity.kind=gp", "grid.N=512", "evolve.T=0.01",
     "evolve.corrections=-1"],
    ["command=branch"] + CQ_LINES + ["grid.N=512", "grid.L=30",
                                     "speed.list=0.01,0.02"],
    ["command=branch"] + CQ_LINES + ["grid.N=512", "grid.L=30",
                                     "speed.list=0.1,abc,0.2"],
    ["command=branch"] + CQ_LINES + ["grid.N=512", "grid.L=30",
                                     "speed.list=0.004,-0.004,0.01"],
    ["command=branch"] + CQ_LINES + ["grid.N=512", "grid.L=30",
                                     "speed.list=0,0.01,0"],
    ["command=branch"] + CQ_LINES + ["grid.N=512", "grid.L=30",
                                     "speed.list=0,nan,0.01"],
    ["command=shoot"] + CQ_LINES + ["shoot.dim=0"],
    ["command=transversal"] + CQ_LINES + [
        "profile.kind=bubble-line", "grid.N=512", "grid.L=30",
        "transversal.samples=1", "transversal.hamN=256"],
    ["command=transversal"] + CQ_LINES + [
        "profile.kind=bubble-radial", "grid.dim=2", "grid.N=64",
        "grid.L=30", "transversal.samples=1", "transversal.hamN=32"],
    ["command=transversal", "nonlinearity.kind=gp", "grid.N=512",
     "transversal.samples=1", "transversal.hamN=100"],
    ["command=transversal", "nonlinearity.kind=gp", "grid.N=512",
     "transversal.samples=0"],
    ["command=transversal", "nonlinearity.kind=gp", "grid.N=512",
     "transversal.samples=-2"],
    ["command=evolve", "nonlinearity.kind=gp", "grid.N=512", "evolve.T=-0.02",
     "evolve.dt=0.01"],
    ["command=evolve", "nonlinearity.kind=gp", "grid.N=512", "evolve.T=0.01",
     "evolve.dt=1.0"],
    ["command=evolve", "nonlinearity.kind=gp", "grid.N=512", "evolve.T=1e300",
     "evolve.dt=1e-300"],
    ["command=profile", "nonlinearity.kind=gp", "grid.N=512", "speed.c=-0.5"],
    ["command=spectrum", "nonlinearity.kind=gp", "grid.N=512", "speed.c=1.5"],
    ["command=transversal", "nonlinearity.kind=gp", "grid.N=512",
     "speed.c=1.5", "transversal.samples=1"],
    ["command=evolve", "nonlinearity.kind=gp", "grid.N=512", "speed.c=1.5",
     "evolve.T=0.01", "evolve.dt=1e-3"],
    ["command=branch", "nonlinearity.kind=gp", "grid.N=512",
     "speed.list=0.1,0.2,1.5"],
    ["command=profile", "nonlinearity.kind=gp", "grid.N=512", "grid.L=10"],
    ["command=profile", "nonlinearity.kind=gp", "grid.dim=2", "grid.N=32"],
    ["command=profile"] + CQ_LINES + ["grid.N=512"],
    ["command=report", "speed.c=0"],
    ["command=report", "speed.c=2"],
], ids=["bubble-under-gp", "dt-zero", "negative-corrections",
        "two-speeds", "speed-not-a-number", "speeds-unordered",
        "speed-repeated", "speed-nan", "shoot-dim-zero", "hamN-cubic-quintic",
        "hamN-2D", "hamN-off-the-grid-sizes", "samples-zero", "samples-negative",
        "T-negative", "no-step", "step-count-overflow",
        "soliton-speed-negative", "soliton-speed-spectrum",
        "soliton-speed-transversal", "soliton-speed-evolve",
        "soliton-speed-branch", "soliton-half-length", "soliton-2D",
        "soliton-under-cubic-quintic", "report-speed-zero",
        "report-speed-above-sound"])
def test_bad_command_input_is_config_error(tmp_path, capsys, lines):
    # refused before any numerics: no artifact is written
    code, out = _run_cli(tmp_path, "\n".join(lines))
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not os.listdir(out)


@pytest.mark.parametrize("command", ["profile", "spectrum", "evolve"])
@pytest.mark.parametrize("lines", [
    ["profile.kind=bubble-radial", "grid.dim=1", "grid.N=512"],
    ["profile.kind=bubble-line", "grid.dim=2", "grid.N=64"],
], ids=["radial-on-1D", "line-on-2D"])
def test_bubble_geometry_against_the_grid_is_config_error(tmp_path, capsys,
                                                          command, lines):
    steps = ["evolve.T=0.01", "evolve.dt=1e-3"] if command == "evolve" else []
    code, out = _run_cli(tmp_path, "\n".join(
        ["command=" + command] + CQ_LINES + lines + steps))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "grid.dim" in err
    assert not os.listdir(out)


@pytest.mark.parametrize("polish", ["0", "1"])
@pytest.mark.parametrize("lines", [
    ["profile.kind=bubble-line", "grid.N=512"],
    ["profile.kind=bubble-radial", "grid.dim=2", "grid.N=64"],
], ids=["bubble-line", "bubble-radial"])
def test_polish_of_a_bubble_is_config_error(tmp_path, capsys, lines, polish):
    # a bubble is always Newton-polished: profile.polish=0 must not be
    # ignored silently, and profile.polish=1 asks for nothing
    code, out = _run_cli(tmp_path, "\n".join(
        ["command=profile"] + CQ_LINES + lines + ["profile.polish=" + polish]))
    assert code == 1
    assert ("profile.polish applies to dark solitons only"
            in capsys.readouterr().err)
    assert not os.listdir(out)


@pytest.mark.parametrize("speed", ["1e-300", "1.41421356237309"])
def test_report_at_the_ends_of_the_speed_range(tmp_path, capsys, speed):
    # inside (0, sqrt(2)) but where c^2 underflows, or a hair below sqrt(2):
    # the split point comes out finite in (0, 1), with no traceback
    code, out = _run_cli(tmp_path, "command=report\nspeed.c=%s\n" % speed)
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    coer = json.loads((out / "report.json").read_text())["coercivity"]
    assert 0.0 <= coer["a_opt_sq"] < 1.0
    assert abs(coer["a_opt_sq"] + coer["delta_star"] - 1.0) <= 1e-15
    a_opt = operators.coercivity_constant(float(speed))["a_opt"]
    assert 0.0 < a_opt < 1.0 and a_opt > float(speed) / np.sqrt(2.0) * 0.999


def test_report_on_a_corrupt_artifact_is_config_error(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "branch.json").write_text("{bad")
    code, _ = _run_cli(tmp_path, "command=report\n")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "branch.json" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("line", ["evolve.T=inf", "evolve.dt=inf",
                                  "evolve.perturbation=nan", "speed.c=-inf",
                                  "grid.L=nan"])
def test_non_finite_float_is_config_error(tmp_path, capsys, line):
    # every float key goes through the one cast of _get: an infinite T
    # would overflow the step count, an infinite dt would run no step and
    # exit 0, and a NaN perturbation would reach the sparse factorization
    key = line.split("=")[0]
    lines = ["command=evolve", "nonlinearity.kind=gp", "grid.N=512",
             "evolve.T=0.01", "evolve.dt=1e-3"]
    lines = [kv for kv in lines if not kv.startswith(key + "=")] + [line]
    code, out = _run_cli(tmp_path, "\n".join(lines))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "not a finite number" in err
    assert key in err
    assert not (out / "final.bin").exists()


@pytest.mark.parametrize("half", ["-30", "0", "nan"])
@pytest.mark.parametrize("lines", [
    ["command=profile", "nonlinearity.kind=gp", "grid.N=512"],
    ["command=spectrum"] + CQ_LINES + ["profile.kind=bubble-radial",
                                       "grid.dim=2", "grid.N=64"],
], ids=["gp-profile", "bubble-spectrum-2D"])
def test_non_positive_half_length_is_config_error(tmp_path, capsys, lines,
                                                  half):
    # the grid refuses it, before a soliton or a bubble is built on it
    code, out = _run_cli(tmp_path, "\n".join(lines + ["grid.L=" + half]))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert ("not a finite number" if half == "nan"
            else "half-lengths must be finite and positive") in err
    assert not os.listdir(out)


# Run in a fresh interpreter: every config in turn, with seed 42, into
# <out>/<config name>; then report the thread count of every OpenBLAS
# mapped, which each read from the environment when it loaded.
_IN_TURN = """
import ctypes, json, os, sys
from nlstab import cli

out, *configs = sys.argv[1:]
for cfg in configs:
    name = os.path.splitext(os.path.basename(cfg))[0]
    code = cli.main(["--config", cfg, "--out", os.path.join(out, name),
                     "--seed", "42"])
    assert code == 0, cfg
counts = []
with open("/proc/self/maps") as fh:
    for path in sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1]}):
        lib = ctypes.CDLL(path)
        get = next(getattr(lib, name) for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads") if hasattr(lib, name))
        get.restype = ctypes.c_int
        counts.append(get())
print(json.dumps(counts))
"""


def test_determinism_byte_identical(tmp_path):
    # the same configs and seed in a fresh interpreter on one and on two
    # BLAS threads; each runs the cases one after the other, so that state
    # one run leaves behind (such as a Newton column ordering) would show
    # in the next
    cases = [
        (["command=branch", "nonlinearity.kind=cubic-quintic",
          "nonlinearity.alpha1=0.2", "nonlinearity.alpha3=1.0",
          "nonlinearity.alpha5=1.0", "grid.dim=1", "grid.N=512",
          "grid.L=30", "speed.list=0.01,0.02,0.03"],
         ("branch.csv", "branch.json")),
        # the config of the slow-branch-2d benchmark workload
        (["command=branch"] + CQ_LINES + [
          "grid.dim=2", "grid.N=64", "grid.L=30.0",
          "speed.list=-0.004,0.0,0.004,0.01,0.02,0.03"],
         ("branch.csv", "branch.json")),
        (["command=spectrum", "nonlinearity.kind=gp", "grid.N=2048",
          "grid.L=40", "speed.c=0.5"],
         ("spectrum.json", "nondegeneracy.json")),
        (["command=evolve", "nonlinearity.kind=gp", "grid.N=512",
          "grid.L=40", "speed.c=0.5", "evolve.perturbation=1e-3",
          "evolve.T=0.1", "evolve.dt=1e-3"],
         ("monitors.csv", "evolve.json", "final.bin")),
        (["command=transversal", "nonlinearity.kind=gp", "grid.N=2048",
          "grid.L=40", "speed.c=0.0", "transversal.samples=5",
          "transversal.hamN=512"], ("band.csv", "band.json")),
    ]
    configs = []
    for case, (lines, _) in enumerate(cases):
        cfg = tmp_path / ("%s%d.cfg" % (lines[0].split("=")[1], case))
        cfg.write_text("\n".join(lines))
        configs.append(str(cfg))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _IN_TURN, str(tmp_path / threads)]
            + configs,
            env=dict(os.environ, PYTHONPATH=str(src),
                     OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [int(threads)] * 2
    for cfg, (_, artifacts) in zip(configs, cases):
        name = pathlib.Path(cfg).stem
        for artifact in artifacts:
            assert ((tmp_path / "1" / name / artifact).read_bytes()
                    == (tmp_path / "2" / name / artifact).read_bytes()), (
                name, artifact)


# Run in a fresh interpreter: import nlstab.cli, run a GP transversal
# command and a shoot command, and report which of the modules that load
# on first use are loaded after each, and the OpenBLAS libraries mapped.
_FRESH = """
import json, sys
from nlstab import cli

def loaded():
    return sorted(name for name in ("scipy.optimize", "scipy.integrate",
                                    "scipy.interpolate", "nlstab.shooting")
                  if name in sys.modules)

def blas():
    with open("/proc/self/maps") as fh:
        return sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1]})

seen = {"import": loaded()}
transversal, shoot, out = sys.argv[1:]
assert cli.main(["--config", transversal, "--out", out]) == 0
seen["transversal"] = loaded()
seen["blas_before_shoot"] = blas()
assert cli.main(["--config", shoot, "--out", out]) == 0
seen["shoot"] = loaded()
seen["blas_after_shoot"] = blas()
print(json.dumps(seen))
"""


def test_commands_load_only_what_they_run(tmp_path):
    # numpy and scipy.sparse alone at start-up; root finding, ODEs,
    # splines and shooting load in the commands that call them, and
    # loading them maps no further OpenBLAS
    transversal = tmp_path / "transversal.cfg"
    transversal.write_text("\n".join([
        "command=transversal", "nonlinearity.kind=gp", "grid.N=512",
        "grid.L=40", "speed.c=0.0", "transversal.samples=1"]))
    shoot = tmp_path / "shoot.cfg"
    shoot.write_text("\n".join(["command=shoot", "shoot.dim=2"] + CQ_LINES))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, str(transversal), str(shoot),
         str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["import"] == [] and seen["transversal"] == []
    assert seen["shoot"] == ["nlstab.shooting", "scipy.integrate",
                             "scipy.interpolate", "scipy.optimize"]
    assert len(seen["blas_before_shoot"]) == 2
    assert seen["blas_after_shoot"] == seen["blas_before_shoot"]


# Run in a fresh interpreter: build a line and a radial bubble, report
# whether scipy.interpolate is loaded, then run a shoot command.
_SEED_PATH = """
import sys
from nlstab import cli
from nlstab.grid import GridSpec
from nlstab.nonlinearity import cq_constants
from nlstab.profiles import stationary_bubble

shoot, out = sys.argv[1:]
law = cq_constants(0.2, 1.0, 1.0)
stationary_bubble(law, "line", GridSpec(1, 30.0, 256))
stationary_bubble(law, "radial-2D", GridSpec(2, 30.0, 64))
print("scipy.interpolate" in sys.modules)
print(cli.main(["--config", shoot, "--out", out]))
print("scipy.interpolate" in sys.modules)
"""


def test_bubble_seeds_load_no_splines(tmp_path):
    # both seeds sample the shot through its dense output; only the
    # shoot command's phi diagnostics fit splines
    shoot = tmp_path / "shoot.cfg"
    shoot.write_text("\n".join(["command=shoot", "shoot.dim=1"] + CQ_LINES))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SEED_PATH, str(shoot), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "True"]


def test_key_error_in_a_command_is_not_a_config_error(tmp_path, monkeypatch,
                                                      capsys):
    def broken(cfg, out, rng):
        return {}["missing"]
    monkeypatch.setitem(cli.COMMANDS, "report", broken)
    with pytest.raises(KeyError):
        _run_cli(tmp_path, "command=report\n")
    assert "config error" not in capsys.readouterr().err
    # a missing required key still is one
    code, _ = _run_cli(tmp_path, "command=shoot\n"
                       "nonlinearity.kind=cubic-quintic\n", name="missing")
    assert code == 1
    assert "nonlinearity.alpha1" in capsys.readouterr().err


def test_transversal_ledger_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    # a sample with one negative direction but no real growth rate
    monkeypatch.setattr(spectra, "growth_near",
                        lambda op, shift: (None, 0.0, None, None))
    code, _ = _run_cli(tmp_path, "\n".join([
        "command=transversal", "nonlinearity.kind=gp", "grid.N=512",
        "grid.L=40", "speed.c=0.0", "transversal.samples=1",
    ]))
    assert code == 2
    assert "index ledger" in capsys.readouterr().err
