import json
import os
import re

import numpy as np
import pytest

from nlstab import cli, spectra
from nlstab.cli import ConfigError, main, parse_config, run


def _run_cli(tmp_path, text, name="run", seed=0, threads=1):
    cfg = tmp_path / (name + ".cfg")
    cfg.write_text(text)
    out = tmp_path / name
    code = main(["--config", str(cfg), "--out", str(out), "--seed", str(seed),
                 "--threads", str(threads)])
    return code, out


def test_parse_config():
    cfg = parse_config("a=1\n# comment\n b.c = x=y \n\n")
    assert cfg == {"a": "1", "b.c": "x=y"}
    with pytest.raises(ConfigError):
        parse_config("not a pair")


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


def test_keys_are_the_keys_read():
    with open(cli.__file__) as fh:
        read = set(re.findall(r'_get\(cfg, "([^"]+)"', fh.read()))
    assert read == cli.KEYS


def test_missing_config_file(tmp_path):
    code = main(["--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == 1


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
    assert lines[0] == "c,P,E,dPdc,newton_iters,residual"


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
    assert verdict["conditions"]["G1"] is True


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
    assert [row.split(",")[2] for row in rows[1:]] == ["nan", "nan"]
    drift = json.loads((out / "evolve.json").read_text())
    assert drift["P_drift"] is None and drift["P_undefined"] == 2
    assert drift["E_undefined"] == 0 and drift["E_drift"] <= 1e-6


@pytest.mark.parametrize("line", [
    "grid.dim=3", "grid.boundary=sideways", "grid.N=100",
    "nonlinearity.alpha1=1.0", "spectrum.kind=Foo",
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
    ["command=shoot"] + CQ_LINES + ["shoot.dim=0"],
    ["command=transversal"] + CQ_LINES + [
        "profile.kind=bubble-line", "grid.N=512", "grid.L=30",
        "transversal.samples=1", "transversal.hamN=256"],
    ["command=transversal"] + CQ_LINES + [
        "profile.kind=bubble-radial", "grid.dim=2", "grid.N=64",
        "grid.L=30", "transversal.samples=1", "transversal.hamN=32"],
    ["command=transversal", "nonlinearity.kind=gp", "grid.N=512",
     "transversal.samples=1", "transversal.hamN=100"],
], ids=["bubble-under-gp", "dt-zero", "negative-corrections",
        "two-speeds", "shoot-dim-zero", "hamN-cubic-quintic", "hamN-2D",
        "hamN-off-the-grid-sizes"])
def test_bad_command_input_is_config_error(tmp_path, capsys, lines):
    code, _ = _run_cli(tmp_path, "\n".join(lines))
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("lines", [
    ["nonlinearity.kind=gp", "spectrum.kind=LcPlusK2"],
    ["nonlinearity.kind=gp", "spectrum.kind=Mc"],
    ["nonlinearity.kind=gp", "spectrum.kind=McInfty"],
    ["nonlinearity.kind=gp", "spectrum.kind=M0"],
    ["nonlinearity.kind=cubic-quintic", "nonlinearity.alpha1=0.2",
     "nonlinearity.alpha3=1.0", "nonlinearity.alpha5=1.0",
     "profile.kind=bubble-line", "grid.L=30", "speed.c=0.01",
     "spectrum.kind=M0"],
], ids=["LcPlusK2", "Mc-on-uv", "McInfty-on-uv", "M0-on-uv", "M0-moving"])
def test_spectrum_kind_the_profile_cannot_take_is_config_error(
        tmp_path, capsys, lines):
    code, out = _run_cli(tmp_path, "\n".join(
        ["command=spectrum", "grid.N=512"] + lines))
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "spectrum.json").exists()


def test_determinism_byte_identical(tmp_path):
    # the same config and seed on one and on two BLAS threads
    cases = [
        (["command=branch", "nonlinearity.kind=cubic-quintic",
          "nonlinearity.alpha1=0.2", "nonlinearity.alpha3=1.0",
          "nonlinearity.alpha5=1.0", "grid.dim=1", "grid.N=512",
          "grid.L=30", "speed.list=0.01,0.02,0.03"],
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
    for lines, artifacts in cases:
        text = "\n".join(lines)
        name = lines[0].split("=")[1]
        code1, out1 = _run_cli(tmp_path, text, name=name + "1", seed=42,
                               threads=1)
        code2, out2 = _run_cli(tmp_path, text, name=name + "2", seed=42,
                               threads=2)
        assert code1 == 0 and code2 == 0
        for artifact in artifacts:
            assert ((out1 / artifact).read_bytes()
                    == (out2 / artifact).read_bytes()), artifact


def _blas_threads():
    return [get() for get, _ in cli._openblas()]


def test_threads_take_effect(tmp_path, monkeypatch):
    # numpy's and scipy's OpenBLAS both run the command on the count asked
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "report",
                        lambda cfg, out, rng: seen.append(_blas_threads()))
    before = _blas_threads()
    assert len(before) == 2
    for threads in (2, 1):
        run({"command": "report"}, str(tmp_path), threads=threads)
    assert seen == [[2, 2], [1, 1]]
    assert _blas_threads() == before
    with pytest.raises(ConfigError, match="threads"):
        run({"command": "report"}, str(tmp_path), threads=-1)


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
