"""Config-driven batch front end.

Runs one of the commands {profile, branch, spectrum, transversal, evolve,
shoot, report} from a flat key=value config with dotted sections, e.g.::

    command=spectrum
    nonlinearity.kind=gp
    grid.N=2048
    grid.L=40
    speed.c=0.0

Artifacts (CSV/JSON/binary field dumps, floats at 17 significant digits)
land in the output directory; identical config and seed reproduce them
byte for byte.  A key that the command does not read (outside its
``KEYS`` entry) is a config error.  Exit codes: 0 success, 1 config
error, 2 numerical failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import dynamics, profiles, spectra
from .grid import GridSpec, as_uv, save_binary
from .nonlinearity import NonlinearitySpec, check_G_conditions, cq_constants
from .operators import coercivity_constant, random_smooth_pair


class ConfigError(Exception):
    pass


# the keys each command reads through _get; run rejects any other
_LAW = ("nonlinearity.kind nonlinearity.alpha1 nonlinearity.alpha3 "
        "nonlinearity.alpha5 ")
_GRID = _LAW + "grid.dim grid.L grid.N "
_WAVE = _GRID + "profile.kind profile.polish speed.c "
KEYS = {command: frozenset(keys.split()) for command, keys in [
    ("profile", _WAVE), ("spectrum", _WAVE), ("branch", _GRID + "speed.list"),
    ("transversal", _WAVE + "transversal.hamN transversal.samples"),
    ("evolve", _WAVE + "evolve.perturbation evolve.T evolve.dt "
                       "evolve.corrections"),
    ("shoot", _LAW + "shoot.dim"), ("report", "speed.c")]}


def parse_config(text):
    cfg = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value" % line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in cfg:
            raise ConfigError("line %d: repeated key %r" % (line_no, key))
        cfg[key] = value.strip()
    return cfg


def _get(cfg, key, default=None, cast=str):
    if key not in cfg:
        if default is None:
            raise ConfigError("missing config key %r" % key)
        return default
    try:
        value = cast(cfg[key])
    except ValueError as exc:
        raise ConfigError("bad value for %r: %s" % (key, exc))
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError("bad value for %r: %r is not a finite number"
                          % (key, cfg[key]))
    return value


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_spec(cfg):
    kind = _get(cfg, "nonlinearity.kind", "gp")
    if kind == "gp":
        return NonlinearitySpec.gp()
    if kind != "cubic-quintic":
        raise ConfigError("unsupported nonlinearity.kind %r" % kind)
    try:
        return NonlinearitySpec.cubic_quintic(
            _get(cfg, "nonlinearity.alpha1", cast=float),
            _get(cfg, "nonlinearity.alpha3", cast=float),
            _get(cfg, "nonlinearity.alpha5", cast=float))
    except ValueError as exc:
        raise ConfigError("bad nonlinearity: %s" % exc)


def build_grid(cfg):
    dim = _get(cfg, "grid.dim", 1, int)
    L = _get(cfg, "grid.L", 40.0 if dim == 1 else 30.0, float)
    N = _get(cfg, "grid.N", 2048 if dim == 1 else 128, int)
    try:
        return GridSpec(dim, L, N)
    except ValueError as exc:
        raise ConfigError("bad grid: %s" % exc)


def _check_dark_soliton(c, grid, spec):
    """Refuse, as a config error, what ``dark_soliton`` would refuse."""
    problem = profiles.dark_soliton_input_error(c, grid, spec)
    if problem:
        raise ConfigError(problem)


def build_profile(cfg, spec, grid):
    kind = _get(cfg, "profile.kind", "dark-soliton")
    c = _get(cfg, "speed.c", 0.0, float)
    polish = _get(cfg, "profile.polish", "0")
    if polish not in ("0", "1"):
        raise ConfigError("profile.polish must be 0 or 1, not %r" % polish)
    if kind == "dark-soliton":
        _check_dark_soliton(c, grid, spec)
        return profiles.dark_soliton(c, grid, spec, polish=polish == "1")
    if kind in ("bubble-line", "bubble-radial"):
        if "profile.polish" in cfg:
            raise ConfigError("profile.polish applies to dark solitons only")
        if spec.kind != "cubic-quintic":
            raise ConfigError("profile.kind=%s needs "
                              "nonlinearity.kind=cubic-quintic" % kind)
        geometry = "line" if kind == "bubble-line" else "radial-2D"
        if grid.dim != (1 if geometry == "line" else 2):
            raise ConfigError("profile.kind=%s does not fit grid.dim=%d"
                              % (kind, grid.dim))
        wave = profiles.stationary_bubble(cq_constants(**spec.params),
                                          geometry, grid)
        if c != 0.0:
            wave = profiles.continue_branch(wave, [c])[-1]
        return wave
    raise ConfigError("unsupported profile.kind %r" % kind)


def write_csv(path, header, columns):
    """Write the ``header`` names, then row i of the equal-length
    ``columns``: every value as %.17g, None as an empty field."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join("" if v is None else "%.17g" % v
                              for v in row) + "\n")


def report_payload(report):
    """The JSON object of ``spectrum.json`` for a ``SpectralReport``."""
    return {
        "kind": report.kind, "n_negative": report.n_negative,
        "kernel_dim": report.kernel_dim,
        "zero_threshold": report.zero_threshold,
        "spurious_modes": report.spurious,
        "eigenvalues": [float(v) for v in report.eigenvalues],
    }


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=float)
        fh.write("\n")


def cmd_profile(cfg, out, rng):
    spec = build_spec(cfg)
    grid = build_grid(cfg)
    wave = build_profile(cfg, spec, grid)
    field = wave.profile
    save_binary(field, os.path.join(out, "profile.bin"))
    write_csv(os.path.join(out, "profile.csv"),
              ["x", "y"][: grid.dim] + ["comp1", "comp2"],
              [m.ravel() for m in grid.meshes()]
              + [field.c1.ravel(), field.c2.ravel()])
    _write_json(os.path.join(out, "profile.json"), {
        "c": wave.c, "residual": wave.residual_norm,
        "projected_residual": wave.projected_residual,
        "representation": field.rep,
    })
    return 0


def cmd_branch(cfg, out, rng):
    spec = build_spec(cfg)
    grid = build_grid(cfg)
    speeds = _get(cfg, "speed.list", cast=_float_list)
    if len(speeds) < 3:
        raise ConfigError("speed.list needs at least three speeds for a "
                          "central-difference dP/dc")
    if not (np.all(np.isfinite(speeds)) and np.all(np.diff(speeds) > 0.0)):
        raise ConfigError("speed.list must be finite and strictly "
                          "increasing, not %r" % cfg["speed.list"])
    if spec.kind == "gp":
        for c in speeds:
            _check_dark_soliton(c, grid, spec)
        branch = [profiles.dark_soliton(c, grid, spec) for c in speeds]
    else:
        geometry = "line" if grid.dim == 1 else "radial-2D"
        bubble = profiles.stationary_bubble(cq_constants(**spec.params),
                                            geometry, grid)
        branch = profiles.continue_branch(bubble, speeds)
    samples = profiles.branch_momentum_sweep(branch, spec=spec)
    write_csv(os.path.join(out, "branch.csv"),
              ["c", "P", "E", "dPdc", "newton_iters", "residual",
               "projected_residual"],
              [[getattr(s, name) for s in samples]
               for name in ("c", "momentum", "energy", "dpdc", "newton_iters",
                            "residual", "projected_residual")])
    interior = [s for s in samples if s.dpdc is not None]
    signs = [np.sign(s.dpdc) for s in interior]
    if all(s > 0 for s in signs):
        verdict = "stable (dP/dc>0)"
    elif all(s < 0 for s in signs):
        verdict = "unstable (dP/dc<0)"
    else:
        verdict = "mixed"
    _write_json(os.path.join(out, "branch.json"), {
        "speeds": speeds, "verdict": verdict,
        "dpdc": [s.dpdc for s in interior],
    })
    return 0


def cmd_spectrum(cfg, out, rng):
    spec = build_spec(cfg)
    grid = build_grid(cfg)
    wave = build_profile(cfg, spec, grid)
    check = spectra.nondegeneracy_check(wave, wave.c, spec)
    report = check.pop("report")
    _write_json(os.path.join(out, "spectrum.json"), report_payload(report))
    _write_json(os.path.join(out, "nondegeneracy.json"), check)
    return 0


def cmd_transversal(cfg, out, rng):
    spec = build_spec(cfg)
    grid = build_grid(cfg)
    ham_n = _get(cfg, "transversal.hamN", 0, int)
    n_samples = _get(cfg, "transversal.samples", 5, int)
    if n_samples < 1:
        raise ConfigError("transversal.samples must be 1 or more, not %d"
                          % n_samples)
    coarse = None
    if ham_n:
        if spec.kind != "gp" or grid.dim != 1:
            raise ConfigError("transversal.hamN re-grids only the 1D dark "
                              "soliton of nonlinearity.kind=gp")
        try:
            coarse = GridSpec(1, grid.half_length[0], ham_n)
        except ValueError as exc:
            raise ConfigError("bad transversal.hamN: %s" % exc)
    wave = build_profile(cfg, spec, grid)
    ham_base = None
    if coarse is not None:
        ham_base = profiles.dark_soliton(wave.c, coarse, spec)
    result = spectra.transversal_band(wave, wave.c, spec, n_samples=n_samples,
                                      ham_base=ham_base)
    write_csv(os.path.join(out, "band.csv"), ["k", "lambda_u", "n_neg"],
              [[s[key] for s in result["samples"]]
               for key in ("k", "growth_rate", "n_negative")])
    _write_json(os.path.join(out, "band.json"), {
        "band": result.get("band"), "lambda0": result.get("lambda0"),
        "lambda1": result.get("lambda1"),
        "admissible": result.get("admissible"),
    })
    return 0


def cmd_evolve(cfg, out, rng):
    spec = build_spec(cfg)
    grid = build_grid(cfg)
    T = _get(cfg, "evolve.T", 10.0, float)
    dt = _get(cfg, "evolve.dt", 1e-3, float)
    corrections = _get(cfg, "evolve.corrections", 1, int)
    for key, value in (("evolve.T", T), ("evolve.dt", dt)):
        if not value > 0.0:
            raise ConfigError("%s must be positive, not %r" % (key, value))
    if corrections < 0:
        raise ConfigError("evolve.corrections must be 0 or more, not %d"
                          % corrections)
    steps = T / dt
    if not (np.isfinite(steps) and round(steps) >= 1):
        raise ConfigError("evolve.T / evolve.dt = %r / %r must round to a "
                          "finite step count of 1 or more" % (T, dt))
    wave = build_profile(cfg, spec, grid)
    u0 = as_uv(wave.profile)
    eps = _get(cfg, "evolve.perturbation", 0.0, float)
    if eps:
        noise = random_smooth_pair(grid, rng)
        u0 = type(u0)(grid, u0.c1 + eps * noise.c1, u0.c2 + eps * noise.c2, "uv")
    traj = dynamics.evolve_nonlinear(u0, wave.c, spec, T, dt,
                                     corrections=corrections)
    write_csv(os.path.join(out, "monitors.csv"), ["t"] + list(traj.monitors),
              [traj.monitor_times] + list(traj.monitors.values()))
    save_binary(traj.snapshots[-1], os.path.join(out, "final.bin"))
    drift = dynamics.monitor_invariants(traj)
    _write_json(os.path.join(out, "evolve.json"), drift)
    return 0


def cmd_shoot(cfg, out, rng):
    spec = build_spec(cfg)
    if spec.kind != "cubic-quintic":
        raise ConfigError("shooting needs a cubic-quintic law")
    k = cq_constants(**spec.params)
    dim = _get(cfg, "shoot.dim", 2, int)
    if dim < 1:
        raise ConfigError("shoot.dim must be 1 or more, not %d" % dim)
    from . import shooting
    res = shooting.find_alpha0(k, dim)
    diag = shooting.phi_diagnostics(res, k)
    write_csv(os.path.join(out, "shoot.csv"), ["r", "u", "uprime", "phi"],
              [res.r, res.u, res.uprime, res.phi])
    diag["alpha0"] = res.alpha0
    diag["conditions"] = check_G_conditions(k)
    _write_json(os.path.join(out, "shoot.json"), diag)
    return 0


def cmd_report(cfg, out, rng):
    """Aggregate verdicts from the artifact files already on disk."""
    try:
        coer = coercivity_constant(_get(cfg, "speed.c", 1.0, float))
    except ValueError as exc:
        raise ConfigError("bad speed.c: %s" % exc)
    summary = {}
    for name in ("branch.json", "band.json", "nondegeneracy.json",
                 "spectrum.json", "shoot.json", "evolve.json"):
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path) as fh:
                try:
                    summary[name.rsplit(".", 1)[0]] = json.load(fh)
                except ValueError as exc:
                    raise ConfigError("%s is not valid JSON: %s"
                                      % (path, exc))
    summary["coercivity"] = {"a_opt_sq": coer["a_opt_sq"],
                             "delta_star": coer["delta_star"]}
    _write_json(os.path.join(out, "report.json"), summary)
    return 0


COMMANDS = {
    "profile": cmd_profile,
    "branch": cmd_branch,
    "spectrum": cmd_spectrum,
    "transversal": cmd_transversal,
    "evolve": cmd_evolve,
    "shoot": cmd_shoot,
    "report": cmd_report,
}


def run(config, out_dir, seed=0):
    """Execute one command from a parsed config; returns the exit code."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError("unknown or missing command %r" % command)
    unknown = sorted(set(config) - KEYS[command] - {"command"})
    if unknown:
        raise ConfigError("config key(s) that command=%s does not read: %s"
                          % (command, ", ".join(unknown)))
    return COMMANDS[command](config, out_dir, rng)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nlstab",
        description="traveling-wave stability toolkit (batch front end)")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        return run(cfg, args.out, args.seed)
    except (ConfigError, FileNotFoundError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
