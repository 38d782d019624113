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
byte for byte.  A key outside ``KEYS`` is a config error.  Exit codes:
0 success, 1 config error, 2 numerical failure.
"""

import argparse
import ctypes
import json
import os
import sys

import numpy as np

from . import dynamics, profiles, shooting, spectra
from .grid import GridSpec, hydro_to_uv, save_binary, save_csv
from .nonlinearity import NonlinearitySpec, check_G_conditions, cq_constants
from .operators import (SYMMETRIC_KINDS, coercivity_constant,
                        random_smooth_pair)


class ConfigError(Exception):
    pass


# every key a command reads through _get; run rejects any other
KEYS = frozenset("""
    nonlinearity.kind nonlinearity.alpha1 nonlinearity.alpha3 nonlinearity.alpha5
    grid.dim grid.boundary grid.L grid.N grid.L1 grid.L2 grid.N1 grid.N2
    profile.kind profile.polish speed.c speed.list spectrum.kind
    transversal.hamN transversal.samples shoot.dim shoot.rmax shoot.tol
    evolve.perturbation evolve.T evolve.dt evolve.corrections""".split())


def parse_config(text):
    cfg = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value" % line_no)
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _get(cfg, key, default=None, cast=str):
    if key not in cfg:
        if default is None:
            raise ConfigError("missing config key %r" % key)
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigError("bad value for %r: %s" % (key, exc))


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
    boundary = _get(cfg, "grid.boundary", "truncated")
    if dim == 1:
        L = _get(cfg, "grid.L", 40.0, float)
        N = _get(cfg, "grid.N", 2048, int)
    else:
        L = (_get(cfg, "grid.L1", _get(cfg, "grid.L", 30.0, float), float),
             _get(cfg, "grid.L2", _get(cfg, "grid.L", 30.0, float), float))
        N = (_get(cfg, "grid.N1", _get(cfg, "grid.N", 128, int), int),
             _get(cfg, "grid.N2", _get(cfg, "grid.N", 128, int), int))
    try:
        return GridSpec(dim, L, N, boundary)
    except ValueError as exc:
        raise ConfigError("bad grid: %s" % exc)


def build_profile(cfg, spec, grid):
    kind = _get(cfg, "profile.kind", "dark-soliton")
    c = _get(cfg, "speed.c", 0.0, float)
    if kind == "dark-soliton":
        return profiles.dark_soliton(c, grid, spec,
                                     polish=_get(cfg, "profile.polish", "0") == "1")
    if kind in ("bubble-line", "bubble-radial"):
        if spec.kind != "cubic-quintic":
            raise ConfigError("profile.kind=%s needs "
                              "nonlinearity.kind=cubic-quintic" % kind)
        k = cq_constants(spec.params["alpha1"], spec.params["alpha3"],
                         spec.params["alpha5"])
        geometry = "line" if kind == "bubble-line" else "radial-2D"
        wave = profiles.stationary_bubble(k, geometry, grid)
        if c != 0.0:
            wave = profiles.continue_branch(wave, [c])[-1]
        return wave
    raise ConfigError("unsupported profile.kind %r" % kind)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=float)
        fh.write("\n")


def cmd_profile(cfg, out, rng):
    spec = build_spec(cfg)
    grid = build_grid(cfg)
    wave = build_profile(cfg, spec, grid)
    save_binary(wave.profile, os.path.join(out, "profile.bin"))
    save_csv(wave.profile, os.path.join(out, "profile.csv"))
    _write_json(os.path.join(out, "profile.json"), {
        "c": wave.c, "residual": wave.residual_norm,
        "representation": wave.profile.rep, "symmetry": wave.symmetry,
    })
    return 0


def cmd_branch(cfg, out, rng):
    spec = build_spec(cfg)
    grid = build_grid(cfg)
    speeds = _float_list(_get(cfg, "speed.list"))
    if len(speeds) < 3:
        raise ConfigError("speed.list needs at least three speeds for a "
                          "central-difference dP/dc")
    if spec.kind == "gp":
        branch = [profiles.dark_soliton(c, grid, spec) for c in speeds]
    else:
        k = cq_constants(spec.params["alpha1"], spec.params["alpha3"],
                         spec.params["alpha5"])
        geometry = "line" if grid.dim == 1 else "radial-2D"
        bubble = profiles.stationary_bubble(k, geometry, grid)
        branch = profiles.continue_branch(bubble, speeds)
    samples = profiles.branch_momentum_sweep(branch, spec=spec)
    profiles.sweep_to_csv(samples, os.path.join(out, "branch.csv"))
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
    kind = _get(cfg, "spectrum.kind",
                "Mc" if wave.profile.rep == "hydro" else "Lc")
    if kind not in SYMMETRIC_KINDS:
        raise ConfigError("unknown spectrum.kind %r" % kind)
    if kind == "LcPlusK2":
        raise ConfigError("spectrum.kind=LcPlusK2 needs a transverse wave "
                          "number, which no config key sets")
    if kind in ("Mc", "McInfty", "M0") and wave.profile.rep != "hydro":
        raise ConfigError("spectrum.kind=%s needs a density/phase profile "
                          "(profile.kind=bubble-line or bubble-radial)" % kind)
    if kind == "M0" and wave.c != 0.0:
        raise ConfigError("spectrum.kind=M0 is the stationary operator and "
                          "needs speed.c=0")
    check = spectra.nondegeneracy_check(wave, wave.c, spec, kind=kind)
    report = check.pop("report")
    with open(os.path.join(out, "spectrum.json"), "w") as fh:
        fh.write(report.to_json() + "\n")
    _write_json(os.path.join(out, "nondegeneracy.json"), check)
    return 0


def cmd_transversal(cfg, out, rng):
    spec = build_spec(cfg)
    grid = build_grid(cfg)
    ham_n = _get(cfg, "transversal.hamN", 0, int)
    coarse = None
    if ham_n:
        if spec.kind != "gp" or grid.dim != 1:
            raise ConfigError("transversal.hamN re-grids only the 1D dark "
                              "soliton of nonlinearity.kind=gp")
        try:
            coarse = GridSpec(1, grid.half_length[0], ham_n, grid.boundary)
        except ValueError as exc:
            raise ConfigError("bad transversal.hamN: %s" % exc)
    wave = build_profile(cfg, spec, grid)
    ham_base = None
    if coarse is not None:
        ham_base = profiles.dark_soliton(wave.c, coarse, spec)
    result = spectra.transversal_band(
        wave, wave.c, spec,
        n_samples=_get(cfg, "transversal.samples", 5, int),
        ham_base=ham_base)
    spectra.band_to_csv(result, os.path.join(out, "band.csv"))
    _write_json(os.path.join(out, "band.json"), {
        "band": result.get("band"), "lambda0": result.get("lambda0"),
        "lambda1": result.get("lambda1"),
        "admissible": result.get("admissible"),
    })
    return 0


def cmd_evolve(cfg, out, rng):
    spec = build_spec(cfg)
    grid = build_grid(cfg)
    dt = _get(cfg, "evolve.dt", 1e-3, float)
    corrections = _get(cfg, "evolve.corrections", 1, int)
    if not dt > 0.0:
        raise ConfigError("evolve.dt must be positive, not %r" % dt)
    if corrections < 0:
        raise ConfigError("evolve.corrections must be 0 or more, not %d"
                          % corrections)
    wave = build_profile(cfg, spec, grid)
    if wave.profile.rep == "hydro":
        u0 = hydro_to_uv(wave.profile)
    else:
        u0 = wave.profile
    eps = _get(cfg, "evolve.perturbation", 0.0, float)
    if eps:
        noise = random_smooth_pair(grid, rng)
        u0 = type(u0)(grid, u0.c1 + eps * noise.c1, u0.c2 + eps * noise.c2, "uv")
    traj = dynamics.evolve_nonlinear(
        u0, wave.c, spec,
        _get(cfg, "evolve.T", 10.0, float), dt, corrections=corrections)
    traj.monitors_to_csv(os.path.join(out, "monitors.csv"))
    save_binary(traj.snapshots[-1], os.path.join(out, "final.bin"))
    drift = dynamics.monitor_invariants(traj)
    _write_json(os.path.join(out, "evolve.json"), drift)
    return 0


def cmd_shoot(cfg, out, rng):
    spec = build_spec(cfg)
    if spec.kind != "cubic-quintic":
        raise ConfigError("shooting needs a cubic-quintic law")
    k = cq_constants(spec.params["alpha1"], spec.params["alpha3"],
                     spec.params["alpha5"])
    dim = _get(cfg, "shoot.dim", 2, int)
    if dim < 1:
        raise ConfigError("shoot.dim must be 1 or more, not %d" % dim)
    res = shooting.find_alpha0(
        k, dim, r_max=_get(cfg, "shoot.rmax", 60.0, float),
        tol=_get(cfg, "shoot.tol", 1e-12, float))
    diag = shooting.phi_diagnostics(res, k)
    res.to_csv(os.path.join(out, "shoot.csv"))
    diag["alpha0"] = res.alpha0
    diag["conditions"] = check_G_conditions(k)
    _write_json(os.path.join(out, "shoot.json"), diag)
    return 0


def cmd_report(cfg, out, rng):
    """Aggregate verdicts from the artifact files already on disk."""
    summary = {}
    for name in ("branch.json", "band.json", "nondegeneracy.json",
                 "spectrum.json", "shoot.json", "evolve.json"):
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path) as fh:
                summary[name.rsplit(".", 1)[0]] = json.load(fh)
    coer = coercivity_constant(_get(cfg, "speed.c", 1.0, float))
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


def _openblas():
    """(get, set) thread-count entry points of every OpenBLAS loaded in
    this process: numpy and scipy each bundle their own.

    OpenBLAS reads the thread variables of the environment only when it
    loads, so a count chosen later must go through these calls.  The
    libraries are found in /proc/self/maps; where that does not exist
    the list is empty.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    calls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            if hasattr(lib, "scipy_openblas_set_num_threads" + suffix):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                get.argtypes, get.restype = [], ctypes.c_int
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
                put.argtypes, put.restype = [ctypes.c_int], None
                calls.append((get, put))
    return calls


def run(config, out_dir, seed=0, threads=1):
    """Execute one command from a parsed config; returns the exit code.

    ``threads`` BLAS threads run the command (0 keeps the count in
    effect); the previous counts are restored afterwards.
    """
    if threads < 0:
        raise ConfigError("threads must be 0 or more, not %d" % threads)
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError("unknown or missing command %r" % command)
    unknown = sorted(set(config) - KEYS - {"command"})
    if unknown:
        raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))
    calls = _openblas() if threads else []
    previous = [get() for get, _ in calls]
    for _, put in calls:
        put(threads)
    try:
        return COMMANDS[command](config, out_dir, rng)
    finally:
        for (_, put), count in zip(calls, previous):
            put(count)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nlstab",
        description="traveling-wave stability toolkit (batch front end)")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        return run(cfg, args.out, args.seed, args.threads)
    except (ConfigError, FileNotFoundError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
