"""Time evolution of the linearized and nonlinear equations in the
traveling frame, with conserved-quantity monitors and growth-rate fits.

The linear flow du/dt = J*(sym op)*u is advanced by Crank-Nicolson,
(I - dt/2 J A) u+ = (I + dt/2 J A) u, which conserves the cross form
<A u(t), v(t)> of any two trajectories exactly (up to solver roundoff).
The nonlinear flow keeps the stiff constant-coefficient part implicit
(Laplacian, frame transport, frozen background potential) and treats the
remaining nonlinear terms explicitly with fixed-point corrections; the
scheme is time-symmetric, so runs can be reversed by negating dt.  The
perturbation of the background takes the ``zero`` closure of nlstab.grid
and the background itself the ``edge`` closure of the traveling-wave
residual (see the grid module docstring).
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .functionals import energy as field_energy
from .functionals import momentum as field_momentum
from .grid import PairField, norm, pair_from_complex, uv_to_hydro
from .operators import (j_matrix, neg_laplacian_matrix, partial_matrix,
                        random_smooth_pair)
from .profiles import tw_residual_uv


class Trajectory:
    """Decimated snapshots plus per-step scalar monitor series."""

    def __init__(self, grid, rep, dt, scheme):
        self.grid = grid
        self.rep = rep
        self.dt = dt
        self.scheme = scheme
        self.times = []
        self.snapshots = []
        self.monitor_times = []
        self.monitors = {}

    def add_monitor(self, t, **values):
        self.monitor_times.append(t)
        for key, val in values.items():
            self.monitors.setdefault(key, []).append(val)

    def add_snapshot(self, t, field):
        self.times.append(t)
        self.snapshots.append(field)

    def series(self, key):
        return np.asarray(self.monitor_times), np.asarray(self.monitors[key])

    def monitors_to_csv(self, path):
        keys = ["E", "P", "crossform", "proj_u", "proj_s"]
        with open(path, "w") as fh:
            fh.write("t," + ",".join(keys) + "\n")
            for i, t in enumerate(self.monitor_times):
                row = ["%.17g" % t]
                for key in keys:
                    vals = self.monitors.get(key)
                    row.append("%.17g" % vals[i] if vals is not None else "")
                fh.write(",".join(row) + "\n")


def _snapshot_steps(n_steps, n_snapshots=100):
    if n_steps <= n_snapshots:
        return set(range(n_steps + 1))
    stride = max(1, n_steps // n_snapshots)
    marks = set(range(0, n_steps + 1, stride))
    marks.add(n_steps)
    return marks


def evolve_linear(op, w0, T, dt, n_snapshots=100, basis=None, monitor_every=1):
    """Crank-Nicolson flow of du/dt = J (op) u from the pair field w0.

    Negative dt runs the flow backward.  When a dichotomy basis is given,
    the unstable/stable projection coefficients are recorded as monitors
    together with the field norm.
    """
    sign = 1.0 if dt > 0 else -1.0
    n_steps = int(round(abs(T) / abs(dt)))
    mat = (j_matrix(op.grid) @ op.matrix).tocsc()
    eye = sp.identity(mat.shape[0], format="csc")
    lhs = splu(eye - 0.5 * dt * mat)
    rhs = (eye + 0.5 * dt * mat).tocsr()

    traj = Trajectory(op.grid, w0.rep, dt, "crank-nicolson")
    marks = _snapshot_steps(n_steps, n_snapshots)
    vec = w0.ravel()
    t = 0.0
    for step in range(n_steps + 1):
        if step in marks:
            traj.add_snapshot(t, PairField.from_vector(op.grid, vec, w0.rep))
        if step % monitor_every == 0 or step == n_steps:
            field = PairField.from_vector(op.grid, vec, w0.rep)
            mon = {"norm": norm(field)}
            if basis is not None:
                a, b, cu, cs, _ = basis.split(field)
                mon.update(proj_u=cu, proj_s=cs, proj_t=a, proj_c=b)
            traj.add_monitor(t, **mon)
        if step == n_steps:
            break
        vec = lhs.solve(rhs @ vec)
        t += dt
    return traj


def evolve_linear_pair(op, u0, v0, T, dt, n_snapshots=100):
    """Evolve two fields under the same linear flow, recording <op u, v>."""
    n_steps = int(round(abs(T) / abs(dt)))
    mat = (j_matrix(op.grid) @ op.matrix).tocsc()
    eye = sp.identity(mat.shape[0], format="csc")
    lhs = splu(eye - 0.5 * dt * mat)
    rhs = (eye + 0.5 * dt * mat).tocsr()
    traj = Trajectory(op.grid, u0.rep, dt, "crank-nicolson")
    other = Trajectory(op.grid, v0.rep, dt, "crank-nicolson")
    marks = _snapshot_steps(n_steps, n_snapshots)
    uvec, vvec = u0.ravel(), v0.ravel()
    vol = op.grid.cell_volume
    t = 0.0
    for step in range(n_steps + 1):
        if step in marks:
            traj.add_snapshot(t, PairField.from_vector(op.grid, uvec, u0.rep))
            other.add_snapshot(t, PairField.from_vector(op.grid, vvec, v0.rep))
            cross = float(uvec @ (op.matrix @ vvec)) * vol
            traj.add_monitor(t, crossform=cross,
                             norm=float(np.linalg.norm(uvec)))
        if step == n_steps:
            break
        uvec = lhs.solve(rhs @ uvec)
        vvec = lhs.solve(rhs @ vvec)
        t += dt
    return traj, other


# ---------------------------------------------------------------------------
# nonlinear evolution in the traveling frame

class NonlinearStepper:
    """Semi-implicit Crank-Nicolson stepper for the frame equation.

    The frame equation dU/dt = c d1 U + i (Lap U + F(|U|^2) U) at
    U = bg + phi splits into the implicit linear part (frozen background
    potential, acting on phi) and the remainder
    i TW(bg) + i (F(|U|^2) - F(|bg|^2)) U, where TW(bg) is the
    traveling-wave residual of the background; the stencil terms cancel.
    """

    def __init__(self, background, c, spec, grid, dt, corrections=1,
                 include_nonlinearity=True):
        self.grid = grid
        self.spec = spec
        self.c = c
        self.corrections = corrections
        self.include_nonlinearity = include_nonlinearity
        self.bg = background.astype(complex).ravel()
        self._pot = spec.f(np.abs(self.bg) ** 2)
        self._i_tw = 1j * tw_residual_uv(
            pair_from_complex(grid, background), c, spec).as_complex().ravel()
        lin = (c * partial_matrix(grid, 0)
               + 1j * (-neg_laplacian_matrix(grid) + sp.diags(self._pot)))
        self._lin = lin.tocsr()
        self.set_dt(dt)

    def set_dt(self, dt):
        self.dt = dt
        eye = sp.identity(self._lin.shape[0], format="csc", dtype=complex)
        self._lhs = splu((eye - 0.5 * dt * self._lin).tocsc())
        self._rhs = (eye + 0.5 * dt * self._lin).tocsr()

    def remainder(self, phi_flat):
        if not self.include_nonlinearity:
            return np.zeros_like(phi_flat)
        u = self.bg + phi_flat
        return self._i_tw + 1j * (self.spec.f(np.abs(u) ** 2) - self._pot) * u

    def step(self, phi_flat):
        base = self._rhs @ phi_flat
        r = self.remainder(phi_flat)
        new = self._lhs.solve(base + self.dt * r)
        for _ in range(self.corrections):
            r = self.remainder(0.5 * (phi_flat + new))
            new = self._lhs.solve(base + self.dt * r)
        return new


def evolve_nonlinear(u0, c, spec, T, dt, background=None, corrections=1,
                     n_snapshots=100, monitor_every=10, basis=None,
                     base_wave=None, include_nonlinearity=True,
                     drift_guard=1e-6, min_dt=1e-5, momentum_kind="auto"):
    """Evolve the frame equation i u_t - i c u_x1 + Lap u + F(|u|^2) u = 0.

    ``u0`` is a uv pair field; the implicit part freezes the potential of
    ``background`` (default: u0 itself).  Energy is monitored every step;
    a per-step relative energy drift beyond ``drift_guard`` rejects the
    step and halves dt (floored at ``min_dt``).  When a dichotomy basis
    and its base wave are given, the density/phase deviation projections
    are recorded.
    """
    grid = u0.grid
    if background is None:
        background = u0
    bg = background.as_complex()
    stepper = NonlinearStepper(bg, c, spec, grid, dt, corrections,
                               include_nonlinearity)
    n_steps = int(round(abs(T) / abs(dt)))
    marks = _snapshot_steps(n_steps, n_snapshots)
    traj = Trajectory(grid, "uv", dt, "semi-implicit-cn")

    def monitors(u_field):
        vals = {"E": field_energy(u_field, spec), "norm": norm(u_field)}
        kind = momentum_kind
        if kind == "auto":
            kind = ("renormalized1D"
                    if grid.dim == 1 and abs(spec.r0 - 1.0) < 1e-12 else "hydro")
        try:
            if kind == "hydro":
                vals["P"] = field_momentum(uv_to_hydro(u_field), "hydro", spec)
            else:
                vals["P"] = field_momentum(u_field, kind, spec)
        except ValueError:
            vals["P"] = np.nan
        if basis is not None and base_wave is not None:
            dev = _hydro_deviation(u_field, base_wave)
            a, b, cu, cs, _ = basis.split(dev)
            vals.update(proj_u=cu, proj_s=cs)
        return vals

    phi = (u0.as_complex() - bg).ravel()
    t = 0.0
    e_prev = None
    e_scale = None
    step_idx = 0
    while step_idx <= n_steps:
        u_field = pair_from_complex(grid, bg + phi.reshape(grid.shape))
        if step_idx in marks:
            traj.add_snapshot(t, u_field)
        if step_idx % monitor_every == 0 or step_idx == n_steps:
            traj.add_monitor(t, **monitors(u_field))
        if step_idx == n_steps:
            break
        if drift_guard is not None and e_prev is None:
            e_prev = field_energy(u_field, spec)
            e_scale = max(abs(e_prev), 1e-30)
        new = stepper.step(phi)
        if drift_guard is not None:
            u_new = pair_from_complex(grid, bg + new.reshape(grid.shape))
            e_new = field_energy(u_new, spec)
            if (abs(e_new - e_prev) / e_scale > drift_guard
                    and abs(stepper.dt) / 2.0 >= min_dt):
                stepper.set_dt(stepper.dt / 2.0)
                n_steps = step_idx + int(round((abs(T) - abs(t)) / abs(stepper.dt)))
                marks = _snapshot_steps(n_steps, n_snapshots)
                continue
            e_prev = e_new
        phi = new
        t += stepper.dt
        step_idx += 1
    return traj


def _hydro_deviation(u_field, base_wave):
    """Density/phase deviation from a base wave, gauge pinned at the edges."""
    hyd = uv_to_hydro(u_field)
    base = base_wave.profile
    drho = hyd.c1 - base.c1
    dth = hyd.c2 - base.c2
    edge = 0.5 * (dth.flat[0] + dth.flat[-1])
    dth = dth - edge
    return PairField(u_field.grid, drho, dth, "uv")


# ---------------------------------------------------------------------------
# invariant monitors and growth fits

def monitor_invariants(traj, op=None, other=None):
    """Relative drifts of E, P, and the cross form of a linear pair."""
    out = {}
    for key in ("E", "P"):
        if key in traj.monitors:
            vals = np.asarray(traj.monitors[key], dtype=float)
            vals = vals[np.isfinite(vals)]
            if vals.size:
                scale = max(abs(vals[0]), 1e-30)
                out[key + "_drift"] = float(np.max(np.abs(vals - vals[0])) / scale)
    if "crossform" in traj.monitors:
        vals = np.asarray(traj.monitors["crossform"])
        scale = max(abs(vals[0]), 1e-30)
        out["crossform_drift"] = float(np.max(np.abs(vals - vals[0])) / scale)
    elif op is not None and other is not None:
        vol = op.grid.cell_volume
        vals = []
        for fu, fv in zip(traj.snapshots, other.snapshots):
            vals.append(float(fu.ravel() @ (op.matrix @ fv.ravel())) * vol)
        vals = np.asarray(vals)
        scale = max(abs(vals[0]), 1e-30)
        out["crossform_drift"] = float(np.max(np.abs(vals - vals[0])) / scale)
    return out


def fit_log_slope(times, values, window=(0.0, 1.0)):
    """Least-squares slope of log(values) vs t over a fractional window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t0 = times[0] + window[0] * (times[-1] - times[0])
    t1 = times[0] + window[1] * (times[-1] - times[0])
    mask = (times >= t0) & (times <= t1) & (values > 0.0)
    if mask.sum() < 3:
        raise ValueError("not enough points for a slope fit")
    return float(np.polyfit(times[mask], np.log(values[mask]), 1)[0])


def dichotomy_growth_test(basis, T=20.0, dt=1e-3, n_draws=20, rng=None,
                          cutoff=0.2):
    """Empirical growth bounds for the invariant splitting.

    Backward decay of the unstable mode is fitted against the computed
    rate; center-stable draws are checked for the absence of exponential
    growth after removing the allowed (1 + t) polynomial factor; center
    draws report their uniform bound C.
    """
    rng = rng or np.random.default_rng(11)
    op = basis.op
    rate = basis.rate
    report = {"rate": rate}

    t_back = min(T, 4.0 / rate)
    back = evolve_linear(op, basis.w_u, t_back, -dt, monitor_every=20)
    times, norms = back.series("norm")
    report["backward_slope"] = fit_log_slope(np.abs(times), norms)
    fwd = evolve_linear(op, basis.w_u, t_back, dt, monitor_every=20)
    times, norms = fwd.series("norm")
    report["forward_slope"] = fit_log_slope(times, norms)

    cs_slopes, m_fits = [], []
    center_bounds = []
    for i in range(n_draws):
        f = random_smooth_pair(op.grid, rng, cutoff=cutoff)
        a, b, cu, cs, center = basis.split(f)
        u_cs = PairField.from_vector(
            op.grid, f.ravel() - cu * basis.w_u.ravel(), f.rep)
        traj = evolve_linear(op, u_cs, T, dt, monitor_every=50)
        times, norms = traj.series("norm")
        normalized = norms / (1.0 + np.abs(times))
        cs_slopes.append(fit_log_slope(times, normalized, window=(0.5, 1.0)))
        m_fits.append(float(np.max(norms / ((1.0 + np.abs(times)) * norms[0]))))
        if i < max(4, n_draws // 4):
            ctraj = evolve_linear(op, center, T, dt, monitor_every=50)
            _, cnorms = ctraj.series("norm")
            center_bounds.append(float(np.max(cnorms) / cnorms[0]))
    report["cs_slopes"] = cs_slopes
    report["cs_slope_max"] = float(np.max(cs_slopes))
    report["M_fit"] = float(np.max(m_fits))
    report["center_bounds"] = center_bounds
    report["center_bound_max"] = float(np.max(center_bounds))
    return report
