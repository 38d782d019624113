"""Time evolution of the linearized and nonlinear equations in the
traveling frame, with conserved-quantity monitors and growth-rate fits.

The linear flow du/dt = J*(sym op)*u is advanced by Crank-Nicolson,
(I - dt/2 J A) u+ = (I + dt/2 J A) u, which conserves the cross form
<A u(t), v(t)> of any two trajectories exactly (up to solver roundoff).
The step is taken in its Cayley form: with G = J A and a = dt/2,
(I - aG)^-1 (I + aG) u = S u - u with S = 2 (I - aG)^-1.  The one LU
stored is that of (I - aG)/2, whose solve is S (bitwise twice the
unhalved LU's: halving is exact and both LUs pivot on ratios), so a step
is one solve and one subtraction, no matvec.  The nonlinear flow keeps
the stiff constant-coefficient part implicit (Laplacian, frame transport,
frozen background potential) and treats the remaining nonlinear terms
explicitly with fixed-point corrections; in Cayley form its step is
S (phi + a r) - phi.  That scheme is time-symmetric, so runs can be
reversed by negating dt.  The perturbation of the background takes the
``zero`` closure of nlstab.grid, Laplacian included (``Lc`` takes the
``edge`` one), and the background itself the ``edge`` closure of the
traveling-wave residual (see the grid module docstring).

The LU is LAPACK's tridiagonal ``gttrf`` when every nonzero of the
generator lies on its three central diagonals, which holds for the 1D
nonlinear generator (3-point Laplacian and central difference in the zero
closure, plus a diagonal potential) at every c and dt; every (u1, u2)
block generator and every 2D grid is factored by SuperLU.  Both LUs are
backward stable, so a 1D nonlinear run agrees with a SuperLU run to
roundoff, and the tridiagonal solve costs half as much.

A block of linear right-hand sides shares one LU.  A block of w columns
is split into ceil(w / ``_CHUNK``) balanced chunks, and every chunk runs
all its steps on a thread of its own, since the sparse solve releases the
GIL.  The split depends on the block alone, never on the machine, so
every stepped field and every monitor is bitwise the same on any core
count, in 1D and in 2D.  In 1D the triangular solves treat each column on
its own, and a column's step and norm use that column alone, so any split
gives the same bits (the tests check this against one chunk).  A 2D LU
has supernodes wide enough for SuperLU to hand them to BLAS kernels,
which may round by the chunk's width: 13 columns of the 64^2 stripe
stepped as 6 + 7 differ from one chunk in a few entries, at roundoff.

The block's LU carries ``_PAD`` decoupled identity rows below the
generator, block_diag(I - dt/2 G, I), and its right-hand sides carry as
many zero rows.  SuperLU's triangular solves sweep each supernode across
every column of the block, at a stride of the block's leading dimension.
Every grid has a power-of-two number of points, so without the pad that
stride is a power of two and the same row of every column maps to the
same L1 set: once the columns outnumber the set's ways (12 on a 48 KiB
12-way L1d) each column evicts another.  ``_PAD`` doubles are one
64-byte cache line, which makes the stride an odd number of lines, so
neighbouring columns fall in different sets.  The pad rows stay zero and
no generator row reads them.  SuperLU orders the pad's singleton columns
first and keeps the generator's columns and pivot rows in their unpadded
order, so the generator's factor, and with it every stepped field, is
bitwise that of the unpadded LU (the tests check both).
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu

from .functionals import energy as field_energy
from .functionals import momentum as field_momentum
from .functionals import MOMENTUM_KINDS, momentum_kind_of
from .grid import PairField, as_uv, norm, pair_from_complex
from .operators import j_matrix, random_smooth_pair
from .profiles import tw_residual_uv


class Trajectory:
    """Decimated snapshots plus per-step scalar monitor series."""

    def __init__(self):
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


_N_SNAPSHOTS = 100   # snapshots kept per run, evenly strided
_MIN_DT = 1e-5       # floor of the nonlinear dt halving
_CHUNK = 13          # most columns a linear block's thread steps
_PAD = 8             # zero rows under a linear block: one 64-byte line
_DRAW_EVERY = 0.25   # time between records of the growth test's draws
_BACK_EVERY = 0.1    # time between records of its backward run


def _snapshot_steps(n_steps):
    if n_steps <= _N_SNAPSHOTS:
        return set(range(n_steps + 1))
    stride = max(1, n_steps // _N_SNAPSHOTS)
    marks = set(range(0, n_steps + 1, stride))
    marks.add(n_steps)
    return marks


class _TridiagonalLU:
    """LAPACK's ``gttrf`` LU of a tridiagonal sparse matrix, with the
    ``solve(b)`` of ``splu``'s factor; an exactly singular matrix raises
    ``RuntimeError``, as ``splu`` does."""

    def __init__(self, mat):
        diags = (mat.diagonal(-1), mat.diagonal(0), mat.diagonal(1))
        gttrf, self._gttrs = get_lapack_funcs(("gttrf", "gttrs"), diags)
        *self._factor, info = gttrf(*diags)
        if info != 0:
            raise RuntimeError("Factor is exactly singular")

    def solve(self, b):
        x, info = self._gttrs(*self._factor, b)
        if info != 0:
            raise RuntimeError("gttrs argument %d is illegal" % -info)
        return x


def _crank_nicolson(gen, dt):
    """LU of (I - dt/2 gen)/2, whose solve is the Cayley map
    2 (I - dt/2 gen)^-1: a step is ``solve(u) - u``.  The LU is LAPACK's
    tridiagonal one when every nonzero of gen lies on its three central
    diagonals, SuperLU's otherwise (see the module)."""
    eye = sp.identity(gen.shape[0], format="csc", dtype=gen.dtype)
    mat = (0.5 * (eye - 0.5 * dt * gen)).tocsc()
    band = mat.tocoo()
    if np.all((np.abs(band.row - band.col) <= 1) | (band.data == 0)):
        return _TridiagonalLU(mat)
    return splu(mat)


def _linear_flow(op, fields, T, dt, monitor_every, snapshots):
    """One Trajectory per field of the linear flow, with norm monitors;
    field snapshots are kept only if ``snapshots``.

    The columns take Cayley steps u+ = lu.solve(u) - u through one LU
    padded by ``_PAD`` decoupled rows, in column chunks that each run on
    a thread of their own (see the module docstring).
    """
    n_steps = int(round(abs(T) / abs(dt)))
    marks = _snapshot_steps(n_steps) if snapshots else ()
    gen = j_matrix(op.grid) @ op.matrix
    n = gen.shape[0]
    lu = _crank_nicolson(sp.block_diag((gen, sp.csc_matrix((_PAD, _PAD))),
                                       format="csc"), dt)
    block = np.stack([np.pad(f.ravel(), (0, _PAD)) for f in fields], axis=1)
    trajs = [Trajectory() for _ in fields]

    def record(step, t, cols, state):
        snap = step in marks
        mon = step % monitor_every == 0 or step == n_steps
        if not (snap or mon):
            return
        for j, vec in zip(range(cols.start, cols.stop), state[:n].T.copy()):
            field = PairField.from_vector(op.grid, vec, fields[j].rep)
            if snap:
                trajs[j].add_snapshot(t, field)
            if mon:
                trajs[j].add_monitor(t, norm=norm(field))

    def run(cols):
        state, t = block[:, cols], 0.0
        record(0, t, cols, state)
        for step in range(1, n_steps + 1):
            new = lu.solve(state)
            new -= state
            state = new
            t += dt
            record(step, t, cols, state)

    width = len(fields)
    n_chunks = -(-width // _CHUNK)
    edges = [width * k // n_chunks for k in range(n_chunks + 1)]
    with ThreadPoolExecutor(n_chunks) as pool:
        list(pool.map(run, [slice(a, b) for a, b in zip(edges, edges[1:])]))
    return trajs


def evolve_linear(op, w0, T, dt, monitor_every=1):
    """Crank-Nicolson flow of du/dt = J (op) u from a pair field w0.

    ``w0`` may also be a list of pair fields: they are advanced as one
    block of right-hand sides through one factorization, and one
    Trajectory per field is returned.  Negative dt runs the flow
    backward.  The field norm is monitored.
    """
    single = isinstance(w0, PairField)
    trajs = _linear_flow(op, [w0] if single else list(w0), T, dt,
                         monitor_every, snapshots=True)
    return trajs[0] if single else trajs


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

    def __init__(self, background, c, spec, grid, dt, corrections=1):
        self.grid = grid
        self.spec = spec
        self.c = c
        self.corrections = corrections
        self.bg = background.astype(complex).ravel()
        self._pot = spec.f(np.abs(self.bg) ** 2)
        self._i_tw = 1j * tw_residual_uv(
            pair_from_complex(grid, background), c, spec).as_complex().ravel()
        lin = (c * grid.central(0, "zero")
               + 1j * (-grid.neg_laplacian("zero") + sp.diags(self._pot)))
        self._lin = lin.tocsr()
        # scratch of one step: u, |u|^2, the midpoint and the right-hand side
        self._u = np.empty_like(self.bg)
        self._rho = np.empty(self.bg.shape)
        self._mid = np.empty_like(self.bg)
        self._rhs = np.empty_like(self.bg)
        self.set_dt(dt)

    def set_dt(self, dt):
        self.dt = dt
        self._lu = _crank_nicolson(self._lin, dt)

    def remainder(self, phi_flat, out=None):
        """i TW(bg) + i (F(|u|^2) - F(|bg|^2)) u at u = bg + phi_flat, in
        a fresh array unless ``out`` is given."""
        u = np.add(self.bg, phi_flat, out=self._u)
        rho = np.square(np.abs(u, out=self._rho), out=self._rho)
        gap = self.spec.f(rho)
        gap -= self._pot
        out = np.multiply(1j, gap, out=out)
        out *= u
        return np.add(self._i_tw, out, out=out)

    def step(self, phi_flat):
        """One Cayley step S (phi + dt/2 r) - phi, with r corrected at the
        midpoint.  Each right-hand side is built in the scratch arrays by
        the operations of that expression in its order, so it rounds
        exactly as the expression does."""
        new = self._lu.solve(self._rhs_from(phi_flat, phi_flat))
        new -= phi_flat
        for _ in range(self.corrections):
            mid = np.add(phi_flat, new, out=self._mid)
            np.multiply(0.5, mid, out=mid)
            new = self._lu.solve(self._rhs_from(phi_flat, mid))
            new -= phi_flat
        return new

    def _rhs_from(self, phi_flat, at):
        """phi + dt/2 r(at), in the right-hand-side scratch."""
        r = self.remainder(at, out=self._rhs)
        return np.add(phi_flat, np.multiply(0.5 * self.dt, r, out=r), out=r)


def evolve_nonlinear(u0, c, spec, T, dt, background=None, corrections=1,
                     monitor_every=10, basis=None, base_wave=None,
                     drift_guard=1e-6, momentum_kind="auto"):
    """Evolve the frame equation i u_t - i c u_x1 + Lap u + F(|u|^2) u = 0.

    ``u0`` is a uv pair field; the implicit part freezes the potential of
    ``background`` (default: u0 itself).  Energy is monitored every step;
    a per-step relative energy drift beyond ``drift_guard`` rejects the
    step and halves dt (floored at ``_MIN_DT``); each accepted time is
    recorded once.  When a dichotomy basis and its base wave are given,
    the deviation u - U from the (u1, u2) form U of the base wave is
    split by the basis, and its unstable and stable coefficients are
    recorded as ``proj_u`` and ``proj_s``.  The momentum is monitored in
    the renormalization ``momentum_kind``; ``auto`` takes the one that
    ``momentum_kind_of`` gives u0.
    """
    grid = u0.grid
    if background is None:
        background = u0
    bg = background.as_complex()
    stepper = NonlinearStepper(bg, c, spec, grid, dt, corrections)
    n_steps = int(round(abs(T) / abs(dt)))
    marks = _snapshot_steps(n_steps)
    traj = Trajectory()
    base_uv = (as_uv(base_wave.profile).ravel()
               if basis is not None and base_wave is not None else None)
    kind = (momentum_kind_of(u0, spec) if momentum_kind == "auto"
            else momentum_kind)
    if kind not in MOMENTUM_KINDS:
        # the monitor reads a momentum it cannot define as NaN; a kind it
        # does not know is the caller's error
        raise ValueError("unknown momentum kind %r" % kind)

    def monitors(u_field, energy):
        vals = {"E": field_energy(u_field, spec) if energy is None else energy}
        try:
            vals["P"] = field_momentum(u_field, kind, spec)
        except ValueError:
            vals["P"] = np.nan
        if base_uv is not None:
            dev = PairField.from_vector(grid, u_field.ravel() - base_uv, "uv")
            a, b, cu, cs, _ = basis.split(dev)
            vals.update(proj_u=cu, proj_s=cs)
        return vals

    def field(phi_flat):
        return pair_from_complex(grid, bg + phi_flat.reshape(grid.shape))

    def record(step_idx, t, u_field, energy):
        snap = step_idx in marks
        mon = step_idx % monitor_every == 0 or step_idx == n_steps
        if not (snap or mon):
            return
        if u_field is None:
            u_field = field(phi)
        if snap:
            traj.add_snapshot(t, u_field)
        if mon:
            traj.add_monitor(t, **monitors(u_field, energy))

    phi = (u0.as_complex() - bg).ravel()
    u_field = field(phi)
    t = 0.0
    step_idx = 0
    e_prev = None   # the guard's energy of u_field, which the monitor reuses
    if drift_guard is not None:
        e_prev = field_energy(u_field, spec)
        e_scale = max(abs(e_prev), 1e-30)
    record(step_idx, t, u_field, e_prev)
    while step_idx < n_steps:
        new = stepper.step(phi)
        u_field = None
        if drift_guard is not None:
            u_field = field(new)
            e_new = field_energy(u_field, spec)
            if (abs(e_new - e_prev) / e_scale > drift_guard
                    and abs(stepper.dt) / 2.0 >= _MIN_DT):
                # retry from the same state; its time is already recorded
                stepper.set_dt(stepper.dt / 2.0)
                n_steps = step_idx + int(round((abs(T) - abs(t)) / abs(stepper.dt)))
                marks = _snapshot_steps(n_steps)
                continue
            e_prev = e_new
        phi = new
        t += stepper.dt
        step_idx += 1
        record(step_idx, t, u_field, e_prev)
    return traj


# ---------------------------------------------------------------------------
# invariant monitors and growth fits

def monitor_invariants(traj, op=None, other=None):
    """Relative drifts of E, P, and of the cross form <op u, v> between
    the snapshots of ``traj`` and ``other`` (two linear runs).

    ``<key>_undefined`` counts the non-finite samples of a series; a
    series with any has no drift (None).
    """
    out = {}
    for key in ("E", "P"):
        if key in traj.monitors:
            vals = np.asarray(traj.monitors[key], dtype=float)
            undefined = int(np.count_nonzero(~np.isfinite(vals)))
            out[key + "_undefined"] = undefined
            out[key + "_drift"] = None if undefined else float(
                np.max(np.abs(vals - vals[0])) / max(abs(vals[0]), 1e-30))
    if op is not None and other is not None:
        vol = op.grid.cell_volume
        vals = []
        for fu, fv in zip(traj.snapshots, other.snapshots):
            vals.append(float(fu.ravel() @ (op.matrix @ fv.ravel())) * vol)
        vals = np.asarray(vals)
        scale = max(abs(vals[0]), 1e-30)
        out["crossform_drift"] = float(np.max(np.abs(vals - vals[0])) / scale)
    return out


def fit_log_slope(times, values, window=(0.0, 1.0)):
    """Least-squares slope of log(values) vs t over a fractional window.

    Values <= 0 are left out; a NaN or infinite value in the window
    raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t0 = times[0] + window[0] * (times[-1] - times[0])
    t1 = times[0] + window[1] * (times[-1] - times[0])
    inside = (times >= t0) & (times <= t1)
    bad = int(np.sum(~np.isfinite(values[inside])))
    if bad:
        raise ValueError("%d non-finite values in the fit window" % bad)
    mask = inside & (values > 0.0)
    if mask.sum() < 3:
        raise ValueError("not enough points for a slope fit")
    return float(np.polyfit(times[mask], np.log(values[mask]), 1)[0])


def _steps_per(interval, dt):
    """Steps of size |dt| between records ``interval`` time units apart."""
    return max(1, round(interval / abs(dt)))


def dichotomy_growth_test(basis, T, dt, n_draws, rng=None):
    """Empirical growth bounds for the invariant splitting from
    ``n_draws`` random draws run to time T (criterion 10: T = 20,
    dt = 5e-3, 20 draws; the benchmark takes these, the demo 10 draws).

    Returns ``backward_slope``, the fitted backward decay of the unstable
    mode (to compare with -rate); ``cs_slope_max``, the largest
    exponential rate of the center-stable draws after removing the allowed
    (1 + t) polynomial factor; and ``center_bound_max``, the largest
    uniform bound C of the center draws.  The draws are recorded every
    _DRAW_EVERY time units and the backward run every _BACK_EVERY, so a
    coarse dt keeps enough records for the slope fits.
    """
    rng = rng or np.random.default_rng(11)
    op = basis.op

    t_back = min(T, 4.0 / basis.rate)
    back, = _linear_flow(op, [basis.w_u], t_back, -dt,
                         _steps_per(_BACK_EVERY, dt), snapshots=False)
    times, norms = back.series("norm")
    report = {"backward_slope": fit_log_slope(np.abs(times), norms)}

    cs_fields, centers = [], []
    for i in range(n_draws):
        f = random_smooth_pair(op.grid, rng, cutoff=0.2)
        a, b, cu, cs, center = basis.split(f)
        cs_fields.append(PairField.from_vector(
            op.grid, f.ravel() - cu * basis.w_u.ravel(), f.rep))
        if i < max(4, n_draws // 4):
            centers.append(center)
    trajs = _linear_flow(op, cs_fields + centers, T, dt,
                         _steps_per(_DRAW_EVERY, dt), snapshots=False)

    cs_slopes = []
    for traj in trajs[:n_draws]:
        times, norms = traj.series("norm")
        normalized = norms / (1.0 + np.abs(times))
        cs_slopes.append(fit_log_slope(times, normalized, window=(0.5, 1.0)))
    center_bounds = []
    for traj in trajs[n_draws:]:
        _, cnorms = traj.series("norm")
        center_bounds.append(float(np.max(cnorms) / cnorms[0]))
    report["cs_slope_max"] = float(np.max(cs_slopes))
    report["center_bound_max"] = float(np.max(center_bounds))
    return report
