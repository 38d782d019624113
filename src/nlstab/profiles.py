"""Traveling-wave profiles and branch continuation.

Closed-form 1D dark solitons of the unit-background defocusing equation,
stationary bubbles of cubic-quintic laws (1D by quadrature of the first
integral, radial 2D by shooting), and Newton continuation of slow
traveling waves, which are stored in density/phase variables.

Every wave is solved by one damped Newton loop (_newton) on the
traveling-wave residual in field variables (u1, u2), tw_residual_uv, a
product with the stencil matrices of nlstab.grid in the ``edge`` closure
(ghost cells replicate the edge values, which matches the constant far
field up to the exponential tail; see the grid module docstring).  Its
Jacobian is the operator ``Lc`` assembled in the same closure.  A
density/phase wave is converted to (u1, u2) for the solve and back
afterwards, so the solve itself does not need rho > 0.  Newton steps are
computed from the bordered system that appends the discrete translation
modes and the gauge rotation i U to keep the linearization invertible.
The bordered system is solved by block elimination on one sparse LU of
the Jacobian deflated along those directions, with one step of iterative
refinement (see _bordered_solve); neither the bordered matrix nor
A + C^T C is formed.
"""

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

from . import shooting
from .functionals import energy as field_energy
from .functionals import momentum as field_momentum
from .grid import (PairField, hydro_to_uv, norm, translation_mode,
                   uv_to_hydro)
from .nonlinearity import NonlinearitySpec
from .operators import assemble

SQRT2 = np.sqrt(2.0)
_TOL = 1e-11          # projected residual at which Newton stops
_MAX_ITER = 25        # Newton iterations per solve
_STALL_FLOOR = 5e-7   # projected residual a stalled Newton may stop at
_MAX_STEP = 0.01      # largest continuation step in c
_MIN_STEP = 1e-4      # a failed step is halved down to this size


class TravelingWave:
    """A wave profile with speed c, its nonlinearity and residual norm."""

    def __init__(self, c, profile, spec, residual_norm, symmetry="none",
                 newton_iters=0):
        self.c = c
        self.profile = profile
        self.spec = spec
        self.residual_norm = residual_norm
        self.symmetry = symmetry
        self.newton_iters = newton_iters

    @property
    def grid(self):
        return self.profile.grid

    def __repr__(self):
        return "TravelingWave(c=%.6g, rep=%s, residual=%.3g)" % (
            self.c, self.profile.rep, self.residual_norm)


class BranchSample:
    def __init__(self, c, momentum, energy, dpdc=None, newton_iters=0,
                 residual=0.0):
        self.c = c
        self.momentum = momentum
        self.energy = energy
        self.dpdc = dpdc
        self.newton_iters = newton_iters
        self.residual = residual


# ---------------------------------------------------------------------------
# traveling-wave residuals (edge closure)

def tw_residual_uv(field, c, spec):
    """Residual of Lap(U) - i c d1(U) + F(|U|^2) U = 0 in (u1, u2) parts."""
    grid = field.grid
    u1, u2 = field.c1.ravel(), field.c2.ravel()
    neg_lap = grid.neg_laplacian("edge")
    d1 = grid.central(0, "edge")
    fval = spec.f(u1 ** 2 + u2 ** 2)
    r1 = -(neg_lap @ u1) + c * (d1 @ u2) + fval * u1
    r2 = -(neg_lap @ u2) - c * (d1 @ u1) + fval * u2
    return PairField.from_vector(grid, np.concatenate([r1, r2]), "uv")


def _as_uv(field):
    return hydro_to_uv(field) if field.rep == "hydro" else field


def residual_norm(wave):
    """Norm of the (u1, u2) residual, in either storage of the wave."""
    return norm(tw_residual_uv(_as_uv(wave.profile), wave.c, wave.spec))


def _bordered_solve(matrix, rhs, constraints, targets=None):
    """Solve [[A, C^T], [C, 0]] [x; mu] = [rhs; targets] and return x.

    The constraints are the directions along which the Newton Jacobian A
    is singular (the gauge) or nearly so (translations, which a 1D grid
    breaks only by roundoff), so A itself is never factored.  One sparse
    LU factors the deflated matrix A + s sum_i e_ki e_ki^T, with
    s = max|A| and k_i the node where |C_i| is largest (nodes kept
    distinct).  The border carries each -s e_ki as one more column, with
    row e_ki^T and corner -1: its unknown nu_i = x_ki takes the deflation
    back out.  The 2p x 2p Schur complement of the p constraints and the
    nu_i comes from 2p back-solves.  One step of iterative refinement
    against the full bordered residual brings x to the accuracy of a
    direct sparse solve of the bordered matrix.
    """
    cons = np.stack(constraints)
    p = len(constraints)
    targets = np.zeros(p) if targets is None else np.asarray(targets, float)
    nodes = []
    for row in np.abs(cons):
        row[nodes] = 0.0
        nodes.append(int(np.argmax(row)))
    sigma = abs(matrix).max()
    lu = splu(sp.csc_matrix(matrix + sp.csr_matrix(
        (np.full(p, sigma), (nodes, nodes)), shape=matrix.shape)),
        permc_spec="MMD_AT_PLUS_A")
    rows = np.vstack([cons, np.zeros((p, rhs.size))])
    rows[p + np.arange(p), nodes] = 1.0
    border = np.hstack([cons.T, np.zeros((rhs.size, p))])
    border[nodes, p + np.arange(p)] = -sigma
    w = lu.solve(border)
    schur = -rows @ w
    schur[p:, p:] -= np.eye(p)

    def solve(top, bottom):
        z = lu.solve(top)
        y = np.linalg.solve(schur, np.concatenate([bottom, np.zeros(p)])
                            - rows @ z)
        return z - w @ y, y[:p]

    x, mu = solve(rhs, targets)
    dx, _ = solve(rhs - matrix @ x - cons.T @ mu, targets - cons @ x)
    return x + dx


# ---------------------------------------------------------------------------
# 1D dark solitons

def dark_soliton(c, grid, spec=None, polish=False):
    """Closed-form 1D dark soliton of the unit-background defocusing law.

    U_c(x) = sqrt(1 - c^2/2) tanh(x sqrt(2 - c^2)/2) + i c/sqrt(2);
    speeds are restricted to the subsonic range [0, sqrt(2)).
    """
    if spec is None:
        spec = NonlinearitySpec.gp()
    if spec.kind != "gp":
        raise ValueError("the tanh family belongs to the unit-background law")
    if not (0.0 <= c < SQRT2):
        raise ValueError("no subsonic traveling wave for |c| >= sqrt(2)")
    if grid.dim != 1:
        raise ValueError("dark solitons are one-dimensional profiles")
    if grid.half_length[0] < 20.0:
        raise ValueError("soliton runs need a half-length of at least 20")
    x = grid.axis(0)
    amp = np.sqrt(1.0 - c ** 2 / 2.0)
    width = np.sqrt(2.0 - c ** 2) / 2.0
    prof = PairField(grid, amp * np.tanh(width * x),
                     np.full_like(x, c / SQRT2), "uv")
    wave = TravelingWave(c, prof, spec, 0.0, symmetry="none")
    if polish:
        return polish_field_wave(wave)
    wave.residual_norm = residual_norm(wave)
    return wave


def dark_soliton_momentum_exact(c):
    """Renormalized momentum of the tanh family: 2(d*nu - atan(nu/d))."""
    d = c / SQRT2
    nu = np.sqrt(1.0 - c ** 2 / 2.0)
    return 2.0 * (d * nu - np.arctan2(nu, d))


def polish_field_wave(wave):
    """Newton-polish a profile to a discrete traveling wave at its speed."""
    return _newton(wave, wave.c)


# ---------------------------------------------------------------------------
# stationary bubbles

def bubble_turning_amplitude(constants):
    """Dip amplitude s* in (u0, sqrt(rho0)) with G(s*) = 0."""
    k = constants
    g_lo = k.big_g(k.u0)
    g_hi = k.big_g(k.amp * (1.0 - 1e-13))
    if not (g_lo < 0.0 < g_hi):
        raise ValueError("no interior zero of G: the law admits no bubble")
    return brentq(lambda s: k.big_g(s), k.u0, k.amp * (1.0 - 1e-13),
                  xtol=1e-14)


def stationary_bubble(constants, geometry, grid, polish=True):
    """Stationary bubble profile (density/phase form, theta = 0).

    ``line`` integrates the planar dip equation Q'' = -g(Q) from the
    turning amplitude; ``radial-2D`` shoots for the radial ground state
    and revolves it onto the Cartesian grid.  The profile is polished to a
    discrete steady state unless ``polish`` is false.
    """
    k = constants
    spec = k.spec
    if geometry == "line":
        if grid.dim != 1:
            raise ValueError("line geometry needs a 1D grid")
        s_star = bubble_turning_amplitude(k)
        L = grid.half_length[0]

        def rhs(x, y):
            return [y[1], -k.g(y[0])]

        sol = solve_ivp(rhs, (0.0, L + grid.h[0]), [s_star, 0.0],
                        method="DOP853", rtol=1e-12, atol=1e-14,
                        dense_output=True)
        x = grid.axis(0)
        q = sol.sol(np.abs(x))[0]
        q = np.clip(q, 0.0, s_star)
        phi = k.amp - q
        symmetry = "none"
    elif geometry == "radial-2D":
        if grid.dim != 2:
            raise ValueError("radial-2D geometry needs a 2D grid")
        res = shooting.find_alpha0(k, 2)
        xx, yy = grid.meshes()
        r = np.sqrt(xx ** 2 + yy ** 2)
        q = np.clip(res.amplitude_at(r), 0.0, res.alpha0)
        phi = k.amp - q
        symmetry = "radial"
    else:
        raise ValueError("geometry must be 'line' or 'radial-2D'")

    if np.any(phi <= 0.0) or np.any(phi >= k.amp + 1e-12):
        raise ValueError("bubble amplitude left the band (0, sqrt(rho0))")
    prof = PairField(grid, phi ** 2, np.zeros(grid.shape), "hydro")
    wave = TravelingWave(0.0, prof, spec, 0.0, symmetry=symmetry)
    if polish:
        return _newton(wave, 0.0)
    wave.residual_norm = residual_norm(wave)
    return wave


def bubble_amplitude_monotone(wave):
    """Check phi'(r) > 0 along the positive x1 axis."""
    grid = wave.grid
    phi = np.sqrt(wave.profile.c1)
    if grid.dim == 1:
        line = phi[grid.n[0] // 2:]
    else:
        line = phi[grid.n[0] // 2:, grid.n[1] // 2]
    d = np.diff(line)
    return bool(np.all(d[:-1] > -1e-12))


# ---------------------------------------------------------------------------
# Newton continuation of slow traveling waves

def _mirror(arr, axis):
    idx = [slice(None)] * arr.ndim
    idx[axis] = slice(None, None, -1)
    return np.roll(arr[tuple(idx)], 1, axis)


def _symmetrize(field, symmetry):
    """Enforce mirror symmetries (about x=0, which is a grid node)."""
    if field.grid.dim != 2 or symmetry not in ("even-in-transverse", "radial"):
        return field
    c1 = 0.5 * (field.c1 + _mirror(field.c1, 1))
    c2 = 0.5 * (field.c2 + _mirror(field.c2, 1))
    if symmetry == "radial":
        c1 = 0.5 * (c1 + _mirror(c1, 0))
        c2 = 0.5 * (c2 + _mirror(c2, 0))
    return PairField(field.grid, c1, c2, field.rep)


def _polar_step(state, delta, step):
    """The point at `step` along a Newton update of a stacked (u1, u2) state.

    A phase change is a rotation, which is nonlinear in (u1, u2): a
    straight-line step along it also shrinks |u|, and the line search
    would then cut full steps short.  The step therefore follows the
    polar curve (|u| + s d psi) exp(i(theta + s d theta)), with
    d psi = Re(conj(u) du)/|u| and d theta = Im(conj(u) du)/|u|^2; where
    u = 0 it is u + s du.
    """
    n = state.size // 2
    u1, u2, d1, d2 = state[:n], state[n:], delta[:n], delta[n:]
    mod = np.hypot(u1, u2)
    live = mod > 0.0
    safe = np.where(live, mod, 1.0)
    amp = mod + step * (u1 * d1 + u2 * d2) / safe
    turn = step * (u1 * d2 - u2 * d1) / safe ** 2
    cos, sin = np.cos(turn), np.sin(turn)
    e1, e2 = u1 / safe, u2 / safe
    return np.concatenate([
        np.where(live, amp * (e1 * cos - e2 * sin), u1 + step * d1),
        np.where(live, amp * (e2 * cos + e1 * sin), u2 + step * d2)])


def _newton(wave, c, anchor=None):
    """Damped bordered Newton for the traveling wave of speed c.

    Iterates in (u1, u2) on tw_residual_uv with the Jacobian Lc (edge
    closure), and drives that residual projected off the translation and
    gauge directions below _TOL (the discrete symmetry breaking leaves an
    irreducible residual component along those directions, reported but
    not chased).  The appended constraint rows pin the same directions in
    the update, anchored at `anchor` (default: the seed), which makes the
    endpoint locally unique.  Mirror symmetries are imposed on the seed.
    The result keeps the seed's representation.  A solve that stops above
    _STALL_FLOOR (no descent along the step, or _MAX_ITER iterations)
    raises RuntimeError; between _TOL and the floor it stops at the
    discretization floor.
    """
    spec, grid = wave.spec, wave.grid
    state = _symmetrize(_as_uv(wave.profile), wave.symmetry).ravel()
    anchor = _as_uv(wave.profile if anchor is None else anchor)
    constraints = np.stack(
        [translation_mode(anchor, a).ravel() for a in range(grid.dim)]
        + [np.concatenate([-anchor.c2.ravel(), anchor.c1.ravel()])])
    proj_basis, _ = np.linalg.qr(constraints.T)
    root_vol = np.sqrt(grid.cell_volume)

    def residual(vec):
        res = tw_residual_uv(PairField.from_vector(grid, vec, "uv"), c,
                             spec).ravel()
        perp = res - proj_basis @ (proj_basis.T @ res)
        return res, np.linalg.norm(perp) * root_vol

    res, rn = residual(state)
    iters = 0
    floored = False
    while rn > _TOL and iters < _MAX_ITER:
        jac = assemble("Lc", base=PairField.from_vector(grid, state, "uv"),
                       c=c, spec=spec, closure="edge").matrix
        delta = _bordered_solve(jac, res, list(constraints),
                                constraints @ (anchor.ravel() - state))
        # increments at machine precision mean the residual hit its
        # float64 evaluation floor for this stencil scale
        if np.linalg.norm(delta) <= 1e-12 * max(np.linalg.norm(state), 1.0):
            floored = True
            break
        for step in 0.5 ** np.arange(12):
            trial = _polar_step(state, delta, step)
            trial_res, trial_rn = residual(trial)
            if trial_rn < _TOL or trial_rn < rn * (1.0 - 1e-4 * step):
                break
        else:
            break                 # the line search found no descent
        state, res, rn = trial, trial_res, trial_rn
        iters += 1
    if rn > _STALL_FLOOR and not floored:
        raise RuntimeError("Newton stalled after %d iterations at "
                           "|perp S| = %.3g" % (iters, rn))
    field = PairField.from_vector(grid, state, "uv")
    if wave.profile.rep == "hydro":
        field = uv_to_hydro(field)
        field.c2 -= field.c2.mean()   # the stored gauge: zero-mean phase
    out = TravelingWave(c, field, spec, 0.0, wave.symmetry,
                        newton_iters=iters)
    out.residual_norm = residual_norm(out)
    return out


def kernel_coefficient(wave):
    """Component of the full residual along the translation direction."""
    field = _as_uv(wave.profile)
    res = tw_residual_uv(field, wave.c, wave.spec)
    k0 = translation_mode(field)
    denom = norm(k0) ** 2
    return float(res.ravel() @ k0.ravel()) * wave.grid.cell_volume / denom


def continue_branch(start, c_targets):
    """Continue a density/phase wave to each target speed by warm starts.

    Each target starts from the nearest wave solved so far, the start
    included; a target at the speed of such a wave is a copy of it with
    ``newton_iters=0``.  Steps in c never exceed _MAX_STEP; a failed
    Newton solve halves the step down to _MIN_STEP.  Returns one wave per
    target speed, in the order given.
    """
    if start.profile.rep != "hydro":
        raise ValueError("continuation stores density/phase waves")
    out = []
    solved = [start]
    if start.grid.dim == 2 and start.symmetry == "radial":
        # a moving wave keeps only the transverse mirror symmetry
        solved = [TravelingWave(start.c, start.profile, start.spec,
                                start.residual_norm, "even-in-transverse",
                                start.newton_iters)]
    for target in c_targets:
        current = min(solved, key=lambda wave: abs(target - wave.c))
        if abs(target - current.c) < 1e-15:
            out.append(TravelingWave(target, current.profile.copy(),
                                     current.spec, current.residual_norm,
                                     current.symmetry, newton_iters=0))
            continue
        step = np.sign(target - current.c) * min(_MAX_STEP,
                                                 abs(target - current.c))
        while abs(target - current.c) > 1e-15:
            c_try = current.c + step
            if (target - c_try) * (target - current.c) < 0.0:
                c_try = target
            try:
                current = _newton(current, c_try)
            except RuntimeError:
                if abs(step) / 2.0 < _MIN_STEP:
                    raise
                step /= 2.0
                continue
            step = np.sign(target - current.c) * min(_MAX_STEP,
                                                     abs(target - current.c))
        out.append(current)
        solved.append(current)
    return out


def speed_derivative(branch, index=None):
    """Central-difference derivative of the profile along the branch.

    Adjacent profiles are registered by the integer shift maximizing the
    correlation of their first components before differencing (removes
    the translation gauge).
    """
    if len(branch) < 2:
        raise ValueError("need at least two branch points")
    if index is None:
        index = len(branch) // 2
    lo = branch[max(index - 1, 0)]
    hi = branch[min(index + 1, len(branch) - 1)]
    dc = hi.c - lo.c
    if dc == 0.0:
        raise ValueError("branch speeds must be distinct")
    ref = branch[index].profile
    a = _register(ref.c1, lo.profile.c1, lo.profile)
    b = _register(ref.c1, hi.profile.c1, hi.profile)
    d1 = (b[0] - a[0]) / dc
    d2 = (b[1] - a[1]) / dc
    return PairField(ref.grid, d1, d2, "uv")


def _register(ref_c1, other_c1, other):
    flat_ref = ref_c1 - ref_c1.mean()
    best_shift, best_score = 0, -np.inf
    for shift in range(-3, 4):
        cand = np.roll(other_c1, shift, axis=0)
        score = float(np.sum(flat_ref * (cand - cand.mean())))
        if score > best_score:
            best_shift, best_score = shift, score
    return (np.roll(other.c1, best_shift, axis=0),
            np.roll(other.c2, best_shift, axis=0))


def branch_momentum_sweep(branch, kind=None, spec=None):
    """Momentum/energy samples along a branch with central-difference dP/dc."""
    if len(branch) < 3:
        raise ValueError("a sweep needs at least three branch points")
    spec = spec or branch[0].spec
    if kind is None:
        kind = "hydro" if branch[0].profile.rep == "hydro" else "renormalized1D"
    samples = []
    for wave in branch:
        p = field_momentum(wave.profile, kind, spec)
        e = field_energy(wave.profile, spec)
        samples.append(BranchSample(wave.c, p, e,
                                    newton_iters=wave.newton_iters,
                                    residual=wave.residual_norm))
    for i in range(1, len(samples) - 1):
        dc = samples[i + 1].c - samples[i - 1].c
        samples[i].dpdc = (samples[i + 1].momentum - samples[i - 1].momentum) / dc
    return samples


def sweep_to_csv(samples, path):
    with open(path, "w") as fh:
        fh.write("c,P,E,dPdc,newton_iters,residual\n")
        for s in samples:
            dpdc = "" if s.dpdc is None else "%.17g" % s.dpdc
            fh.write("%.17g,%.17g,%.17g,%s,%d,%.17g\n" %
                     (s.c, s.momentum, s.energy, dpdc, s.newton_iters,
                      s.residual))
