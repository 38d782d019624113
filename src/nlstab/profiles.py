"""Traveling-wave profiles and branch continuation.

Closed-form 1D dark solitons of the unit-background defocusing equation,
stationary bubbles of cubic-quintic laws (1D by quadrature of the first
integral, radial 2D by shooting), and Newton continuation of slow
traveling waves in density/phase variables.

Residuals of the traveling-wave equations are products with the stencil
matrices of nlstab.grid in the ``edge`` closure (ghost cells replicate
the edge values, which matches the constant far field up to the
exponential tail; see the grid module docstring), and their Newton
Jacobians are assembled from the same matrices.  Newton steps are
computed from the bordered system that appends the discrete translation
mode (and, for field variables, the gauge rotation mode) to keep the
linearization invertible.
"""

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.sparse.linalg import spsolve

from . import shooting
from .functionals import energy as field_energy
from .functionals import momentum as field_momentum
from .grid import PairField, norm, translation_mode
from .nonlinearity import NonlinearitySpec
from .operators import assemble, vector_grad_matrix

SQRT2 = np.sqrt(2.0)
_STALL_FLOOR = 5e-7   # projected residual a stalled Newton may stop at


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


def tw_residual_hydro_amp(field, c, spec):
    """Traveling-wave residual with the first equation in amplitude form.

    Multiplying the Bernoulli equation by sqrt(rho) collapses the quantum
    pressure to a plain Laplacian of the amplitude; this is the form
    whose exact discrete zeros the Newton continuation produces, and the
    form reported as a wave's residual norm.
    """
    grid = field.grid
    vec = _amp_residual(np.sqrt(field.c1), field.c2, c, spec, grid)
    return PairField.from_vector(grid, vec, "uv")


def residual_norm(wave):
    res = (tw_residual_hydro_amp if wave.profile.rep == "hydro"
           else tw_residual_uv)(wave.profile, wave.c, wave.spec)
    return norm(res)


def _bordered_solve(matrix, rhs, constraints, targets=None):
    """Solve [[A, C^T], [C, 0]] [x; mu] = [rhs; targets] and return x.

    Each constraint row (and its target) is scaled to a largest entry of
    1e-4 times A's, which leaves x unchanged.  SuperLU's partial pivoting
    then takes a pivot from the dense border rows only where A is nearly
    singular; an early border pivot fills the factors of a 2D system.
    """
    cons = np.stack(constraints)
    scale = 1e-4 * abs(matrix).max() / np.abs(cons).max(axis=1)
    cons = sp.csr_matrix(cons * scale[:, None])
    m = sp.bmat([[matrix, cons.T], [cons, None]], format="csc")
    if targets is None:
        targets = np.zeros(len(constraints))
    sol = spsolve(m, np.concatenate([rhs, scale * np.asarray(targets,
                                                             dtype=float)]))
    return sol[: rhs.size]


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
        wave = polish_field_wave(wave)
    wave.residual_norm = residual_norm(wave)
    return wave


def dark_soliton_momentum_exact(c):
    """Renormalized momentum of the tanh family: 2(d*nu - atan(nu/d))."""
    d = c / SQRT2
    nu = np.sqrt(1.0 - c ** 2 / 2.0)
    return 2.0 * (d * nu - np.arctan2(nu, d))


def polish_field_wave(wave, tol=1e-11, max_iter=16):
    """Newton-polish a (u1, u2) profile to a discrete traveling wave."""
    field = wave.profile.copy()
    c, spec, grid = wave.c, wave.spec, wave.grid
    iters = 0
    for _ in range(max_iter):
        res = tw_residual_uv(field, c, spec)
        if norm(res) < tol:
            break
        jac = assemble("Lc", base=field, c=c, spec=spec,
                       closure="edge").matrix
        t_mode = translation_mode(field).ravel()
        gauge = np.concatenate([-field.c2.ravel(), field.c1.ravel()])
        delta = _bordered_solve(jac, res.ravel(), [t_mode, gauge])
        field = PairField(grid, field.c1 + delta[: grid.size].reshape(grid.shape),
                          field.c2 + delta[grid.size:].reshape(grid.shape), "uv")
        iters += 1
    out = TravelingWave(c, field, spec, 0.0, wave.symmetry, newton_iters=iters)
    out.residual_norm = residual_norm(out)
    return out


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
        wave = _newton_hydro(wave, 0.0, tol=1e-11, max_iter=20)[0]
        wave.symmetry = symmetry
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


def _amp_residual(psi, theta, c, spec, grid):
    """Stacked amplitude-form traveling-wave residual (S1, S2), flat.

    S1 = -Lap(psi) - psi F(psi^2) - c psi th_x1 + psi |grad th|^2; the
    quantum pressure collapses to a plain Laplacian, which keeps the
    Newton matrix consistent with the residual stencils even on coarse
    grids.  S2 = c rho_x1 - 2 div(rho grad th) with rho = psi^2 averaged
    onto the faces; the outermost faces carry no flux.
    """
    psi, theta = psi.ravel(), theta.ravel()
    rho = psi ** 2
    grads = [grid.central(a, "edge") @ theta for a in range(grid.dim)]
    s1 = (grid.neg_laplacian("edge") @ psi - psi * spec.f(rho)
          - c * psi * grads[0] + psi * sum(g ** 2 for g in grads))
    s2 = (c * (grid.central(0, "edge") @ rho)
          + 2.0 * (grid.div_coeff_grad(rho, "edge") @ theta))
    return np.concatenate([s1, s2])


def _amp_jacobian(psi, theta, c, spec, grid):
    """Exact Jacobian of _amp_residual in (psi, theta)."""
    psi, theta = psi.ravel(), theta.ravel()
    mod2 = psi ** 2
    fval, fp = spec.f(mod2), spec.fprime(mod2)
    d1 = grid.central(0, "edge")
    grads_th = [grid.central(a, "edge") @ theta for a in range(grid.dim)]
    gth_sq = sum(g ** 2 for g in grads_th)
    # d/d rho of -div(rho_face grad th), rho_face = A rho on each axis
    flux = None
    for a in range(grid.dim):
        d, avg = grid.faces(a, "edge")
        term = d.T @ sp.diags(d @ theta) @ avg / grid.h[a] ** 2
        flux = term if flux is None else flux + term
    a11 = grid.neg_laplacian("edge") + sp.diags(
        -fval - 2.0 * fp * mod2 - c * grads_th[0] + gth_sq)
    a12 = sp.diags(psi) @ (-c * d1 + 2.0 * vector_grad_matrix(
        grid, grads_th, "edge"))
    a21 = (c * d1 + 2.0 * flux) @ sp.diags(2.0 * psi)
    a22 = 2.0 * grid.div_coeff_grad(mod2, "edge")
    return sp.bmat([[a11, a12], [a21, a22]], format="csr")


def _newton_hydro(wave, c, tol=1e-11, max_iter=25, damping=True,
                  anchor=None):
    """Damped bordered Newton at speed c, iterating in (sqrt(rho), theta).

    Solves the traveling-wave system projected off the translation and
    phase-constant directions (the discrete symmetry breaking leaves an
    irreducible residual component along those directions, reported but
    not chased).  The appended constraint rows pin the same directions in
    the update, anchored at `anchor` (default: the seed), which makes the
    endpoint locally unique.  Mirror symmetries are imposed on the seed.
    """
    spec = wave.spec
    grid = wave.grid
    seed = _symmetrize(PairField(grid, np.sqrt(wave.profile.c1),
                                 wave.profile.c2, "uv"), wave.symmetry)
    psi = seed.c1
    theta = seed.c2.copy()
    if anchor is None:
        anchor = wave.profile
    anchor_amp = PairField(grid, np.sqrt(anchor.c1), anchor.c2, "uv")
    anchor_vec = anchor_amp.ravel()
    a_modes = [translation_mode(anchor_amp, a).ravel()
               for a in range(grid.dim)]
    gauge = np.concatenate([np.zeros(grid.size), np.ones(grid.size)])
    proj_basis, _ = np.linalg.qr(np.stack(a_modes + [gauge], axis=1))
    root_vol = np.sqrt(grid.cell_volume)

    def residual(ps, th):
        vec = _amp_residual(ps, th, c, spec, grid)
        perp = vec - proj_basis @ (proj_basis.T @ vec)
        return vec, np.linalg.norm(perp) * root_vol

    svec, rn = residual(psi, theta)
    iters = 0
    floored = False
    while rn > tol and iters < max_iter:
        jac = _amp_jacobian(psi, theta, c, spec, grid)
        state = np.concatenate([psi.ravel(), theta.ravel()])
        constraints = list(a_modes)
        targets = [-float(mode @ (state - anchor_vec)) for mode in a_modes]
        constraints.append(gauge)
        targets.append(0.0)
        delta = _bordered_solve(jac, -svec, constraints, targets)
        # increments at machine precision mean the residual hit its
        # float64 evaluation floor for this stencil scale
        scale = np.linalg.norm(state)
        if np.linalg.norm(delta) <= 1e-12 * max(scale, 1.0):
            floored = True
            break
        step = 1.0
        moved = False
        for _ in range(12):
            psi_t = psi + step * delta[: grid.size].reshape(grid.shape)
            th_t = theta + step * delta[grid.size:].reshape(grid.shape)
            th_t = th_t - th_t.mean()   # pin the gauge
            if psi_t.min() > 0.0:
                trial_vec, trial_rn = residual(psi_t, th_t)
                if (trial_rn < tol or trial_rn < rn * (1.0 - 1e-4 * step)
                        or not damping):
                    moved = True
                    break
            step *= 0.5
        if not moved:
            if rn < max(50.0 * tol, _STALL_FLOOR):
                break             # stalled at the discretization floor
            raise RuntimeError(
                "Newton line search stalled at |perp S| = %.3g" % rn)
        psi, theta, svec, rn = psi_t, th_t, trial_vec, trial_rn
        iters += 1
    if rn > max(50.0 * tol, _STALL_FLOOR) and not floored:
        raise RuntimeError(
            "Newton stagnation after %d iterations, |perp S| = %.3g"
            % (iters, rn))
    field = PairField(grid, psi ** 2, theta, "hydro")
    out = TravelingWave(c, field, spec, norm(tw_residual_hydro_amp(
        field, c, spec)), wave.symmetry, newton_iters=iters)
    out.projected_residual = rn
    return out, rn


def kernel_coefficient(wave):
    """Component of the full residual along the translation direction."""
    res = tw_residual_hydro_amp(wave.profile, wave.c, wave.spec)
    amp_pair = PairField(wave.grid, np.sqrt(wave.profile.c1),
                         wave.profile.c2, "uv")
    k0 = translation_mode(amp_pair)
    denom = norm(k0) ** 2
    return float(res.ravel() @ k0.ravel()) * wave.grid.cell_volume / denom


def continue_branch(start, c_targets, tol=1e-11, max_iter=25,
                    max_step=0.01, min_step=1e-4):
    """Continue a density/phase wave to each target speed by warm starts.

    Each target starts from the nearest wave solved so far, the start
    included; a target at the speed of such a wave is a copy of it with
    ``newton_iters=0``.  Steps in c never exceed ``max_step``; a failed
    Newton solve halves the step down to ``min_step``.  Returns one wave
    per target speed, in the order given.
    """
    if start.profile.rep != "hydro":
        raise ValueError("continuation runs in density/phase variables")
    if start.profile.c1.min() <= 0.0:
        raise ValueError("continuation needs a vortex-free start")
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
        c_now = current.c
        step = np.sign(target - c_now) * min(max_step, abs(target - c_now))
        while abs(target - c_now) > 1e-15:
            c_try = c_now + step
            if (target - c_try) * (target - c_now) < 0.0:
                c_try = target
            try:
                nxt, _ = _newton_hydro(current, c_try, tol, max_iter)
            except RuntimeError:
                if abs(step) / 2.0 < min_step:
                    raise
                step /= 2.0
                continue
            current = nxt
            c_now = c_try
            step = np.sign(target - c_now) * min(max_step, abs(target - c_now)
                                                 if target != c_now else max_step)
            if step == 0.0:
                break
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
