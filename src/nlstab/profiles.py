"""Traveling-wave profiles and branch continuation.

Closed-form 1D dark solitons of the unit-background defocusing equation,
stationary bubbles of cubic-quintic laws (1D by quadrature of the first
integral, radial 2D by shooting), and Newton continuation of slow
traveling waves.

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
The bordered system is solved by block elimination on a sparse LU of
the Jacobian deflated along those directions, with one step of iterative
refinement (see _BorderedLU); neither the bordered matrix nor
A + C^T C is formed.  SuperLU factors in panels of _PANEL = 4 columns,
a width chosen by measurement.

Newton factors a new LU only while it is far from the wave: at its first
iteration, and after an accepted update larger than _REUSE times the
state.  In the quadratic tail it reassembles the Jacobian and solves with
the LU it holds (the chord, or Shamanskii, method; C. T. Kelley, *Solving
Nonlinear Equations with Newton's Method*, SIAM 2003, ch. 5).  The
refinement step computes its residual with the current Jacobian, so the
held LU only preconditions it; the step then misses the fresh-LU step by
about the square of the Jacobian's change.  On the 64^2 radial branch of
the benchmark that cuts 26 LUs to 17 with the iteration counts of a fresh
LU at every step, apart from one more iteration of the c = 0 polish.  An
LU lives inside one Newton solve, and only one is alive at a time.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .functionals import energy as field_energy
from .functionals import momentum as field_momentum
from .functionals import momentum_kind_of
from .grid import PairField, as_uv, norm, translation_mode, uv_to_hydro
from .nonlinearity import NonlinearitySpec
from .operators import assemble

SQRT2 = np.sqrt(2.0)
_TOL = 1e-11          # projected residual at which Newton stops
_MAX_ITER = 25        # Newton iterations per solve
_STALL_FLOOR = 5e-7   # projected residual a stalled Newton may stop at
_MAX_STEP = 0.01      # largest continuation step in c
_MIN_STEP = 1e-4      # a failed step is halved down to this size
_SEED_XTOL = 1e-6     # shooting amplitude tolerance of a seed Newton polishes
_PANEL = 4            # SuperLU panel width of the Newton LU, by measurement
_REUSE = 1e-3         # relative Newton update above which the LU is renewed


class TravelingWave:
    """A wave profile with speed c, its nonlinearity and residual norm.

    ``projected_residual`` is the residual norm off the translation and
    gauge directions at which Newton stopped; None for a wave that Newton
    did not solve.
    """

    def __init__(self, c, profile, spec, residual_norm, symmetry="none",
                 newton_iters=0, projected_residual=None):
        self.c = c
        self.profile = profile
        self.spec = spec
        self.residual_norm = residual_norm
        self.symmetry = symmetry
        self.newton_iters = newton_iters
        self.projected_residual = projected_residual

    @property
    def grid(self):
        return self.profile.grid

    def __repr__(self):
        return "TravelingWave(c=%.6g, rep=%s, residual=%.3g)" % (
            self.c, self.profile.rep, self.residual_norm)


class BranchSample:
    def __init__(self, c, momentum, energy, dpdc=None, newton_iters=0,
                 residual=0.0, projected_residual=None):
        self.c = c
        self.momentum = momentum
        self.energy = energy
        self.dpdc = dpdc
        self.newton_iters = newton_iters
        self.residual = residual
        self.projected_residual = projected_residual


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


def residual_norm(wave):
    """Norm of the (u1, u2) residual, in either storage of the wave."""
    return norm(tw_residual_uv(as_uv(wave.profile), wave.c, wave.spec))


class _BorderedLU:
    """One sparse LU for the bordered Newton system
    [[A, C^T], [C, 0]] [x; mu] = [rhs; targets], for as many solves as
    the caller holds it.

    The constraint rows C are the directions along which the Newton
    Jacobian A is singular (the gauge) or nearly so (translations, which
    a 1D grid breaks only by roundoff), so A itself is never factored.
    The LU factors the deflated matrix A + s sum_i e_ki e_ki^T, with
    s = max|A| and k_i the node where |C_i| is largest (nodes kept
    distinct).  The border carries each -s e_ki as one more column, with
    row e_ki^T and corner -1: its unknown nu_i = x_ki takes the deflation
    back out.  The 2p x 2p Schur complement of the p constraints and the
    nu_i comes from 2p back-solves, done once here.

    ``solve`` takes the Jacobian of the current iterate, which need not
    be the one factored.  Its one step of iterative refinement computes
    the full bordered residual with that Jacobian, so the LU only has to
    be a good preconditioner for it: with the LU of the Jacobian itself
    the step brings x to the accuracy of a direct sparse solve, and with
    the LU of a nearby iterate it leaves an error of second order in the
    Jacobian's change (2.6e-3 relative after a Newton update of 1e-3 on
    the 64^2 radial bubble, 1.5e-6 after one of 3e-5).

    SuperLU factors in panels of _PANEL columns: on the 64^2 and 128^2
    radial-bubble Jacobians, with the same ordering and fill, that was
    faster than 6, 8 or SuperLU's default width.
    """

    def __init__(self, matrix, constraints):
        p = len(constraints)
        nodes = []
        for row in np.abs(constraints):
            row[nodes] = 0.0
            nodes.append(int(np.argmax(row)))
        sigma = abs(matrix).max()
        self.lu = splu(sp.csc_matrix(matrix + sp.csr_matrix(
            (np.full(p, sigma), (nodes, nodes)), shape=matrix.shape)),
            permc_spec="MMD_AT_PLUS_A", panel_size=_PANEL)
        n = matrix.shape[0]
        self.cons = constraints
        self.rows = np.vstack([constraints, np.zeros((p, n))])
        self.rows[p + np.arange(p), nodes] = 1.0
        border = np.hstack([constraints.T, np.zeros((n, p))])
        border[nodes, p + np.arange(p)] = -sigma
        self.w = self.lu.solve(border)
        self.schur = -self.rows @ self.w
        self.schur[p:, p:] -= np.eye(p)

    def _eliminate(self, top, bottom):
        z = self.lu.solve(top)
        y = np.linalg.solve(self.schur, np.concatenate(
            [bottom, np.zeros(len(bottom))]) - self.rows @ z)
        return z - self.w @ y, y[:len(bottom)]

    def solve(self, matrix, rhs, targets):
        """x of the bordered system with Jacobian ``matrix``."""
        x, mu = self._eliminate(rhs, targets)
        dx, _ = self._eliminate(rhs - matrix @ x - self.cons.T @ mu,
                                targets - self.cons @ x)
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
    problem = dark_soliton_input_error(c, grid, spec)
    if problem:
        raise ValueError(problem)
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


def dark_soliton_input_error(c, grid, spec):
    """Why ``dark_soliton`` refuses (c, grid, spec), or None if it takes
    them; a caller can refuse such input before any numerics."""
    if spec.kind != "gp":
        return "the tanh family belongs to the unit-background law"
    if not (0.0 <= c < SQRT2):
        return ("dark-soliton speeds lie in [0, sqrt(2)), not c = %r"
                % float(c))
    if grid.dim != 1:
        return "dark solitons are one-dimensional profiles"
    if grid.half_length[0] < 20.0:
        return ("soliton runs need a half-length of at least 20, not %r"
                % float(grid.half_length[0]))
    return None


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
    from scipy.optimize import brentq
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

    The radial shooting bisects its amplitude only to ``_SEED_XTOL``:
    Newton moves the seed by the grid's O(h^2) error, far more than that,
    and lands on the same discrete wave in the same number of iterations
    (on 64^2 to 256^2 grids the polished sqrt(rho) moves by at most 4e-9
    against a 1e-12 seed).
    """
    k = constants
    spec = k.spec
    if geometry == "line":
        if grid.dim != 1:
            raise ValueError("line geometry needs a 1D grid")
        from scipy.integrate import solve_ivp
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
        from . import shooting
        res = shooting.find_alpha0(k, 2, xtol=_SEED_XTOL)
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
    discretization floor.  The LU is factored anew at the first iteration
    and after an accepted update above _REUSE times the state, and held
    otherwise (see the module docstring).
    """
    spec, grid = wave.spec, wave.grid
    state = _symmetrize(as_uv(wave.profile), wave.symmetry).ravel()
    anchor = as_uv(wave.profile if anchor is None else anchor)
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
    factor, refactor = None, True
    while rn > _TOL and iters < _MAX_ITER:
        if refactor:
            factor = None         # one LU alive at a time
        jac = assemble("Lc", base=PairField.from_vector(grid, state, "uv"),
                       c=c, spec=spec, closure="edge").matrix
        if refactor:
            factor = _BorderedLU(jac, constraints)
        delta = factor.solve(jac, res, constraints @ (anchor.ravel() - state))
        # increments at machine precision mean the residual hit its
        # float64 evaluation floor for this stencil scale
        size = np.linalg.norm(state)
        if np.linalg.norm(delta) <= 1e-12 * max(size, 1.0):
            floored = True
            break
        for step in 0.5 ** np.arange(12):
            trial = _polar_step(state, delta, step)
            trial_res, trial_rn = residual(trial)
            if trial_rn < _TOL or trial_rn < rn * (1.0 - 1e-4 * step):
                break
        else:
            break                 # the line search found no descent
        refactor = step * np.linalg.norm(delta) > _REUSE * size
        # in place, and nothing of this iteration kept: an array allocated
        # while the LU is held and outliving it would pin the heap above it
        state[:], res[:], rn = trial, trial_res, trial_rn
        del jac, delta, trial, trial_res
        iters += 1
    factor = None                 # before allocating what the wave keeps
    if rn > _STALL_FLOOR and not floored:
        raise RuntimeError("Newton stalled after %d iterations at "
                           "|perp S| = %.3g" % (iters, rn))
    field = PairField.from_vector(grid, state, "uv")
    if wave.profile.rep == "hydro":
        field = uv_to_hydro(field)
        field.c2 -= field.c2.mean()   # the stored gauge: zero-mean phase
    out = TravelingWave(c, field, spec, 0.0, wave.symmetry,
                        newton_iters=iters, projected_residual=rn)
    out.residual_norm = residual_norm(out)
    return out


def _conjugate(wave, c):
    """The wave of speed c = -wave.c: the complex conjugate of ``wave``
    (u2 -> -u2 in (u1, u2), theta -> -theta in density/phase)."""
    prof = wave.profile
    return TravelingWave(c, PairField(prof.grid, prof.c1.copy(), -prof.c2,
                                      prof.rep),
                         wave.spec, wave.residual_norm, wave.symmetry,
                         newton_iters=0,
                         projected_residual=wave.projected_residual)


def continue_branch(start, c_targets):
    """Continue a wave to each target speed by warm starts.

    Each target starts from the nearest wave solved so far, the start
    included; a target at the speed of such a wave is a copy of it with
    ``newton_iters=0``.  Complex conjugation maps a wave of speed c to
    one of speed -c, so from a real start (c = 0 and u2 = 0) a target
    whose negative speed is solved is the conjugate of that wave, also
    with ``newton_iters=0``: bit for bit the wave Newton returns along
    the mirrored path.  Steps in c never exceed _MAX_STEP; a failed
    Newton solve halves the step down to _MIN_STEP.  Returns one wave per
    target speed, in the order given.  Every wave keeps the storage of
    ``start``.
    """
    out = []
    solved = [start]
    real = start.c == 0.0 and not np.any(as_uv(start.profile).c2)
    if start.grid.dim == 2 and start.symmetry == "radial":
        # a moving wave keeps only the transverse mirror symmetry
        solved = [TravelingWave(start.c, start.profile, start.spec,
                                start.residual_norm, "even-in-transverse",
                                start.newton_iters, start.projected_residual)]
    for target in c_targets:
        current = min(solved, key=lambda wave: abs(target - wave.c))
        if abs(target - current.c) < 1e-15:
            out.append(TravelingWave(
                target, current.profile.copy(), current.spec,
                current.residual_norm, current.symmetry, newton_iters=0,
                projected_residual=current.projected_residual))
            continue
        mirror = min(solved, key=lambda wave: abs(target + wave.c))
        if real and abs(target + mirror.c) < 1e-15:
            current = _conjugate(mirror, target)    # nothing left to solve
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


def speed_derivative(branch, index):
    """Central-difference derivative of the (u1, u2) profile along the
    branch at ``branch[index]``, for waves stored in either representation.

    No registration is needed: Newton pins each wave's translation to
    the wave it was continued from (see _newton).
    """
    if len(branch) < 2:
        raise ValueError("need at least two branch points")
    lo = branch[max(index - 1, 0)]
    hi = branch[min(index + 1, len(branch) - 1)]
    dc = hi.c - lo.c
    if dc == 0.0:
        raise ValueError("branch speeds must be distinct")
    a, b = as_uv(lo.profile), as_uv(hi.profile)
    return PairField(a.grid, (b.c1 - a.c1) / dc, (b.c2 - a.c2) / dc, "uv")


def branch_momentum_sweep(branch, spec=None):
    """Momentum/energy samples along a branch with central-difference dP/dc,
    in the renormalization that ``momentum_kind_of`` gives the first wave."""
    if len(branch) < 3:
        raise ValueError("a sweep needs at least three branch points")
    spec = spec or branch[0].spec
    kind = momentum_kind_of(branch[0].profile, spec)
    samples = []
    for wave in branch:
        p = field_momentum(wave.profile, kind, spec)
        e = field_energy(wave.profile, spec)
        samples.append(BranchSample(
            wave.c, p, e, newton_iters=wave.newton_iters,
            residual=wave.residual_norm,
            projected_residual=wave.projected_residual))
    for i in range(1, len(samples) - 1):
        dc = samples[i + 1].c - samples[i - 1].c
        samples[i].dpdc = (samples[i + 1].momentum - samples[i - 1].momentum) / dc
    return samples
