"""Radial shooting for ground states of -Lap(u) = g(u) in N dimensions.

The initial value problem u'' + (N-1)/r u' + g(u) = 0, u(0) = alpha,
u'(0) = 0 is integrated together with its derivative with respect to the
shooting parameter, phi = du/dalpha, which solves the linearized equation
phi'' + (N-1)/r phi' + g'(u) phi = 0, phi(0) = 1, phi'(0) = 0.  Bisection
on alpha between "crossing" trajectories (u hits zero while decreasing)
and "undershoot" trajectories (u turns around while still positive)
locates the ground-state amplitude alpha0; the bisection classifies on
(u, u') alone, since neither event reads phi.  The trajectory is integrated
only until the amplitude drops below a small multiple of the expected
exponential tail; past that point the tail is grafted analytically with
decay rate sqrt(-g'(0)), which avoids chasing machine-zero tails whose
bisection error grows exponentially.

Diagnostics on phi decide the non-degeneracy of the ground state: phi
keeps a single sign change and its large-r limit stays away from zero.
The ordering of the first zero z1 of phi against the radius r0 where u
passes the interior zero u0 of g is reported as well.  The non-degeneracy
argument derives z1 < r0 from the supposition that phi decays; computed
ground states (N = 1, 2, 3) have a non-decaying phi and z1 > r0.
"""

from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

UNDERSHOOT = "undershoot"
CROSSING = "crossing"
GROUND = "ground"
_R_MAX = 60.0   # outer radius of a bisection run
_TOL = 1e-12    # relative tolerance of every radial integration


class ShootResult:
    """Converged shooting run: samples of u, u', phi plus diagnostics.

    u and u' are the integrated core followed by the grafted tail; phi
    is solved across the tail on its first read (the bubble seed reads
    only u, through ``amplitude_at``).
    """

    def __init__(self, alpha0, r, u, uprime, dense, ndim, constants,
                 bracket_history, tail_start, kappa):
        self.alpha0 = alpha0
        self.r = r
        self.u = u
        self.uprime = uprime
        self._dense = dense       # of the core's run: (u, u', phi, phi')(r)
        self.ndim = ndim
        self._constants = constants
        self.bracket_history = bracket_history
        self.tail_start = tail_start
        self.kappa = kappa
        self.zero_count = None
        self.zeros = None
        self.phi_limit = None

    @cached_property
    def phi(self):
        """phi on r: the core samples, then the linearized equation
        continued from the last one across the tail, about the grafted u."""
        n = np.count_nonzero(self.r <= self.tail_start)
        phi_in, phip_in = self._dense(self.r[:n])[2:]
        r_in, u_end = self.r[n - 1], self.u[n - 1]
        kappa, ndim, k = self.kappa, self.ndim, self._constants

        def tail_rhs(r, y):
            u_here = u_end * np.exp(-kappa * (r - r_in)) * \
                (r_in / r) ** ((ndim - 1) / 2.0)
            return [y[1], -(ndim - 1) / r * y[1] - k.gprime(u_here) * y[0]]

        sol = solve_ivp(tail_rhs, (r_in, self.r[-1]),
                        [phi_in[-1], phip_in[-1]], method="DOP853",
                        rtol=_TOL * 10, atol=_TOL, t_eval=self.r[n:],
                        max_step=1.0)
        return np.concatenate([phi_in, sol.y[0]])

    def amplitude_at(self, r):
        """u at the radii r: the integration's own dense output up to
        tail_start (radii below the series start read u there), the
        grafted tail u_end e^{-kappa (r - ts)} (ts / r)^{(N-1)/2} beyond."""
        r = np.asarray(r, dtype=float)
        ts = self.tail_start
        out = np.empty_like(r)
        core = r <= ts
        if core.any():      # the dense output takes no empty radii
            out[core] = self._dense(np.maximum(r[core], self.r[0]))[0]
        u_end = self.u[np.count_nonzero(self.r <= ts) - 1]
        geom = (ts / r[~core]) ** ((self.ndim - 1) / 2.0)
        out[~core] = u_end * np.exp(-self.kappa * (r[~core] - ts)) * geom
        return out


def _series_start(constants, alpha, ndim, r_start):
    """Taylor start at r_start resolving the coordinate singularity at r=0."""
    g0 = float(constants.g(alpha))
    gp0 = float(constants.gprime(alpha))
    gpp0 = float(constants.gsecond(alpha))
    a2 = -g0 / (2.0 * ndim)
    a4 = -gp0 * a2 / (8.0 + 4.0 * ndim)
    b2 = -gp0 / (2.0 * ndim)
    b4 = -(gpp0 * a2 + gp0 * b2) / (8.0 + 4.0 * ndim)
    r = r_start
    u = alpha + a2 * r ** 2 + a4 * r ** 4
    up = 2.0 * a2 * r + 4.0 * a4 * r ** 3
    phi = 1.0 + b2 * r ** 2 + b4 * r ** 4
    phip = 2.0 * b2 * r + 4.0 * b4 * r ** 3
    return np.array([u, up, phi, phip])


def _rhs(constants, ndim, variational):
    def rhs(r, y):
        y = y.tolist()      # floats: g is evaluated at float cost
        friction = (ndim - 1) / r
        du = [y[1], -friction * y[1] - constants.g(y[0])]
        if not variational:
            return du
        return du + [y[3], -friction * y[3] - constants.gprime(y[0]) * y[2]]
    return rhs


def _shoot(alpha, constants, ndim, r_max, events, variational):
    """Integrate (u, u') from the series start, with (phi, phi') when
    ``variational``; returns (classification, solution)."""
    if not (0.0 < alpha < constants.amp):
        raise ValueError("shooting amplitude must lie in (0, sqrt(rho0))")
    if ndim < 1:
        raise ValueError("dimension must be >= 1")
    r_start = 1e-3
    y0 = _series_start(constants, alpha, ndim, r_start)

    cross = lambda r, y: y[0]
    cross.terminal = True
    cross.direction = -1.0
    turn = lambda r, y: y[1]
    turn.terminal = True
    turn.direction = 1.0
    evs = [cross, turn] if events else None

    # the step cap keeps the dense output of the variational run finely
    # resolved for the sampling; the events of a label need no cap
    sol = solve_ivp(_rhs(constants, ndim, variational), (r_start, r_max),
                    y0 if variational else y0[:2],
                    method="DOP853", rtol=_TOL, atol=_TOL * 1e-2,
                    events=evs, dense_output=variational,
                    max_step=0.25 if variational else np.inf)
    if not sol.success:
        raise RuntimeError("radial integration failed: %s" % sol.message)
    if events and sol.t_events[0].size:
        return CROSSING, sol
    if events and sol.t_events[1].size:
        return UNDERSHOOT, sol
    return GROUND, sol


def integrate(alpha, constants, ndim, r_max=_R_MAX, events=True):
    """Integrate (u, u', phi, phi') out to r_max (or a terminal event).

    Returns (classification, solution) where classification is one of
    ``crossing``, ``undershoot`` or ``ground`` (no event fired).  With
    ``events=False`` the trajectory runs to r_max unconditionally.
    """
    return _shoot(alpha, constants, ndim, r_max, events, True)


def integrate_samples(alpha, constants, ndim, r_max=_R_MAX, n_samples=2001,
                      events=True):
    """Convenience sampling of one trajectory: (label, r, u, u', phi, phi')."""
    label, sol = integrate(alpha, constants, ndim, r_max, events=events)
    rs = np.linspace(sol.t[0], sol.t[-1], n_samples)
    ys = sol.sol(rs)
    return label, rs, ys[0], ys[1], ys[2], ys[3]


def classify(alpha, constants, ndim):
    """Label of the trajectory from alpha.

    The events read u and u' only, so phi is not integrated, and the
    steps take no cap: the cap serves the dense output of ``integrate``,
    which a label does not read.  The labels of the bisections for
    N = 1, 2, 3 are those of the capped run (a ``ground`` run read as an
    undershoot, as here).
    """
    label, _ = _shoot(alpha, constants, ndim, _R_MAX, True, False)
    if label == GROUND:
        # ran to _R_MAX without crossing or turning: treat by tail sign
        return UNDERSHOOT
    return label


def find_alpha0(constants, ndim, bracket=None, xtol=1e-12):
    """Bisect the shooting amplitude between undershoot and crossing.

    The default bracket is (u1, sqrt(rho0)), and (u0, sqrt(rho0)) in 1D.
    For N >= 2, when u1 already classifies like sqrt(rho0), the ground
    state lies below u1 and the bracket is (u0, u1).
    Bisection stops once the bracket is no wider than ``xtol`` (which
    must be positive) or its ends are adjacent floats.
    Returns a ShootResult sampled on the bisection midpoint with the
    exponential tail grafted past the last reliable radius.
    """
    if not xtol > 0.0:
        raise ValueError("xtol must be positive, not %r" % xtol)
    k = constants
    default = bracket is None
    if default:
        # the upper endpoint keeps a distance from the rest amplitude:
        # trajectories started within ~exp(-sqrt(-g'(0)) _R_MAX) of it hug
        # the equilibrium past _R_MAX and cannot be classified.  In 1D the
        # label is the sign of G(alpha) (first integral), whose zero lies
        # below u1 for ratios above c0
        bracket = ((k.u0 if ndim == 1 else k.u1) + 1e-9,
                   k.amp * (1.0 - 1e-7))
    lo, hi = bracket
    lab_lo = classify(lo, k, ndim)
    lab_hi = classify(hi, k, ndim)
    if default and ndim >= 2 and lab_lo == lab_hi:
        # near c0 the N >= 2 ground state lies below u1, e.g. for the law
        # (0.24, 1, 1) in 2D
        lo, hi = k.u0 + 1e-9, lo
        lab_lo = classify(lo, k, ndim)
    if lab_lo == lab_hi:
        raise ValueError("bracket endpoints classify identically (%s)" % lab_lo)
    history = [(lo, lab_lo), (hi, lab_hi)]
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break   # xtol is below the float spacing at alpha0
        lab = classify(mid, k, ndim)
        history.append((mid, lab))
        if lab == lab_lo:
            lo = mid
        else:
            hi = mid
    alpha0 = 0.5 * (lo + hi)
    return _sample_ground(alpha0, k, ndim, history)


def _sample_ground(alpha0, constants, ndim, history):
    """Integrate at alpha0, then graft the linear tail beyond u ~ tail size."""
    k = constants
    kappa = np.sqrt(-k.gprime(0.0))
    label, sol = integrate(alpha0, k, ndim)
    # last radius at which the trajectory is still trustworthy
    if label == GROUND:
        r_graft = sol.t[-1]
    else:
        r_graft = (sol.t_events[0][0] if label == CROSSING
                   else sol.t_events[1][0])
    # back off to where u is safely above the bisection noise floor
    u_floor = max(1e-8 * k.amp, 1e3 * (_TOL + 1e-15))
    rs = np.linspace(sol.t[0], min(r_graft, sol.t[-1]), 4001)
    ys = sol.sol(rs)
    above = ys[0] > u_floor
    idx = np.nonzero(above)[0]
    cut = idx[-1] if idx.size else len(rs) - 1
    r_in, y_in = rs[: cut + 1], ys[:, : cut + 1]

    r_tail = np.linspace(r_in[-1], _R_MAX, 2001)[1:]
    u_end = y_in[0, -1]
    # modified-Bessel-type decay e^{-kappa r} r^{-(N-1)/2}
    decay = np.exp(-kappa * (r_tail - r_in[-1]))
    geom = (r_in[-1] / r_tail) ** ((ndim - 1) / 2.0)
    u_tail = u_end * decay * geom
    up_tail = -kappa * u_tail
    return ShootResult(alpha0, np.concatenate([r_in, r_tail]),
                       np.concatenate([y_in[0], u_tail]),
                       np.concatenate([y_in[1], up_tail]), sol.sol, ndim, k,
                       history, r_in[-1], float(kappa))


def _sample_root(spline, r, values, i):
    """Zero of the interpolant between samples i and i + 1, whose signs differ.

    The spline reproduces a sample only up to rounding (a knot next to a
    sample many orders larger can change sign), so the bracket ends take
    the samples themselves: bracketing and root finding see one function.
    """
    a, b = r[i], r[i + 1]

    def f(x):
        return values[i] if x == a else values[i + 1] if x == b else spline(x)
    return brentq(f, a, b, xtol=1e-12)


def phi_diagnostics(result, constants):
    """Non-degeneracy verdict from the variational solution phi.

    Counts the sign changes of phi, locates the first zero z1 and the
    radius r0 where u passes the interior zero u0 of g, reports whether
    z1 < r0 (``z1_before_r0``, a diagnostic that takes no part in the
    verdict), checks that theta(r) = -r u'(r)/u(r) increases on (0, r0)
    when N = 2, and requires the terminal phi value to stay away from zero.
    """
    from scipy.interpolate import CubicSpline
    k = constants
    r, u, phi = result.r, result.u, result.phi
    sign = np.sign(phi)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    phi_sp = CubicSpline(r, phi)
    zeros = [_sample_root(phi_sp, r, phi, i) for i in flips]
    result.zero_count = len(zeros)
    result.zeros = zeros
    result.phi_limit = float(phi[-1])

    # radius where the amplitude passes u0
    r0_cross = None
    below = np.nonzero(u < k.u0)[0]
    if below.size:
        i = below[0]
        if i > 0:
            du = u - k.u0
            r0_cross = _sample_root(CubicSpline(r, du), r, du, i - 1)

    z1 = zeros[0] if zeros else None
    z1_before_r0 = bool(z1 is not None and r0_cross is not None and z1 < r0_cross)

    theta_increasing = None
    if result.ndim == 2 and r0_cross is not None:
        mask = (r > 1e-3) & (r < r0_cross)
        theta = -r[mask] * result.uprime[mask] / u[mask]
        dtheta = np.diff(theta)
        theta_increasing = bool(np.all(dtheta > -1e-10 * max(1.0, np.abs(theta).max())))

    nondegenerate = (result.zero_count == 1
                     and abs(result.phi_limit) >= 100.0 * _TOL)
    return {
        "zero_count": result.zero_count,
        "z1": z1,
        "r0_cross": r0_cross,
        "z1_before_r0": z1_before_r0,
        "theta_increasing": theta_increasing,
        "phi_limit": result.phi_limit,
        "verdict": "non-degenerate" if nondegenerate else "degenerate",
        "regime": k.regime,
    }
