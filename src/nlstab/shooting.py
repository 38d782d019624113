"""Radial shooting for ground states of -Lap(u) = g(u) in N dimensions.

The initial value problem u'' + (N-1)/r u' + g(u) = 0, u(0) = alpha,
u'(0) = 0 is integrated together with its derivative with respect to the
shooting parameter, phi = du/dalpha, which solves the linearized equation
phi'' + (N-1)/r phi' + g'(u) phi = 0, phi(0) = 1, phi'(0) = 0.  Bisection
on alpha between "crossing" trajectories (u hits zero while decreasing)
and "undershoot" trajectories (u turns around while still positive)
locates the ground-state amplitude alpha0.  The trajectory is integrated
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

import json

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

UNDERSHOOT = "undershoot"
CROSSING = "crossing"
GROUND = "ground"


class ShootResult:
    """Converged shooting run: samples of u, u', phi, phi' plus diagnostics."""

    def __init__(self, alpha0, r, u, uprime, phi, phiprime, ndim,
                 bracket_history=None, tail_start=None, tol=1e-12):
        self.alpha0 = alpha0
        self.r = r
        self.u = u
        self.uprime = uprime
        self.phi = phi
        self.phiprime = phiprime
        self.ndim = ndim
        self.bracket_history = bracket_history or []
        self.tail_start = tail_start
        self.tol = tol
        self.zero_count = None
        self.zeros = None
        self.phi_limit = None
        self.kappa = None

    def amplitude_at(self, r):
        """Piecewise evaluation: spline on the integrated core, analytic
        exponential tail beyond the graft radius (no spline ringing at
        the derivative joint)."""
        r = np.asarray(r, dtype=float)
        ts = self.tail_start if self.tail_start is not None else self.r[-1]
        core_mask = self.r <= ts + 1e-12
        spline = CubicSpline(self.r[core_mask], self.u[core_mask])
        out = np.empty_like(r)
        below = r <= ts
        out[below] = spline(np.clip(r[below], self.r[0], ts))
        u_end = float(spline(ts))
        geom = (ts / np.maximum(r[~below], ts)) ** ((self.ndim - 1) / 2.0)
        out[~below] = u_end * np.exp(-self.kappa * (r[~below] - ts)) * geom
        return out

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("r,u,uprime,phi\n")
            for row in zip(self.r, self.u, self.uprime, self.phi):
                fh.write(",".join("%.17g" % v for v in row) + "\n")


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


def _rhs(constants, ndim):
    def rhs(r, y):
        u, up, phi, phip = y
        friction = (ndim - 1) / r
        return [up,
                -friction * up - constants.g(u),
                phip,
                -friction * phip - constants.gprime(u) * phi]
    return rhs


def integrate(alpha, constants, ndim, r_max=60.0, tol=1e-12, events=True,
              tail_eps=None):
    """Integrate (u, u', phi, phi') out to r_max (or a terminal event).

    Returns (classification, solution) where classification is one of
    ``crossing``, ``undershoot`` or ``ground`` (no event fired).  With
    ``events=False`` the trajectory runs to r_max unconditionally.
    """
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

    sol = solve_ivp(_rhs(constants, ndim), (r_start, r_max), y0,
                    method="DOP853", rtol=tol, atol=tol * 1e-2,
                    events=evs, dense_output=True, max_step=0.25)
    if not sol.success:
        raise RuntimeError("radial integration failed: %s" % sol.message)
    if events and sol.t_events[0].size:
        return CROSSING, sol
    if events and sol.t_events[1].size:
        return UNDERSHOOT, sol
    return GROUND, sol


def integrate_samples(alpha, constants, ndim, r_max=60.0, tol=1e-12,
                      n_samples=2001, events=True):
    """Convenience sampling of one trajectory: (label, r, u, u', phi, phi')."""
    label, sol = integrate(alpha, constants, ndim, r_max, tol, events=events)
    rs = np.linspace(sol.t[0], sol.t[-1], n_samples)
    ys = sol.sol(rs)
    return label, rs, ys[0], ys[1], ys[2], ys[3]


def classify(alpha, constants, ndim, r_max=60.0, tol=1e-12):
    label, _ = integrate(alpha, constants, ndim, r_max, tol)
    if label == GROUND:
        # ran to r_max without crossing or turning: treat by tail sign
        return UNDERSHOOT
    return label


def find_alpha0(constants, ndim, bracket=None, r_max=60.0, tol=1e-12,
                xtol=1e-12):
    """Bisect the shooting amplitude between undershoot and crossing.

    The default bracket is (u1, sqrt(rho0)); the ground-state amplitude
    lies inside it.  Returns a ShootResult sampled on the bisection
    midpoint with the exponential tail grafted past the last reliable
    radius.
    """
    k = constants
    if bracket is None:
        # the upper endpoint keeps a distance from the rest amplitude:
        # trajectories started within ~exp(-sqrt(-g'(0)) r_max) of it hug
        # the equilibrium past r_max and cannot be classified
        bracket = (k.u1 + 1e-9, k.amp * (1.0 - 1e-7))
    lo, hi = bracket
    lab_lo = classify(lo, k, ndim, r_max, tol)
    lab_hi = classify(hi, k, ndim, r_max, tol)
    if lab_lo == lab_hi:
        raise ValueError("bracket endpoints classify identically (%s)" % lab_lo)
    history = [(lo, lab_lo), (hi, lab_hi)]
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        lab = classify(mid, k, ndim, r_max, tol)
        history.append((mid, lab))
        if lab == lab_lo:
            lo = mid
        else:
            hi = mid
    alpha0 = 0.5 * (lo + hi)
    return _sample_ground(alpha0, k, ndim, r_max, tol, history)


def _sample_ground(alpha0, constants, ndim, r_max, tol, history):
    """Integrate at alpha0, then graft the linear tail beyond u ~ tail size."""
    k = constants
    kappa = np.sqrt(-k.gprime(0.0))
    label, sol = integrate(alpha0, k, ndim, r_max, tol)
    # last radius at which the trajectory is still trustworthy
    if label == GROUND:
        r_graft = sol.t[-1]
    else:
        r_graft = (sol.t_events[0][0] if label == CROSSING
                   else sol.t_events[1][0])
    # back off to where u is safely above the bisection noise floor
    u_floor = max(1e-8 * k.amp, 1e3 * (tol + 1e-15))
    rs = np.linspace(sol.t[0], min(r_graft, sol.t[-1]), 4001)
    ys = sol.sol(rs)
    above = ys[0] > u_floor
    idx = np.nonzero(above)[0]
    cut = idx[-1] if idx.size else len(rs) - 1
    r_in, y_in = rs[: cut + 1], ys[:, : cut + 1]

    r_tail = np.linspace(r_in[-1], r_max, 2001)[1:]
    u_end, up_end = y_in[0, -1], y_in[1, -1]
    # modified-Bessel-type decay e^{-kappa r} r^{-(N-1)/2}
    decay = np.exp(-kappa * (r_tail - r_in[-1]))
    geom = (r_in[-1] / r_tail) ** ((ndim - 1) / 2.0)
    u_tail = u_end * decay * geom
    up_tail = -kappa * u_tail

    # continue the linearized equation for phi across the tail region
    def tail_rhs(r, y):
        u_here = u_end * np.exp(-kappa * (r - r_in[-1])) * \
            (r_in[-1] / r) ** ((ndim - 1) / 2.0)
        return [y[1], -(ndim - 1) / r * y[1] - k.gprime(u_here) * y[0]]

    phi_sol = solve_ivp(tail_rhs, (r_in[-1], r_max), [y_in[2, -1], y_in[3, -1]],
                        method="DOP853", rtol=tol * 10, atol=tol,
                        t_eval=r_tail, max_step=1.0)
    r_all = np.concatenate([r_in, r_tail])
    u_all = np.concatenate([y_in[0], u_tail])
    up_all = np.concatenate([y_in[1], up_tail])
    phi_all = np.concatenate([y_in[2], phi_sol.y[0]])
    phip_all = np.concatenate([y_in[3], phi_sol.y[1]])
    res = ShootResult(alpha0, r_all, u_all, up_all, phi_all, phip_all, ndim,
                      bracket_history=history, tail_start=r_in[-1], tol=tol)
    res.kappa = float(kappa)
    return res


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
                     and abs(result.phi_limit) >= 100.0 * result.tol)
    regime = ("proven" if k.c_ratio <= 21.0 / 100.0 else "outside proven regime")
    return {
        "zero_count": result.zero_count,
        "z1": z1,
        "r0_cross": r0_cross,
        "z1_before_r0": z1_before_r0,
        "theta_increasing": theta_increasing,
        "phi_limit": result.phi_limit,
        "verdict": "non-degenerate" if nondegenerate else "degenerate",
        "regime": regime,
    }


def verdict_json(diag):
    return json.dumps(diag, sort_keys=True, default=float)
