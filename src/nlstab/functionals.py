"""Energy and momentum functionals in field, coordinate and hydro variables.

The energy is E(u) = (1/2) int |grad u|^2 + V(|u|^2) with V(r0) = 0, so E
is finite on truncated domains without boundary counterterms.  Momentum
comes in four renormalizations:

* ``classical`` --  -int (u1 - 1) d_x1 u2,  for fields tending to 1;
* ``renormalized1D`` --  -int Im(conj(u) u') (1 - 1/|u|^2) dx,  finite on
  nonvanishing 1D profiles with phase mismatch at the two ends;
* ``hydro`` --  -(1/2) int (rho - r0) d_x1 theta,  for density/phase pairs;
* ``extended`` --  -int [w1 + (1 - chi(D))(w2^2/2)] d_x1 w2,  defined on
  coordinate fields w of the map psi below (periodic grids).

The coordinate map psi(w) = 1 + w1 - chi(D)(w2^2/2) + i w2 parametrizes
finite-energy fields near the unit background by pairs in H1 x H1dot.
"""

import numpy as np

from .grid import PairField, chi_multiplier, hydro_to_uv


def _quad(grid, values):
    return float(np.sum(values) * grid.cell_volume)


def _dx(grid, comp, axis=0):
    """Central derivative of one component, flat (edge closure)."""
    return grid.central(axis, "edge") @ comp.ravel()


def energy(field, spec):
    """Total energy of a pair field under the given nonlinear law."""
    grid = field.grid
    if field.rep == "uv":
        dens = np.zeros(grid.size)
        for comp in (field.c1, field.c2):
            for a in range(grid.dim):
                dens += _dx(grid, comp, a) ** 2
        dens += spec.v(field.c1 ** 2 + field.c2 ** 2).ravel()
        return 0.5 * _quad(grid, dens)
    if field.rep == "hydro":
        # the change of variables sqrt(rho) e^{i theta} is pointwise exact,
        # so both representations integrate the identical discrete density
        if field.c1.min() <= 0.0:
            raise ValueError("hydro energy needs rho > 0")
        return energy(hydro_to_uv(field), spec)
    if field.rep == "w":
        return energy(psi_map(field), spec)
    raise ValueError("unknown representation %r" % field.rep)


def momentum(field, kind="classical", spec=None):
    """Momentum of a pair field in the requested renormalization."""
    grid = field.grid
    if kind == "classical":
        if field.rep != "uv":
            raise ValueError("classical momentum needs a uv field")
        return -_quad(grid, (field.c1.ravel() - 1.0) * _dx(grid, field.c2))
    if kind == "renormalized1D":
        if grid.dim != 1 or field.rep != "uv":
            raise ValueError("renormalized momentum is 1D, uv only")
        mod2 = field.c1 ** 2 + field.c2 ** 2
        # 1 - 1/|u|^2 magnifies the roundoff of a near zero beyond any use
        if mod2.min() < np.sqrt(np.finfo(float).eps) * mod2.max():
            raise ValueError("renormalized momentum needs |u| > 0")
        im_part = (field.c1 * _dx(grid, field.c2)
                   - field.c2 * _dx(grid, field.c1))
        return -_quad(grid, im_part * (1.0 - 1.0 / mod2))
    if kind == "hydro":
        if field.rep != "hydro":
            raise ValueError("hydro momentum needs a hydro field")
        r0 = 1.0 if spec is None else spec.r0
        dtheta = _dx(grid, field.c2)
        return -0.5 * _quad(grid, (field.c1.ravel() - r0) * dtheta)
    if kind == "extended":
        if field.rep != "w" or grid.boundary != "periodic":
            raise ValueError("extended momentum needs w coordinates, periodic")
        w1, w2 = field.c1, field.c2
        half_sq = 0.5 * w2 ** 2
        high = half_sq - chi_multiplier(grid, half_sq)
        return -_quad(grid, (w1 + high).ravel() * _dx(grid, w2))
    raise ValueError("unknown momentum kind %r" % kind)


def psi_map(w):
    """Coordinate map w -> 1 + w1 - chi(D)(w2^2/2) + i*w2 (as a uv pair)."""
    if w.rep != "w":
        raise ValueError("psi_map expects w coordinates")
    low = chi_multiplier(w.grid, 0.5 * w.c2 ** 2)
    return PairField(w.grid, 1.0 + w.c1 - low, w.c2.copy(), "uv")


def psi_inverse(u):
    """Exact algebraic inverse of psi_map."""
    if u.rep != "uv":
        raise ValueError("psi_inverse expects a uv field")
    w2 = u.c2
    low = chi_multiplier(u.grid, 0.5 * w2 ** 2)
    return PairField(u.grid, u.c1 - 1.0 + low, w2.copy(), "w")


def pohozaev(w, c, spec):
    """Constraint functional int |d_x1 psi(w)|^2 + 2c*P~(psi(w)) + int V."""
    grid = w.grid
    u = psi_map(w)
    kinetic = _quad(grid, _dx(grid, u.c1) ** 2 + _dx(grid, u.c2) ** 2)
    potential = _quad(grid, spec.v(u.c1 ** 2 + u.c2 ** 2))
    return kinetic + 2.0 * c * momentum(w, "extended") + potential


def d1_distance(u, v):
    """Energy-space distance with phases fixed to 1.

    d1 = ||grad(u - v)||_L2 + || |u-1|^2 + 2 Re(u-1) - |v-1|^2 - 2 Re(v-1) ||_L2.
    """
    if u.rep != "uv" or v.rep != "uv":
        raise ValueError("d1 distance is defined on uv fields")
    if not u.grid.compatible(v.grid):
        raise ValueError("fields live on different grids")
    grid = u.grid
    grad_sq = np.zeros(grid.size)
    for a in range(grid.dim):
        grad_sq += (_dx(grid, u.c1 - v.c1, a) ** 2
                    + _dx(grid, u.c2 - v.c2, a) ** 2)
    mod_u = (u.c1 - 1.0) ** 2 + u.c2 ** 2 + 2.0 * (u.c1 - 1.0)
    mod_v = (v.c1 - 1.0) ** 2 + v.c2 ** 2 + 2.0 * (v.c1 - 1.0)
    term1 = np.sqrt(_quad(grid, grad_sq))
    term2 = np.sqrt(_quad(grid, (mod_u - mod_v) ** 2))
    return float(term1 + term2)
