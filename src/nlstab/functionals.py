"""Energy and momentum functionals in field and hydro variables.

The energy is E(u) = (1/2) int |grad u|^2 + V(|u|^2) with V(r0) = 0, so E
is finite on truncated domains without boundary counterterms.  Momentum
comes in three renormalizations:

* ``classical`` --  -int (u1 - 1) d_x1 u2,  for fields tending to 1;
* ``renormalized1D`` --  -int Im(conj(u) u') (1 - 1/|u|^2) dx,  finite on
  nonvanishing 1D profiles with phase mismatch at the two ends;
* ``hydro`` --  -(1/2) int (rho - r0) d_x1 theta,  for density/phase pairs
  (a (u1, u2) field is taken to its density/phase form first).
"""

import numpy as np

from .grid import hydro_to_uv, uv_to_hydro

MOMENTUM_KINDS = ("classical", "renormalized1D", "hydro")


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
    raise ValueError("unknown representation %r" % field.rep)


def momentum(field, kind, spec=None):
    """Momentum of a pair field in the requested renormalization, one of
    MOMENTUM_KINDS."""
    if kind not in MOMENTUM_KINDS:
        raise ValueError("unknown momentum kind %r" % kind)
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
    # hydro
    if field.rep == "uv":
        field = uv_to_hydro(field)
    r0 = 1.0 if spec is None else spec.r0
    dtheta = _dx(grid, field.c2)
    return -0.5 * _quad(grid, (field.c1.ravel() - r0) * dtheta)


def momentum_kind_of(field, spec):
    """The one rule for the momentum renormalization of a wave: a field in
    (u1, u2) on a 1D grid with unit background takes ``renormalized1D``,
    any other field ``hydro``."""
    unit_1d = field.grid.dim == 1 and abs(spec.r0 - 1.0) < 1e-12
    return "renormalized1D" if field.rep == "uv" and unit_1d else "hydro"


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
