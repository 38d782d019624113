"""Discretized linear operators of the stability machinery.

All operators act on stacked pair fields (component 1 first) with the
second-order stencils of nlstab.grid, whose module docstring defines the
boundary closures.  Operators use the ``zero`` closure (the perturbation
extends by zero, which keeps every symmetric kind exactly symmetric);
``ghost_jacobian`` reassembles a kind with the ``edge`` closure of the
traveling-wave residuals.  Derivatives of the base wave in the
coefficients of ``Mc`` take the ``edge`` closure in either case, like
every field derivative.  On periodic grids stencils wrap around.

Kinds
-----
``Lc``           second variation of the energy-momentum functional at a
    wave U = u1 + i*u2, blocks
    [-Lap - F - 2F'u1^2,  -c d1 - 2F'u1u2 ;  c d1 - 2F'u1u2,  -Lap - F - 2F'u2^2].
``LcInfty``      its constant-coefficient far-field form.
``Mc``           second variation in density/phase variables (rho, theta),
    blocks M11 = -div(grad/(2rho)) - |grad rho|^2/(2rho^3)
    + Lap(rho)/(2rho^2) - F'(rho), M22 = -2 div(rho grad),
    M21 = c d1 - 2 div(grad(theta) .), M12 = M21^T.
``McInfty``      far-field form with M11 replaced by -div(grad/(2rho)) + 1/rho.
``M0``           Mc of a stationary bubble (c = 0, theta = 0); block diagonal.
``A``            scalar linearization -Lap - F(phi^2) - 2F'(phi^2) phi^2 of the
    steady equation at a bubble amplitude phi.
``LcPlusK2``     Lc shifted by k^2 (transverse wave number k).
"""

import numpy as np
import scipy.io
import scipy.sparse as sp

from .grid import PairField, chi_multiplier_array, hydro_to_uv, inner

SYMMETRIC_KINDS = ("Lc", "LcInfty", "Mc", "McInfty", "M0", "A", "LcPlusK2")


# ---------------------------------------------------------------------------
# stencil matrices (closures: see nlstab.grid)

def ghost_jacobian(op):
    """Jacobian of the edge-replicated residual stencils.

    The same operator kind assembled with the ``edge`` closure (ghost
    cells copy the edge unknown instead of extending by zero); on
    periodic grids this equals op.matrix.
    """
    if op.spec is None:
        raise ValueError("ghost_jacobian needs an operator assembled with "
                         "its nonlinear law")
    return assemble(op.kind, base=op.base, c=op.c, grid=op.grid, spec=op.spec,
                    k=op.k, closure="edge").matrix


def ghost_symmetrized(op):
    """Copy of an operator with the symmetrized zero-flux boundary rows.

    The zero-extension convention is exact for decaying perturbations but
    pollutes quadratic forms evaluated on fields with nonvanishing far
    tails (the speed-derivative direction of a branch carries one in its
    phase).  The symmetrized ghost Jacobian removes that boundary
    contamination while keeping the operator symmetric.
    """
    g = ghost_jacobian(op)
    sym = (g + g.T) * 0.5
    return AssembledOperator(op.kind, sym.tocsr(), op.grid, c=op.c, k=op.k,
                             base=op.base, rep=op.rep, spec=op.spec)


def div_vector_matrix(grid, bvec, closure="zero"):
    """Matrix of u -> div(b u) with central differences."""
    total = None
    for axis in range(grid.dim):
        mat = grid.central(axis, closure) @ sp.diags(bvec[axis].ravel())
        total = mat if total is None else total + mat
    return total


def vector_grad_matrix(grid, bvec, closure="zero"):
    """Matrix of u -> b . grad u (with the zero closure, exactly the
    transpose of -div_vector_matrix)."""
    total = None
    for axis in range(grid.dim):
        mat = sp.diags(bvec[axis].ravel()) @ grid.central(axis, closure)
        total = mat if total is None else total + mat
    return total


# ---------------------------------------------------------------------------
# assembled operators

class AssembledOperator:
    """Sparse matrix of one operator kind together with its provenance."""

    def __init__(self, kind, matrix, grid, c=0.0, k=None, base=None,
                 rep=None, spec=None):
        self.kind = kind
        self.matrix = matrix.tocsr()
        self.grid = grid
        self.c = c
        self.k = k
        self.base = base
        self.rep = rep
        self.spec = spec
        self._kernel_residual = None

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def n_components(self):
        return 1 if self.kind == "A" else 2

    def symmetry_defect(self):
        d = self.matrix - self.matrix.T
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0

    def _base_components(self):
        """The base wave's fields in this operator's unknowns."""
        profile = _base_fields(self.base)
        if self.n_components == 1:
            amp = np.sqrt(profile.c1) if profile.rep == "hydro" else profile.c1
            return [amp]
        if self.rep == "hydro" and profile.rep != "hydro":
            raise ValueError("hydro operator with non-hydro base")
        if self.rep == "uv" and profile.rep == "hydro":
            uv = hydro_to_uv(profile)
            return [uv.c1, uv.c2]
        return [profile.c1, profile.c2]

    def translation_modes(self):
        """Translation modes d_xa of the base wave in this operator's
        unknowns, one per axis along which the base varies.

        A flat axis has the zero vector as its mode; it is left out.
        """
        if self.base is None:
            return []
        comps = self._base_components()
        modes = []
        for a in range(self.grid.dim):
            d = self.grid.central(a, "edge")
            vec = np.concatenate([d @ comp.ravel() for comp in comps])
            if np.any(vec):
                modes.append(vec)
        return modes

    def gauge_mode(self):
        """Phase-rotation direction of the base wave in this operator's
        unknowns: (0, 1) in hydro unknowns, i*U = (-u2, u1) in uv.  None
        for a scalar operator or without a base."""
        if self.base is None or self.n_components == 1:
            return None
        if self.rep == "hydro":
            return np.concatenate([np.zeros(self.grid.size),
                                   np.ones(self.grid.size)])
        u1, u2 = self._base_components()
        return np.concatenate([-u2.ravel(), u1.ravel()])

    def kernel_residual(self):
        """Residual of the analytic kernel identity on the discrete grid.

        max over translation axes of |op . (d_xa base)| / |d_xa base|,
        with the transverse-shift k^2 removed first; O(h^2) times stencil
        constants, and the natural scale for classifying kernel modes.
        None when the base has no translation mode (a flat base).
        """
        modes = self.translation_modes()
        if not modes:
            return None
        shift = (self.k or 0.0) ** 2 if self.kind == "LcPlusK2" else 0.0
        return max(float(np.linalg.norm(self.matrix @ vec - shift * vec)
                         / np.linalg.norm(vec)) for vec in modes)

    def zero_threshold(self, factor=5.0):
        """Kernel classification threshold.

        Anchored at the measured discrete residual of the analytic kernel
        identity (an O(h^2) quantity) when the attached base wave has a
        translation mode; otherwise falls back to 50 h^2 for
        unit-normalized far fields.
        """
        if self._kernel_residual is None and self.base is not None:
            self._kernel_residual = self.kernel_residual()
        if self._kernel_residual is not None:
            return max(factor * self._kernel_residual, 1e-11)
        h2 = max(h ** 2 for h in self.grid.h)
        return 50.0 * h2


def _base_fields(base):
    if isinstance(base, PairField):
        return base
    profile = getattr(base, "profile", None)
    if profile is not None:
        return profile
    raise TypeError("base must be a PairField or carry a .profile")


def _block(grid, a11, a12, a21, a22):
    return sp.bmat([[a11, a12], [a21, a22]], format="csr")


def assemble(kind, base=None, c=0.0, grid=None, spec=None, k=None,
             closure="zero"):
    """Assemble one operator kind at a base wave (or far field).

    ``closure`` selects the stencil closure at truncated edges (see
    nlstab.grid): ``zero`` for the operators themselves, ``edge`` for the
    Jacobians of the traveling-wave residuals.
    """
    if kind not in SYMMETRIC_KINDS:
        raise ValueError("unknown operator kind %r" % kind)
    if base is not None:
        field = _base_fields(base)
        grid = field.grid
    elif kind != "LcInfty":
        raise ValueError("operator kind %r needs a base wave" % kind)
    elif grid is None:
        raise ValueError("far-field kinds still need a grid")

    if kind in ("Lc", "LcPlusK2"):
        if field.rep == "hydro":
            field = hydro_to_uv(field)
        if field.rep != "uv":
            raise ValueError("Lc needs a uv (or hydro) base")
        u1, u2 = field.c1, field.c2
        mod2 = u1 ** 2 + u2 ** 2
        fval, fp = spec.f(mod2), spec.fprime(mod2)
        lap = grid.neg_laplacian(closure)
        d1 = grid.central(0, closure)
        pot11 = -fval - 2.0 * fp * u1 ** 2
        pot22 = -fval - 2.0 * fp * u2 ** 2
        cross = -2.0 * fp * u1 * u2
        mat = _block(grid,
                     lap + sp.diags(pot11.ravel()),
                     -c * d1 + sp.diags(cross.ravel()),
                     c * d1 + sp.diags(cross.ravel()),
                     lap + sp.diags(pot22.ravel()))
        if kind == "LcPlusK2":
            if k is None:
                raise ValueError("LcPlusK2 needs the transverse wave number k")
            mat = mat + float(k) ** 2 * sp.identity(2 * grid.size, format="csr")
        return AssembledOperator(kind, mat, grid, c=c, k=k, base=base,
                                 rep="uv", spec=spec)

    if kind == "LcInfty":
        if spec is None:
            raise ValueError("LcInfty needs the nonlinear law")
        lap = grid.neg_laplacian(closure)
        d1 = grid.central(0, closure)
        gap = -2.0 * spec.fprime(spec.r0) * spec.r0
        eye = sp.identity(grid.size, format="csr")
        mat = _block(grid, lap + gap * eye, -c * d1, c * d1, lap)
        return AssembledOperator(kind, mat, grid, c=c, rep="uv", spec=spec)

    if kind in ("Mc", "M0"):
        if field.rep != "hydro":
            raise ValueError("hydro kinds need a hydro base")
        rho, theta = field.c1, field.c2
        if rho.min() <= 1e-12:
            raise ValueError("vortex detected: min rho <= 0")
        if kind == "M0":
            if abs(c) > 0.0 or np.max(np.abs(theta)) > 1e-12:
                raise ValueError("M0 is the stationary operator (c=0, theta=0)")
        rho_flat = rho.ravel()
        grads_rho = [grid.central(a, "edge") @ rho_flat
                     for a in range(grid.dim)]
        grad_rho_sq = sum(g ** 2 for g in grads_rho)
        lap_rho = -(grid.neg_laplacian("edge") @ rho_flat)
        pot11 = (-grad_rho_sq / (2.0 * rho_flat ** 3)
                 + lap_rho / (2.0 * rho_flat ** 2) - spec.fprime(rho_flat))
        m11 = (grid.div_coeff_grad(1.0 / (2.0 * rho), closure)
               + sp.diags(pot11))
        m22 = 2.0 * grid.div_coeff_grad(rho, closure)
        d1 = grid.central(0, closure)
        grads_theta = [grid.central(a, "edge") @ theta.ravel()
                       for a in range(grid.dim)]
        m21 = c * d1 - 2.0 * div_vector_matrix(grid, grads_theta, closure)
        m12 = -c * d1 + 2.0 * vector_grad_matrix(grid, grads_theta,
                                              closure)
        mat = _block(grid, m11, m12, m21, m22)
        return AssembledOperator(kind, mat, grid, c=c, base=base, rep="hydro",
                                 spec=spec)

    if kind == "McInfty":
        if field.rep != "hydro":
            raise ValueError("McInfty needs a hydro base")
        rho = field.c1
        m11 = (grid.div_coeff_grad(1.0 / (2.0 * rho), closure)
               + sp.diags((1.0 / rho).ravel()))
        m22 = 2.0 * grid.div_coeff_grad(rho, closure)
        d1 = grid.central(0, closure)
        mat = _block(grid, m11, -c * d1, c * d1, m22)
        return AssembledOperator(kind, mat, grid, c=c, base=base, rep="hydro",
                                 spec=spec)

    if kind == "A":
        if field.rep == "hydro":
            phi = np.sqrt(field.c1)
        else:
            phi = field.c1
        mod2 = phi ** 2
        pot = -spec.f(mod2) - 2.0 * spec.fprime(mod2) * mod2
        mat = grid.neg_laplacian(closure) + sp.diags(pot.ravel())
        return AssembledOperator("A", mat, grid, base=base, rep="scalar",
                                 spec=spec)

    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# the symplectic matrix and small maps

def j_apply(f):
    """J (f1, f2) = (f2, -f1)."""
    return PairField(f.grid, f.c2.copy(), -f.c1, f.rep)


def j_inverse_apply(f):
    """J^{-1} (f1, f2) = (-f2, f1)."""
    return PairField(f.grid, -f.c2, f.c1.copy(), f.rep)


def j_matrix(grid):
    eye = sp.identity(grid.size, format="csr")
    return sp.bmat([[None, eye], [-eye, None]], format="csr")


def k_map(f, base):
    """Isomorphism (f1, f2) -> (f1 - chi(D)(v f2), f2) with v = Im(base)."""
    v = _base_fields(base).c2
    low = chi_multiplier_array(f.grid, v * f.c2)
    return PairField(f.grid, f.c1 - low, f.c2.copy(), f.rep)


def k_adjoint(f, base):
    """Adjoint map (f1, f2) -> (f1, f2 - v chi(D) f1)."""
    v = _base_fields(base).c2
    low = chi_multiplier_array(f.grid, f.c1)
    return PairField(f.grid, f.c1.copy(), f.c2 - v * low, f.rep)


def tc_map(f, base):
    """Pointwise change of variables from (d rho, d theta) to (d u1, d u2)."""
    hyd = _base_fields(base)
    if hyd.rep != "hydro":
        raise ValueError("tc_map needs a hydro base")
    rho, theta = hyd.c1, hyd.c2
    if rho.min() <= 0.0:
        raise ValueError("tc_map needs min rho > 0")
    amp = np.sqrt(rho)
    du1 = np.cos(theta) / (2.0 * amp) * f.c1 - amp * np.sin(theta) * f.c2
    du2 = np.sin(theta) / (2.0 * amp) * f.c1 + amp * np.cos(theta) * f.c2
    return PairField(f.grid, du1, du2, "uv")


def quadratic_form(op, f):
    """f^T (op f) with the grid quadrature weight."""
    if isinstance(f, PairField):
        vec = f.ravel()
    else:
        vec = f.data.ravel()
    return float(vec @ (op.matrix @ vec)) * op.grid.cell_volume


# ---------------------------------------------------------------------------
# far-field coercivity constants

def _crossing(c):
    """Optimal split point a* in (c/sqrt(2), 1) where 2 - c^2/a^2 = 1 - a^2."""
    from scipy.optimize import brentq
    if not 0.0 < c < np.sqrt(2.0):
        raise ValueError("speed must lie in (0, sqrt(2))")
    gap = lambda a: (2.0 - c ** 2 / a ** 2) - (1.0 - a ** 2)
    lo = c / np.sqrt(2.0) * (1.0 + 1e-14) + 1e-300
    return brentq(gap, lo, 1.0 - 1e-15, xtol=1e-14, rtol=8.9e-16)


def random_smooth_pair(grid, rng, rep="uv", cutoff=0.25, zero_mean2=False):
    """Band-limited random pair field (low-pass filtered white noise)."""
    comps = []
    for _ in range(2):
        noise = rng.standard_normal(grid.shape)
        if grid.dim == 1:
            xi = np.abs(np.fft.fftfreq(grid.n[0]))
        else:
            xi = np.sqrt(np.add.outer(np.fft.fftfreq(grid.n[0]) ** 2,
                                      np.fft.fftfreq(grid.n[1]) ** 2))
        mask = np.exp(-(xi / cutoff) ** 2)
        smooth = np.real(np.fft.ifftn(np.fft.fftn(noise) * mask))
        comps.append(smooth / max(np.abs(smooth).max(), 1e-30))
    if zero_mean2:
        comps[1] = comps[1] - comps[1].mean()
    return PairField(grid, comps[0], comps[1], rep)


def coercivity_constant(c, kind="LcInfty-form", grid=None, spec=None,
                        base=None, n_fields=100, rng=None):
    """Best uniform lower bound of the far-field quadratic form.

    Maximizes min(2 - c^2/a^2, 1 - a^2) over the split parameter a and
    verifies the resulting bound against random smooth fields.  Returns a
    dict with the optimizer, the constant, and the violation count
    (expected 0).
    """
    a_opt = _crossing(c)
    delta = 1.0 - a_opt ** 2
    out = {"a_opt": float(a_opt), "a_opt_sq": float(a_opt ** 2),
           "delta_star": float(delta), "kind": kind,
           "violations": None, "n_fields": 0}
    if grid is None:
        return out
    if kind == "LcInfty-form":
        op = assemble("LcInfty", grid=grid, c=c, spec=spec)
        bound = delta
    elif kind == "McInfty-form":
        op = assemble("McInfty", base=base, c=c, spec=spec)
        rho = _base_fields(base).c1
        bound = min(1.0 / (2.0 * rho.max()), delta / rho.max(),
                    (2.0 - c ** 2 / a_opt ** 2) * rho.min(), 2.0 * rho.min())
    else:
        raise ValueError("unknown coercivity kind %r" % kind)
    rng = rng or np.random.default_rng(0)
    violations = 0
    for _ in range(n_fields):
        f = random_smooth_pair(grid, rng)
        q = quadratic_form(op, f)
        if q < bound * inner(f, f, "H1xHdot1") * (1.0 - 1e-10):
            violations += 1
    out["bound"] = float(bound)
    out["violations"] = violations
    out["n_fields"] = n_fields
    return out


# ---------------------------------------------------------------------------
# smoothing preconditioner

def _neg_lap_symbol(grid):
    parts = []
    for a in range(grid.dim):
        xi = grid.wavenumbers(a)
        parts.append((2.0 / grid.h[a] * np.sin(0.5 * xi * grid.h[a])) ** 2)
    if grid.dim == 1:
        return parts[0]
    return np.add.outer(parts[0], parts[1])


def precondition(f):
    """Smoothing isomorphism: (-Lap+1)^(-1/2) on comp1, (-Lap)^(-1/2) on comp2.

    Realized through the discrete Fourier symbol of the assembled
    Laplacian; the zero mode of the second component is set to zero.
    """
    grid = f.grid
    if grid.boundary != "periodic":
        raise ValueError("preconditioning requires a periodic grid")
    sym = _neg_lap_symbol(grid)
    mult1 = 1.0 / np.sqrt(sym + 1.0)
    with np.errstate(divide="ignore"):
        mult2 = np.where(sym > 0.0, 1.0 / np.sqrt(np.maximum(sym, 1e-300)), 0.0)
    c1 = np.real(np.fft.ifftn(mult1 * np.fft.fftn(f.c1)))
    c2 = np.real(np.fft.ifftn(mult2 * np.fft.fftn(f.c2)))
    return PairField(grid, c1, c2, f.rep)


def export_matrix_market(op, path):
    scipy.io.mmwrite(path, op.matrix)
