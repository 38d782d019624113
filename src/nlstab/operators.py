"""Discretized linear operators of the stability machinery.

All operators act on stacked pair fields (component 1 first) with the
second-order stencils of nlstab.grid, whose module docstring defines the
boundary closures.  Operators use the ``zero`` closure (the perturbation
extends by zero, which keeps every symmetric kind exactly symmetric);
``ghost_jacobian`` reassembles a kind with the ``edge`` closure of the
traveling-wave residuals.  Derivatives of the base wave in the
coefficients of ``Mc`` take the ``edge`` closure in either case, like
every field derivative.

Kinds
-----
``Lc``           second variation of the energy-momentum functional at a
    wave U = u1 + i*u2, blocks
    [-Lap - F - 2F'u1^2,  -c d1 - 2F'u1u2 ;  c d1 - 2F'u1u2,  -Lap - F - 2F'u2^2].
    A transverse wave number k adds k^2 I; at the constant background
    (sqrt(r0), 0), Lc is the far-field form of the coercivity estimate.
``Mc``           second variation in density/phase variables (rho, theta),
    blocks M11 = -div(grad/(2rho)) - |grad rho|^2/(2rho^3)
    + Lap(rho)/(2rho^2) - F'(rho), M22 = -2 div(rho grad),
    M21 = c d1 - 2 div(grad(theta) .), M12 = M21^T.
``A``            scalar linearization -Lap - F(phi^2) - 2F'(phi^2) phi^2 of the
    steady equation at a bubble amplitude phi.
"""

import numpy as np
import scipy.sparse as sp

from .grid import PairField, as_uv, inner

SYMMETRIC_KINDS = ("Lc", "Mc", "A")
_KERNEL_FACTOR = 5.0   # kernel threshold over the translation residual
_N_FIELDS = 100        # random fields of the coercivity check


# ---------------------------------------------------------------------------
# stencil matrices (closures: see nlstab.grid)

def ghost_jacobian(op):
    """Jacobian of the edge-replicated residual stencils.

    The same operator kind assembled with the ``edge`` closure (ghost
    cells copy the edge unknown instead of extending by zero).
    """
    if op.spec is None:
        raise ValueError("ghost_jacobian needs an operator assembled with "
                         "its nonlinear law")
    return assemble(op.kind, base=op.base, c=op.c, spec=op.spec, k=op.k,
                    closure="edge").matrix


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
                             base=op.base, spec=op.spec)


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
                 spec=None):
        self.kind = kind
        self.matrix = matrix.tocsr()
        self.grid = grid
        self.c = c
        self.k = k
        self.base = base
        self.spec = spec
        self._kernel_residual = None

    @property
    def rep(self):
        return {"Lc": "uv", "Mc": "hydro", "A": "scalar"}[self.kind]

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def n_components(self):
        return 1 if self.kind == "A" else 2

    def with_wave_number(self, k):
        """This k-free ``Lc`` plus k^2 I: Lc at transverse wave number k."""
        eye = sp.identity(self.shape[0], format="csr")
        return AssembledOperator(self.kind, self.matrix + float(k) ** 2 * eye,
                                 self.grid, c=self.c, k=k, base=self.base,
                                 spec=self.spec)

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
        if self.rep == "uv":
            profile = as_uv(profile)
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
        shift = (self.k or 0.0) ** 2
        return max(float(np.linalg.norm(self.matrix @ vec - shift * vec)
                         / np.linalg.norm(vec)) for vec in modes)

    def zero_threshold(self):
        """Kernel classification threshold.

        ``_KERNEL_FACTOR`` times the measured discrete residual of the
        analytic kernel identity (an O(h^2) quantity) when the attached
        base wave has a translation mode; otherwise falls back to 50 h^2
        for unit-normalized far fields.
        """
        if self._kernel_residual is None and self.base is not None:
            self._kernel_residual = self.kernel_residual()
        if self._kernel_residual is not None:
            return max(_KERNEL_FACTOR * self._kernel_residual, 1e-11)
        h2 = max(h ** 2 for h in self.grid.h)
        return 50.0 * h2


def _base_fields(base):
    if isinstance(base, PairField):
        return base
    profile = getattr(base, "profile", None)
    if profile is not None:
        return profile
    raise TypeError("base must be a PairField or carry a .profile")


def _block(a11, a12, a21, a22):
    return sp.bmat([[a11, a12], [a21, a22]], format="csr")


def assemble(kind, base, c=0.0, spec=None, k=None, closure="zero"):
    """Assemble one operator kind at a base wave (``Lc`` alone takes k).

    ``closure`` selects the stencil closure at truncated edges (see
    nlstab.grid): ``zero`` for the operators themselves, ``edge`` for the
    Jacobians of the traveling-wave residuals.
    """
    if kind not in SYMMETRIC_KINDS:
        raise ValueError("unknown operator kind %r" % kind)
    if k is not None and kind != "Lc":
        raise ValueError("operator kind %r takes no wave number k" % kind)
    field = _base_fields(base)
    grid = field.grid

    if kind == "Lc":
        field = as_uv(field)
        u1, u2 = field.c1, field.c2
        mod2 = u1 ** 2 + u2 ** 2
        fval, fp = spec.f(mod2), spec.fprime(mod2)
        lap = grid.neg_laplacian(closure)
        d1 = grid.central(0, closure)
        pot11 = -fval - 2.0 * fp * u1 ** 2
        pot22 = -fval - 2.0 * fp * u2 ** 2
        cross = -2.0 * fp * u1 * u2
        mat = _block(lap + sp.diags(pot11.ravel()),
                     -c * d1 + sp.diags(cross.ravel()),
                     c * d1 + sp.diags(cross.ravel()),
                     lap + sp.diags(pot22.ravel()))
        op = AssembledOperator(kind, mat, grid, c=c, base=base, spec=spec)
        return op if k is None else op.with_wave_number(k)

    if kind == "Mc":
        if field.rep != "hydro":
            raise ValueError("hydro kinds need a hydro base")
        rho, theta = field.c1, field.c2
        if rho.min() <= 1e-12:
            raise ValueError("vortex detected: min rho <= 0")
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
        mat = _block(m11, m12, m21, m22)
        return AssembledOperator(kind, mat, grid, c=c, base=base, spec=spec)

    if kind == "A":
        if field.rep == "hydro":
            phi = np.sqrt(field.c1)
        else:
            phi = field.c1
        mod2 = phi ** 2
        pot = -spec.f(mod2) - 2.0 * spec.fprime(mod2) * mod2
        mat = grid.neg_laplacian(closure) + sp.diags(pot.ravel())
        return AssembledOperator("A", mat, grid, base=base, spec=spec)

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
    """Optimal split point a* in (c/sqrt(2), 1) where 2 - c^2/a^2 = 1 - a^2.

    The crossing solves a^4 + a^2 - c^2 = 0, so
    a*^2 = 2 c^2 / (1 + sqrt(1 + 4 c^2)), which unlike
    (sqrt(1 + 4 c^2) - 1) / 2 has no cancellation at small c, and
    a* = c sqrt(2 / (1 + sqrt(1 + 4 c^2))) does not underflow where c^2
    does.
    """
    if not 0.0 < c < np.sqrt(2.0):
        raise ValueError("speed must lie in (0, sqrt(2))")
    return c * np.sqrt(2.0 / (1.0 + np.sqrt(1.0 + 4.0 * c * c)))


def random_smooth_pair(grid, rng, cutoff=0.25):
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
    return PairField(grid, comps[0], comps[1], "uv")


def coercivity_constant(c, grid=None, spec=None, rng=None):
    """Best uniform lower bound of the far-field quadratic form.

    Maximizes min(2 - c^2/a^2, 1 - a^2) over the split parameter a and,
    given a grid and the law, verifies the resulting bound on the form of
    Lc at the background (sqrt(r0), 0) against _N_FIELDS random smooth
    fields.  Returns a dict with the optimizer, the constant, and the
    violation count (expected 0).
    """
    a_opt = _crossing(c)
    delta = 1.0 - a_opt ** 2
    out = {"a_opt": float(a_opt), "a_opt_sq": float(a_opt ** 2),
           "delta_star": float(delta), "violations": None, "n_fields": 0}
    if grid is None:
        return out
    if spec is None:
        raise ValueError("the coercivity check needs the nonlinear law")
    background = PairField(grid, np.full(grid.shape, np.sqrt(spec.r0)),
                           np.zeros(grid.shape), "uv")
    op = assemble("Lc", background, c=c, spec=spec)
    rng = rng or np.random.default_rng(0)
    violations = 0
    for _ in range(_N_FIELDS):
        f = random_smooth_pair(grid, rng)
        q = quadratic_form(op, f)
        if q < delta * inner(f, f, "H1xHdot1") * (1.0 - 1e-10):
            violations += 1
    out["violations"] = violations
    out["n_fields"] = _N_FIELDS
    return out
