"""Stencil matrices of nlstab.grid against slicing oracles, and the exact
Jacobian-residual consistency they give by construction.

The oracles are the explicit slicing stencils the matrices replaced:
padded differences (zero, edge-replicated or wrapped ghost cells), the
zero-exterior-flux divergence, and the per-line assembly of -div(a grad).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from nlstab.grid import GridSpec, PairField
from nlstab.operators import assemble, ghost_jacobian
from nlstab.profiles import tw_residual_uv

# float64 rounding of a handful of terms of size max|entry|
MATRIX_RTOL = 1e-13

PAD = {"zero": "constant", "edge": "edge", "periodic": "wrap"}


# ---------------------------------------------------------------------------
# reference oracles

def _shifted(arr, axis, closure):
    """(value at node + 1, value at node - 1) along one axis."""
    dim = arr.ndim
    p = np.pad(arr, 1, mode=PAD[closure])
    hi = [slice(1, -1)] * dim
    lo = [slice(1, -1)] * dim
    hi[axis] = slice(2, None)
    lo[axis] = slice(0, -2)
    return p[tuple(hi)], p[tuple(lo)]


def _d1(arr, axis, h, closure):
    hi, lo = _shifted(arr, axis, closure)
    return (hi - lo) / (2.0 * h)


def _d2(arr, axis, h, closure):
    hi, lo = _shifted(arr, axis, closure)
    return (hi - 2.0 * arr + lo) / h ** 2


def _div_flux(rho, theta, axis, h):
    """Zero-exterior-flux divergence of rho * grad(theta) along one axis."""
    r_hi, r_lo = _shifted(rho, axis, "edge")
    t_hi, t_lo = _shifted(theta, axis, "edge")
    face_hi = 0.5 * (r_hi + rho) * (t_hi - theta) / h
    face_lo = 0.5 * (rho + r_lo) * (theta - t_lo) / h
    return (face_hi - face_lo) / h


def _div_coeff_grad_lines(grid, coeff):
    """-div(a grad .) assembled line by line (zero or periodic closure)."""
    periodic = grid.boundary == "periodic"
    shape = grid.shape
    rows, cols, vals = [], [], []
    for axis in range(grid.dim):
        h = grid.h[axis]
        n = grid.n[axis]
        for line in np.ndindex(*[m for a, m in enumerate(shape) if a != axis]):
            def flat(i):
                idx = list(line)
                idx.insert(axis, i)
                return int(np.ravel_multi_index(idx, shape))
            a = np.array([coeff[np.unravel_index(flat(i), shape)]
                          for i in range(n)])
            face = 0.5 * (a[:-1] + a[1:])
            diag = np.empty(n)
            diag[1:-1] = face[:-1] + face[1:]
            if periodic:
                wrap = 0.5 * (a[-1] + a[0])
                diag[0] = face[0] + wrap
                diag[-1] = face[-1] + wrap
                rows += [flat(0), flat(n - 1)]
                cols += [flat(n - 1), flat(0)]
                vals += [-wrap / h ** 2, -wrap / h ** 2]
            else:
                diag[0] = face[0] + a[0]
                diag[-1] = face[-1] + a[-1]
            for i in range(n):
                rows.append(flat(i))
                cols.append(flat(i))
                vals.append(diag[i] / h ** 2)
            for i in range(n - 1):
                rows += [flat(i), flat(i + 1)]
                cols += [flat(i + 1), flat(i)]
                vals += [-face[i] / h ** 2, -face[i] / h ** 2]
    return sp.csr_matrix((vals, (rows, cols)), shape=(grid.size, grid.size))


# ---------------------------------------------------------------------------
# fixtures

GRIDS = [
    GridSpec(1, 10.0, 64),
    GridSpec(2, 10.0, 64),
    GridSpec(1, 10.0, 64, "periodic"),
    GridSpec(2, 10.0, 64, "periodic"),
]


def _grid_id(grid):
    return "%dD-%s" % (grid.dim, grid.boundary)


def _smooth(grid, seed):
    """Smooth field with nonzero values and slopes at every edge."""
    rng = np.random.default_rng(seed)
    out = np.full(grid.shape, 1.0 + rng.uniform())
    for mesh in grid.meshes():
        k, phase = rng.uniform(0.2, 0.6), rng.uniform(0.0, 2.0 * np.pi)
        out = out + 0.3 * np.sin(k * mesh + phase)
    return out


def _closures(grid):
    if grid.boundary == "periodic":
        return [("zero", "periodic"), ("edge", "periodic")]
    return [("zero", "zero"), ("edge", "edge")]


# ---------------------------------------------------------------------------
# matrices against the oracles

@pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
def test_central_and_laplacian_match_slicing(grid):
    f = _smooth(grid, 1)
    for closure, ghost in _closures(grid):
        for axis in range(grid.dim):
            mat = grid.central(axis, closure)
            ref = _d1(f, axis, grid.h[axis], ghost)
            scale = MATRIX_RTOL * abs(mat).max() * np.abs(f).max()
            assert np.abs(mat @ f.ravel() - ref.ravel()).max() <= scale
        mat = grid.neg_laplacian(closure)
        ref = sum(_d2(f, a, grid.h[a], ghost) for a in range(grid.dim))
        scale = MATRIX_RTOL * abs(mat).max() * np.abs(f).max()
        assert np.abs(mat @ f.ravel() + ref.ravel()).max() <= scale


@pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
def test_operator_matrices_match_line_assembly(grid):
    coeff = _smooth(grid, 2)
    for mat, ref in ((grid.div_coeff_grad(coeff, "zero"),
                      _div_coeff_grad_lines(grid, coeff)),
                     (grid.neg_laplacian("zero"),
                      _div_coeff_grad_lines(grid, np.ones(grid.shape)))):
        assert abs(mat - ref).max() <= MATRIX_RTOL * abs(ref).max()
    f = _smooth(grid, 3)
    closure = "periodic" if grid.boundary == "periodic" else "zero"
    for axis in range(grid.dim):
        mat = grid.central(axis, "zero")
        ref = _d1(f, axis, grid.h[axis], closure)
        scale = MATRIX_RTOL * abs(mat).max() * np.abs(f).max()
        assert np.abs(mat @ f.ravel() - ref.ravel()).max() <= scale


@pytest.mark.parametrize("grid", GRIDS[:2], ids=_grid_id)
def test_edge_divergence_matches_div_flux(grid):
    rho, theta = _smooth(grid, 4), _smooth(grid, 5)
    mat = grid.div_coeff_grad(rho, "edge")
    ref = sum(_div_flux(rho, theta, a, grid.h[a]) for a in range(grid.dim))
    scale = MATRIX_RTOL * abs(mat).max() * np.abs(theta).max()
    assert np.abs(mat @ theta.ravel() + ref.ravel()).max() <= scale


def test_stencils_are_cached_per_grid():
    g = GridSpec(2, 10.0, 64)
    assert g.central(1, "edge") is g.central(1, "edge")
    assert g.faces(0, "zero") is g.faces(0, "zero")
    periodic = GridSpec(1, 10.0, 64, "periodic")
    assert periodic.central(0, "zero") is periodic.central(0, "edge")
    with pytest.raises(ValueError):
        g.central(0, "reflect")


# ---------------------------------------------------------------------------
# Jacobians against central differences of their residuals

FD_STEP = 1e-6
FD_RTOL = 1e-6


def _fd_check(jac, residual, state, seed):
    """max |J v - (R(x + e v) - R(x - e v)) / 2e| over max |J v|."""
    v = np.random.default_rng(seed).standard_normal(state.size)
    fd = (residual(state + FD_STEP * v) - residual(state - FD_STEP * v))
    fd /= 2.0 * FD_STEP
    jv = jac @ v
    return np.abs(jv - fd).max() / np.abs(jv).max()


@pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
def test_ghost_jacobian_matches_tw_residual(grid, gp_spec):
    c = 0.4
    theta = 0.5 * _smooth(grid, 8)
    amp = 0.5 + 0.2 * _smooth(grid, 9)
    field = PairField(grid, amp * np.cos(theta), amp * np.sin(theta), "uv")
    n = grid.size

    def residual(state):
        pair = PairField(grid, state[:n].reshape(grid.shape),
                         state[n:].reshape(grid.shape), "uv")
        return tw_residual_uv(pair, c, gp_spec).ravel()

    jac = -ghost_jacobian(assemble("Lc", base=field, c=c, spec=gp_spec))
    assert _fd_check(jac, residual, field.ravel(), 10) <= FD_RTOL
