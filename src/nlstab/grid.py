"""Uniform truncated grids, sampled fields and the sparse difference
stencils on them.

Grids cover [-L1, L1) x ... with N points per axis and spacing h = 2L/N,
so x = 0 is always a node.  Fields are perturbations of a constant far
field, cut off at the outermost nodes.

Stencil closures
----------------
Every second-order stencil of the package comes from one sparse
face-difference matrix D per axis and closure: (D u)_f is the value right
of face f minus the value left of it, so D has +1/-1 entries.  It is
built once along one axis, lifted to 2D with Kronecker products and
cached on the GridSpec.  With |D| the entrywise absolute value and
A = |D| with each row scaled to sum 1 (the face average),

    central derivative   d_a        = |D_a|^T D_a / (2 h_a),
    -div(a grad .)                  = sum_a D_a^T diag(A_a a) D_a / h_a^2.

The closure says what lies beyond the outermost nodes:

* ``zero`` -- the perturbation extends by zero; D has a face outside each
  edge, the outer face of -div(a grad) takes the edge node's a.  Used by
  ``Mc``, ``A``, the c d1 block of ``Lc`` and the nonlinear stepper's
  implicit part, which stay exactly symmetric (or skew).
* ``edge`` -- ghost cells replicate the edge value, so the outer faces
  carry no difference and no flux; D has interior faces only.  Matches the
  constant far field up to the exponential tail; used by the traveling-wave
  residuals and their exact Jacobians (Newton, ``ghost_jacobian``), the
  Neumann Laplacian of ``Lc`` and every derivative of a field: energy,
  momentum, the H1 norms and the base-wave coefficients of ``Mc``.

Pair-valued samples carry a representation tag: ``"uv"`` for real/imaginary
parts of a complex field, ``"hydro"`` for density/phase (rho, theta) with
rho > 0.
"""

import struct

import numpy as np
import scipy.sparse as sp

REPRESENTATIONS = ("uv", "hydro")
CLOSURES = ("zero", "edge")

_MAGIC = b"NLSF"
_TAGS = {"scalar": 0, "uv": 2, "hydro": 3}   # code 1 is refused, not reused
_TAGS_INV = {v: k for k, v in _TAGS.items()}
_HEADER = "<4sBBBBIIdd"                      # the 32 bytes both versions share


def _as_tuple(value, dim):
    if np.isscalar(value):
        return (value,) * dim
    value = tuple(value)
    if len(value) != dim:
        raise ValueError("expected %d per-axis values, got %r" % (dim, value))
    return value


def _face_difference_1d(n, closure):
    """Faces x nodes matrix of one axis: +1 right of each face, -1 left."""
    if closure == "zero":          # faces -1/2 .. n-1/2
        return sp.eye(n + 1, n) - sp.eye(n + 1, n, k=-1)
    return sp.eye(n - 1, n, k=1) - sp.eye(n - 1, n)   # edge: 1/2 .. n-3/2


class GridSpec:
    """Uniform grid on [-L, L)^dim with N (power of two) points per axis."""

    def __init__(self, dim, half_length, n):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        self.dim = dim
        self.half_length = tuple(float(L) for L in _as_tuple(half_length, dim))
        if not all(0.0 < L < np.inf for L in self.half_length):
            raise ValueError("half-lengths must be finite and positive, not %r"
                             % (self.half_length,))
        self.n = tuple(int(N) for N in _as_tuple(n, dim))
        for N in self.n:
            if N < 64 or (N & (N - 1)) != 0:
                raise ValueError("points per axis must be a power of two >= 64")
        self.h = tuple(2.0 * L / N for L, N in zip(self.half_length, self.n))
        self._stencils = {}

    @property
    def shape(self):
        return self.n

    @property
    def size(self):
        return int(np.prod(self.n))

    @property
    def cell_volume(self):
        return float(np.prod(self.h))

    def axis(self, a):
        """Coordinate samples along axis a (x = -L + j*h, includes 0)."""
        L, N, h = self.half_length[a], self.n[a], self.h[a]
        return -L + h * np.arange(N)

    def meshes(self):
        return np.meshgrid(*[self.axis(a) for a in range(self.dim)], indexing="ij")

    # -- sparse stencils (closures: see the module docstring) ----------------

    def _lift(self, axis, mat):
        """Act with a 1D matrix along one axis of the C-ordered flat field."""
        if self.dim == 1:
            return sp.csr_matrix(mat)
        eye = sp.identity(self.n[1 - axis])
        pair = (mat, eye) if axis == 0 else (eye, mat)
        return sp.kron(*pair, format="csr")

    def _cached(self, key, build):
        if key not in self._stencils:
            self._stencils[key] = build()
        return self._stencils[key]

    def faces(self, axis, closure):
        """Face-difference matrix D and face-average matrix A of one axis."""
        if closure not in CLOSURES:
            raise ValueError("unknown closure %r" % closure)

        def build():
            diff1 = _face_difference_1d(self.n[axis], closure)
            mag = abs(diff1)
            avg = sp.diags(1.0 / np.asarray(mag.sum(axis=1)).ravel()) @ mag
            return self._lift(axis, diff1), self._lift(axis, avg)
        return self._cached(("faces", axis, closure), build)

    def central(self, axis, closure):
        """Central first derivative d/dx_axis, |D|^T D / (2h)."""

        def build():
            d = self.faces(axis, closure)[0]
            return ((abs(d).T @ d) * (0.5 / self.h[axis])).tocsr()
        return self._cached(("central", axis, closure), build)

    def neg_laplacian(self, closure):
        """-Lap = sum_a D_a^T D_a / h_a^2."""

        def build():
            total = None
            for a in range(self.dim):
                d = self.faces(a, closure)[0]
                term = (d.T @ d) / self.h[a] ** 2
                total = term if total is None else total + term
            return total.tocsr()
        return self._cached(("neg_laplacian", closure), build)

    def div_coeff_grad(self, coeff, closure):
        """-div(a grad .) = sum_a D_a^T diag(A_a a) D_a / h_a^2."""
        coeff = np.ravel(coeff)
        total = None
        for a in range(self.dim):
            d, avg = self.faces(a, closure)
            term = (d.T @ sp.diags(avg @ coeff) @ d) / self.h[a] ** 2
            total = term if total is None else total + term
        return total.tocsr()

    def compatible(self, other):
        return (self.dim == other.dim and self.n == other.n
                and self.half_length == other.half_length)

    def __repr__(self):
        return "GridSpec(dim=%d, L=%s, N=%s)" % (
            self.dim, self.half_length, self.n)


class ScalarField:
    def __init__(self, grid, data):
        data = np.asarray(data, dtype=float)
        if data.shape != grid.shape:
            raise ValueError("data shape %s does not match grid %s" % (data.shape, grid.shape))
        self.grid = grid
        self.data = data

    def copy(self):
        return ScalarField(self.grid, self.data.copy())


class PairField:
    """Two real sample arrays plus a representation tag."""

    def __init__(self, grid, c1, c2, rep):
        if rep not in REPRESENTATIONS:
            raise ValueError("unknown representation %r" % rep)
        c1 = np.asarray(c1, dtype=float)
        c2 = np.asarray(c2, dtype=float)
        if c1.shape != grid.shape or c2.shape != grid.shape:
            raise ValueError("component shape does not match grid")
        if rep == "hydro" and c1.min() <= 0.0:
            raise ValueError("hydro representation requires rho > 0 everywhere")
        self.grid = grid
        self.c1 = c1
        self.c2 = c2
        self.rep = rep

    def copy(self):
        return PairField(self.grid, self.c1.copy(), self.c2.copy(), self.rep)

    def ravel(self):
        """Stacked flat vector (component 1 first)."""
        return np.concatenate([self.c1.ravel(), self.c2.ravel()])

    @classmethod
    def from_vector(cls, grid, vec, rep):
        n = grid.size
        c1 = np.asarray(vec[:n], dtype=float).reshape(grid.shape)
        c2 = np.asarray(vec[n:], dtype=float).reshape(grid.shape)
        return cls(grid, c1, c2, rep)

    def as_complex(self):
        if self.rep == "hydro":
            return np.sqrt(self.c1) * np.exp(1j * self.c2)
        return self.c1 + 1j * self.c2


def pair_from_complex(grid, u):
    return PairField(grid, np.real(u), np.imag(u), "uv")


def uv_to_hydro(field):
    """Madelung change of variables; requires |u| > 0 everywhere."""
    if field.rep != "uv":
        raise ValueError("expected a uv field")
    rho = field.c1 ** 2 + field.c2 ** 2
    if rho.min() <= 0.0:
        raise ValueError("field vanishes somewhere; no density/phase form")
    theta = np.arctan2(field.c2, field.c1)
    if field.grid.dim == 1:
        theta = np.unwrap(theta)
    else:
        # anchor the first row, then unwrap every column against it
        row0 = np.unwrap(theta[0, :])
        theta = np.unwrap(theta, axis=0)
        theta += row0[None, :] - theta[0:1, :]
    return PairField(field.grid, rho, theta, "hydro")


def hydro_to_uv(field):
    if field.rep != "hydro":
        raise ValueError("expected a hydro field")
    amp = np.sqrt(field.c1)
    return PairField(field.grid, amp * np.cos(field.c2), amp * np.sin(field.c2), "uv")


def as_uv(field):
    """The (u1, u2) form of a field stored in either representation."""
    return hydro_to_uv(field) if field.rep == "hydro" else field


def translation_mode(profile, axis=0):
    """Discrete derivative of a profile along one axis (edge closure)."""
    grid = profile.grid
    d = grid.central(axis, "edge")
    # perturbation-like pair: carries no representation constraints
    return PairField(grid, (d @ profile.c1.ravel()).reshape(grid.shape),
                     (d @ profile.c2.ravel()).reshape(grid.shape), "uv")


# ---------------------------------------------------------------------------
# inner products and norms

def _dot(a, b, vol):
    return float(np.sum(a * b) * vol)


def inner(f, g, kind="L2"):
    """Inner product of two pair fields.

    Kinds: ``L2`` both components in L2; ``H1xHdot1`` adds first-component
    gradients to its L2 part and keeps only gradients for the second
    component.
    """
    if not f.grid.compatible(g.grid):
        raise ValueError("fields live on different grids")
    vol = f.grid.cell_volume
    if kind == "L2":
        return _dot(f.c1, g.c1, vol) + _dot(f.c2, g.c2, vol)
    if kind == "H1xHdot1":
        total = _dot(f.c1, g.c1, vol)
        for a in range(f.grid.dim):
            d = f.grid.central(a, "edge")
            total += _dot(d @ f.c1.ravel(), d @ g.c1.ravel(), vol)
            total += _dot(d @ f.c2.ravel(), d @ g.c2.ravel(), vol)
        return total
    raise ValueError("unknown inner-product kind %r" % kind)


def norm(f, kind="L2"):
    return float(np.sqrt(max(inner(f, f, kind), 0.0)))


def scalar_norm(field, order=0, homogeneous=False):
    """Discrete Sobolev norm of a scalar field up to the given order."""
    vol = field.grid.cell_volume
    total = 0.0 if homogeneous else _dot(field.data, field.data, vol)
    if order >= 1:
        grid = field.grid
        grads = [grid.central(a, "edge") @ field.data.ravel()
                 for a in range(grid.dim)]
        for gra in grads:
            total += _dot(gra, gra, vol)
        if order >= 2:
            for gra in grads:
                for a in range(grid.dim):
                    d2 = grid.central(a, "edge") @ gra
                    total += _dot(d2, d2, vol)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# serialization

def save_binary(field, path):
    """Compact dump: 40-byte header (magic, version 2, dim, tag, component
    count, N, L, boundary code 0 for a truncated grid) + float64 data."""
    grid = field.grid
    if isinstance(field, ScalarField):
        tag, ncomp, arrays = "scalar", 1, [field.data]
    else:
        tag, ncomp, arrays = field.rep, 2, [field.c1, field.c2]
    n1 = grid.n[0]
    n2 = grid.n[1] if grid.dim == 2 else 0
    l1 = grid.half_length[0]
    l2 = grid.half_length[1] if grid.dim == 2 else 0.0
    header = struct.pack(_HEADER + "B7x", _MAGIC, 2, grid.dim, _TAGS[tag],
                         ncomp, n1, n2, l1, l2, 0)
    assert len(header) == 40
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_binary(path):
    """Read a dump of save_binary; a malformed file raises ValueError.

    A version-1 dump (32-byte header without the boundary code) loads
    like a version-2 one; a boundary code other than 0 (truncated) is
    refused.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 32:
        raise ValueError("not a field dump: header is %d bytes, not 32"
                         % len(blob))
    magic, ver, dim, tag_code, ncomp, n1, n2, l1, l2 = struct.unpack_from(
        _HEADER, blob)
    if magic != _MAGIC:
        raise ValueError("not a field dump: bad magic")
    if ver not in (1, 2):
        raise ValueError("unsupported field dump version %d" % ver)
    size = 32 if ver == 1 else 40
    if len(blob) < size:
        raise ValueError("not a field dump: version %d header is %d bytes, "
                         "not %d" % (ver, len(blob), size))
    code = blob[32] if ver == 2 else 0
    if code != 0:
        raise ValueError("boundary code %d: only dumps of truncated grids "
                         "(code 0) load" % code)
    payload = blob[size:]
    if tag_code not in _TAGS_INV:
        raise ValueError("unknown field tag code %d" % tag_code)
    tag = _TAGS_INV[tag_code]
    if ncomp != (1 if tag == "scalar" else 2):
        raise ValueError("%d components do not match tag %r" % (ncomp, tag))
    grid = GridSpec(dim, (l1, l2)[:dim], (n1, n2)[:dim])
    count = grid.size * ncomp
    if len(payload) != count * 8:
        raise ValueError("field dump payload is %d bytes, expected %d"
                         % (len(payload), count * 8))
    data = np.frombuffer(payload, dtype="<f8")
    if ncomp == 1:
        return ScalarField(grid, data.reshape(grid.shape))
    c1 = data[: grid.size].reshape(grid.shape)
    c2 = data[grid.size:].reshape(grid.shape)
    return PairField(grid, c1, c2, tag)
