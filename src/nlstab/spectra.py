"""Eigenvalue diagnostics for the assembled operators.

Symmetric spectra give the negative index and kernel dimension; products
with the symplectic matrix J give growth rates of the linearized flow.
Both come from sparse shift-invert eigensolves (Lanczos and Arnoldi);
the dense Hamiltonian eigensolve survives only as a test oracle.
Truncating an unbounded domain turns essential spectrum into extended
"box" modes, so eigenvector mass near the boundary is used to separate
genuine localized modes from truncation artifacts before counting: any
mode carrying more than 20% of its mass within the outer 10% of the
domain (per side) is flagged spurious and logged, not counted.

Down the file, `dichotomy_basis` assembles the ingredients of the
invariant splitting E^u + E^s + E^e + (generalized kernel) used to bound
the linearized flow: the +/- growth eigenmodes, the translation and
speed-derivative directions, and the projector coefficients derived from
the conserved cross form <op u, v>.
"""

import json

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .grid import PairField, translation_mode
from .operators import (assemble, ghost_symmetrized, j_inverse_apply, j_matrix,
                        quadratic_form, random_smooth_pair)
from .profiles import speed_derivative


class SpectralReport:
    """Sorted eigenvalues with localization-aware counts."""

    def __init__(self, kind, eigenvalues, n_negative, kernel_dim,
                 kernel_vectors, zero_threshold, spurious=0,
                 max_real=None, pairing_defect=None, unstable_rate=None):
        self.kind = kind
        self.eigenvalues = eigenvalues
        self.n_negative = n_negative
        self.kernel_dim = kernel_dim
        self.kernel_vectors = kernel_vectors
        self.zero_threshold = zero_threshold
        self.spurious = spurious
        self.max_real = max_real
        self.pairing_defect = pairing_defect
        self.unstable_rate = unstable_rate

    def to_json(self):
        ev = self.eigenvalues
        data = {
            "kind": self.kind,
            "n_negative": self.n_negative,
            "kernel_dim": self.kernel_dim,
            "zero_threshold": self.zero_threshold,
            "spurious_modes": self.spurious,
            "max_real": self.max_real,
            "pairing_defect": self.pairing_defect,
            "unstable_rate": self.unstable_rate,
        }
        if np.iscomplexobj(ev):
            data["eigenvalues_re"] = [float(v) for v in np.real(ev)]
            data["eigenvalues_im"] = [float(v) for v in np.imag(ev)]
        else:
            data["eigenvalues"] = [float(v) for v in ev]
        return json.dumps(data, sort_keys=True)


def boundary_mass_fraction(grid, vec, n_components=2):
    """Fraction of the squared mass within the outer 10% of each axis."""
    comps = np.asarray(vec).reshape(n_components, *grid.shape)
    mask = np.zeros(grid.shape, dtype=bool)
    for a in range(grid.dim):
        edge = max(1, grid.n[a] // 10)
        sl = [slice(None)] * grid.dim
        sl[a] = slice(0, edge)
        mask[tuple(sl)] = True
        sl[a] = slice(-edge, None)
        mask[tuple(sl)] = True
    total = float(np.sum(np.abs(comps) ** 2))
    if total == 0.0:
        return 1.0
    near = float(np.sum(np.abs(comps[:, mask]) ** 2))
    return near / total


def participation_fraction(vec):
    """Inverse participation ratio normalized by the vector length.

    Localized modes score near zero, plane-wave-like modes near 2/3,
    constants near one.
    """
    p = np.abs(vec) ** 2
    p = p / p.sum()
    return float(1.0 / np.sum(p ** 2) / p.size)


def _orthonormal(vectors):
    """Orthonormal columns spanning ``vectors``, or None for none."""
    if not vectors:
        return None
    return np.linalg.qr(np.stack(vectors, axis=1))[0]


def _outside(basis, vec):
    """Norm of ``vec`` outside the span of the orthonormal columns
    ``basis``, relative to its own norm; 1 without a basis."""
    if basis is None:
        return 1.0
    rest = vec - basis @ (basis.T @ vec)
    return float(np.linalg.norm(rest) / np.linalg.norm(vec))


_KEEP_VECTORS = 8     # kernel vectors kept in a SpectralReport


def _start_vector(n):
    """The fixed ARPACK start vector, so that repeated runs agree bitwise."""
    return np.random.default_rng(0).standard_normal(n)


def _symmetric_lu(mat, shift):
    """LU of mat - shift*I with a symmetric ordering and diagonal pivots.

    Without off-diagonal pivots the factorization is P A P^T = L D L^T up
    to the scaling of U, so diag(U) carries the inertia of the shifted
    matrix (Sylvester's law).
    """
    shifted = (mat - shift * sp.identity(mat.shape[0], format="csr")).tocsc()
    lu = spl.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("symmetric LU pivoted off the diagonal; "
                           "the inertia count is not valid")
    return lu


def count_below(op, shift):
    """Number of eigenvalues of a symmetric operator below ``shift``."""
    return int(np.sum(_symmetric_lu(op.matrix, shift).U.diagonal() < 0.0))


def _lowest_pairs(mat, count):
    """The ``count`` lowest eigenpairs of a sparse symmetric matrix, sorted.

    Shift-invert Lanczos from a shift below the Gershgorin bound, where
    mat - shift*I is positive definite.  ARPACK cannot return n - 1 or
    more pairs, and from about n/8 pairs on its Lanczos basis costs more
    than a dense solve (7.5 s against 8.7 s for 512 pairs at n = 4096),
    so such counts get one dense subset solve.
    """
    n = mat.shape[0]
    if 8 * count >= n:
        return scipy.linalg.eigh(mat.toarray(), subset_by_index=(0, count - 1))
    diag = mat.diagonal()
    radius = np.asarray(abs(mat).sum(axis=1)).ravel() - np.abs(diag)
    floor = float(np.min(diag - radius))
    shift = floor - 1e-2 * max(1.0, abs(floor))
    lu = _symmetric_lu(mat, shift)
    inverse = spl.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    w, v = spl.eigsh(mat, k=count, sigma=shift, which="LM", OPinv=inverse,
                     v0=_start_vector(n), tol=0.0)
    order = np.argsort(w)
    return w[order], v[:, order]


def sym_spectrum(op):
    """Symmetric eigensolve with kernel/negative-index classification.

    The number of eigenvalues below the kernel threshold ``thr`` comes
    from an inertia count; exactly those eigenpairs (at least two) are
    computed, and the report's counts and eigenvalues cover them.

    Truncating the domain turns essential spectrum into artifact modes
    that can pollute the near-zero counts: boundary-concentrated modes
    (over 20% of their mass in the outer 10% of the domain per side) and
    interior box approximants of the continuum edge (large participation
    fraction).  A near-zero mode is counted as kernel if it projects onto
    the discrete translation modes of the base wave or is genuinely
    localized; artifact modes are excluded and reported in ``spurious``.
    """
    thr = op.zero_threshold()
    screen = 10.0 * max(thr, 0.05)
    below = count_below(op, thr)
    w, v = _lowest_pairs(op.matrix, max(below, 2))
    found = int(np.sum(w < thr))
    if found != below:
        raise RuntimeError("eigensolve found %d eigenvalues below %.3g where "
                           "the inertia count gives %d" % (found, thr, below))
    window = np.abs(w) <= screen
    w_sub, v_sub = w[window], v[:, window]
    ncomp = op.n_components
    basis = _orthonormal(op.translation_modes())
    drop = []            # eigenvalues excluded as truncation artifacts
    kernel_vals, kernel_vecs = [], []
    extra_negative = 0   # localized non-translation modes inside the window
    gated = op.grid.boundary == "truncated" and op.kind != "A"
    if op.grid.boundary == "truncated":
        for i, lam in enumerate(w_sub):
            vec = v_sub[:, i]
            near_boundary = gated and (
                boundary_mass_fraction(op.grid, vec, ncomp) > 0.20)
            extended = near_boundary or (
                gated and participation_fraction(vec) > 0.15)
            if abs(lam) <= thr:
                translationish = (basis is not None
                                  and _outside(basis, vec) <= 0.5)
                if translationish or (basis is None and not extended):
                    kernel_vals.append(lam)
                    kernel_vecs.append(vec.copy())
                elif extended:
                    drop.append(lam)
                elif lam < 0.0:
                    # genuine localized eigenvalue, merely blurred into
                    # the window by the coarse-grid kernel residual
                    extra_negative += 1
            elif near_boundary:
                drop.append(lam)
    else:
        for i, lam in enumerate(w_sub):
            if abs(lam) <= thr:
                kernel_vals.append(lam)
                kernel_vecs.append(v_sub[:, i].copy())
    keep = np.ones(w.size, dtype=bool)
    for lam in drop:
        idx = int(np.argmin(np.abs(w - lam)))
        keep[idx] = False
    w_loc = w[keep]
    n_neg = int(np.sum(w_loc < -thr)) + extra_negative
    return SpectralReport(op.kind, w_loc, n_neg, len(kernel_vals),
                          kernel_vecs[:_KEEP_VECTORS], thr, spurious=len(drop))


def nondegeneracy_check(base, c, spec=None, kind=None):
    """Verdict on ker(op) = span{translation modes of the base wave}.

    The kernel dimension is compared against the number of translation
    symmetries and every kernel vector is projected onto the discrete
    translation modes; the verdict is non-degenerate iff the residual
    projections stay below 1e-3 relative.
    """
    spec = spec or base.spec
    profile = base.profile
    grid = profile.grid
    if kind is None:
        kind = "Mc" if profile.rep == "hydro" else "Lc"
    op = assemble(kind, base=base, c=c, spec=spec)
    report = sym_spectrum(op)
    basis = _orthonormal(op.translation_modes())
    worst = 0.0
    for vec in report.kernel_vectors:
        worst = max(worst, _outside(basis, vec))
    ok = (report.kernel_dim == grid.dim
          and (not report.kernel_vectors or worst <= 1e-3))
    return {
        "verdict": "non-degenerate" if ok else "degenerate/invalid base",
        "kernel_dim": report.kernel_dim,
        "expected": grid.dim,
        "worst_projection_residual": worst,
        "n_negative": report.n_negative,
        "zero_threshold": report.zero_threshold,
        "report": report,
    }


def _realify(vec):
    re, im = np.real(vec), np.imag(vec)
    return re if np.linalg.norm(re) >= np.linalg.norm(im) else im


def _oriented(vec):
    """``vec`` at unit norm, signed so that its entry of largest magnitude
    is positive: eigensolvers fix eigenvector signs arbitrarily."""
    vec = vec / np.linalg.norm(vec)
    return vec if vec[np.argmax(np.abs(vec))] > 0.0 else -vec


def _kernel_span(op):
    """Orthonormal span of the directions that op annihilates by symmetry:
    the base wave's translation modes and its gauge direction.  None for
    Lc + k^2 at k != 0, whose shift moves them off the kernel."""
    if op.kind == "LcPlusK2" and op.k:
        return None
    gauge = op.gauge_mode()
    return _orthonormal(op.translation_modes()
                        + ([] if gauge is None else [gauge]))


def _growth(op, w, v):
    """(max real part, real rate, its mode) over the localized eigenpairs
    of J*op with positive real part; ``w`` sorted by decreasing real part.

    On a truncated grid a mode with over 20% of its mass within the outer
    10% of the domain is a truncation artifact and is skipped.  So is a
    mode with more than half of its norm in ``_kernel_span``: the Jordan
    blocks of the generalized kernel, which rounding scatters off zero.
    """
    span = _kernel_span(op)
    max_real, rate, mode = 0.0, None, None
    for i, lam in enumerate(w):
        if np.real(lam) <= 1e-12:
            break
        if op.grid.boundary == "truncated":
            if boundary_mass_fraction(op.grid, v[:, i], 2) > 0.20:
                continue
        if _outside(span, v[:, i]) <= 0.5:
            continue
        max_real = max(max_real, float(np.real(lam)))
        if rate is None and abs(np.imag(lam)) < 1e-8 * max(1.0, abs(lam)):
            rate = float(np.real(lam))
            mode = _realify(v[:, i])
    return max_real, rate, mode


# ---------------------------------------------------------------------------
# real growth rates by shift-invert Arnoldi

_NEAR = 6   # eigenvalues of J*op computed around each shift
_RESTARTS = 1000   # Arnoldi restarts per solve; converging solves take <= 160


def growth_near(op, shift):
    """Real growth rate of J*op by shift-invert Arnoldi around ``shift``.

    The ``_NEAR`` eigenvalues nearest the real shift are classified by
    ``_growth``; a real rate found there is checked against a second
    solve around its mirror -rate, whose distance from -rate is the
    pairing defect (at most 1e-8, else RuntimeError).  Returns
    (rate, max real part, pairing defect, (w_u, w_s)) with the modes of
    +rate and -rate ``_oriented``, or (None, max real part, None, None)
    without a real rate.  A solve that does not converge within
    ``_RESTARTS`` restarts raises ArpackNoConvergence.
    """
    mat = (j_matrix(op.grid) @ op.matrix).tocsc()
    start = _start_vector(mat.shape[0])
    w, v = spl.eigs(mat, k=_NEAR, sigma=shift, which="LM", v0=start, tol=0.0,
                    maxiter=_RESTARTS)
    order = np.argsort(-np.real(w))
    max_real, rate, w_u = _growth(op, w[order], v[:, order])
    if rate is None:
        return None, max_real, None, None
    mirror, w_s = spl.eigs(mat, k=1, sigma=-rate, which="LM", v0=start,
                           tol=0.0, maxiter=_RESTARTS)
    defect = float(np.min(np.abs(mirror + rate)))
    if defect > 1e-8:
        raise RuntimeError("growth rate %.12g has no mirror eigenvalue: "
                           "pairing defect %.3g" % (rate, defect))
    return rate, max_real, defect, (_oriented(w_u),
                                    _oriented(_realify(w_s[:, 0])))


def unstable_mode(op):
    """``growth_near`` at the first shift that finds a real rate, or None.

    A real eigenvalue r > 0 of J*op is nearer a real shift s than every
    eigenvalue of the closed left half-plane once s > r/2; below that,
    the kernel and the discretized continuum near the imaginary axis can
    crowd it out.  The shift starts at sqrt(eps)*|J op|, the distance by
    which rounding scatters the Jordan blocks of the kernel, and
    quadruples, so that one shift lands in (r/2, 2r].  The search ends
    without a rate at |J op| (max row sum), which bounds every
    eigenvalue, or at the first solve that does not converge: there the
    continuum crowds the shift, and it crowds every larger one more.
    """
    bound = float(abs(j_matrix(op.grid) @ op.matrix).sum(axis=1).max())
    shift = np.sqrt(np.finfo(float).eps) * bound
    while shift <= bound:
        try:
            found = growth_near(op, shift)
        except spl.ArpackNoConvergence:
            return None
        if found[0] is not None:
            return found
        shift *= 4.0
    return None


def transversal_band(base, c, spec=None, n_samples=7, ham_base=None,
                     k_outside=None):
    """Transverse instability band from the two lowest localized eigenvalues.

    Band = (sqrt(-lambda1) if lambda1 < 0 else 0, sqrt(-lambda0)); for each
    sampled wave number k the shifted operator Lc + k^2 is assembled on
    ``ham_base`` (default: ``base``), its negative index counted and the
    growth rate of J*(Lc + k^2) found by ``growth_near``, the shift
    continued from the previous sample's rate.  Also reports the
    admissible single-mode interval (max(sqrt(-lambda1), sqrt(-lambda0)/4),
    sqrt(-lambda0)).

    Index ledger: for invertible Lc + k^2 the Krein count gives
    k_r + 2 k_c + 2 k_i^- = n^-, so one negative direction means exactly
    one real pair, and none means no growth.  A sample that breaks it
    raises RuntimeError.
    """
    spec = spec or base.spec
    op = assemble("Lc", base=base, c=c, spec=spec)
    rep = sym_spectrum(op)
    if rep.n_negative == 0 or rep.eigenvalues[0] >= 0.0:
        lam0 = float(rep.eigenvalues[0]) if rep.eigenvalues.size else None
        return {"band": None, "lambda0": lam0,
                "lambda1": None, "samples": [], "report": rep}
    lam0 = float(rep.eigenvalues[0])
    lam1 = float(rep.eigenvalues[1])
    if abs(lam1) <= rep.zero_threshold:
        lam1 = 0.0
    k_lo = np.sqrt(-lam1) if lam1 < 0.0 else 0.0
    k_hi = np.sqrt(-lam0)
    admissible = (max(k_lo, k_hi / 4.0), k_hi)

    ham_base = ham_base or base
    inside = np.linspace(k_lo, k_hi, n_samples + 2)[1:-1]
    outside = [k_hi * 1.27] if k_outside is None else list(k_outside)
    samples = []
    shift = 0.0
    for k in list(inside) + list(outside):
        sub = assemble("LcPlusK2", base=ham_base, c=c, spec=spec, k=float(k))
        sub_rep = sym_spectrum(sub)
        rate, max_real, defect, _modes = growth_near(sub, shift)
        n_neg = sub_rep.n_negative
        if ((n_neg == 1 and sub_rep.kernel_dim == 0 and rate is None)
                or (n_neg == 0 and rate is not None)):
            raise RuntimeError(
                "index ledger broken at k=%.6g: n_negative(Lc+k^2) = %d but "
                "%s" % (k, n_neg, "no real growth rate" if rate is None
                        else "a real growth rate %.6g" % rate))
        samples.append({
            "k": float(k),
            "inside": bool(k_lo < k < k_hi),
            "growth_rate": rate or 0.0,
            "max_real": max_real,
            "pairing_defect": defect,
            "n_negative": n_neg,
            "kernel_dim": sub_rep.kernel_dim,
        })
        shift = rate or 0.0
    return {
        "band": (float(k_lo), float(k_hi)),
        "lambda0": lam0,
        "lambda1": lam1,
        "admissible": admissible,
        "samples": samples,
        "report": rep,
    }


def band_to_csv(result, path):
    with open(path, "w") as fh:
        fh.write("k,lambda_u,n_neg\n")
        for s in result["samples"]:
            fh.write("%.17g,%.17g,%d\n" % (s["k"], s["growth_rate"],
                                           s["n_negative"]))


# ---------------------------------------------------------------------------
# dichotomy basis

class DichotomyBasis:
    """Ingredients of the invariant splitting around an unstable wave.

    Carries the growth/decay eigenmodes w_u, w_s of J*op, the generalized
    kernel pair (translation mode, speed derivative), the cross pairing
    <op w_u, w_s>, and projector coefficients; `split` resolves any field
    into (a, b, c_u, c_s, center part).
    """

    def __init__(self, op, rate, w_u, w_s, t_mode, c_mode):
        self.op = op
        self.rate = rate
        grid = op.grid
        self.w_u = PairField.from_vector(grid, w_u, "uv")
        self.w_s = PairField.from_vector(grid, w_s, "uv")
        self.t_mode = t_mode
        self.c_mode = c_mode
        vol = grid.cell_volume
        mat = op.matrix
        self.cross = float(w_u @ (mat @ w_s)) * vol
        self.self_u = float(w_u @ (mat @ w_u)) * vol
        self.self_s = float(w_s @ (mat @ w_s)) * vol
        self._jit = j_inverse_apply(t_mode).ravel()
        self._jic = j_inverse_apply(c_mode).ravel()
        self._vol = vol
        self._modes = np.stack([t_mode.ravel(), c_mode.ravel(), w_u, w_s])
        self._pairing_matrix = np.stack(
            [self._pairings(mode) for mode in self._modes], axis=1)

    def _pairings(self, v):
        """<op v, w_u>, <op v, w_s>, <v, J^-1 t>, <v, J^-1 c>: the four
        pairings that vanish on a center field."""
        mv = self.op.matrix @ v
        return self._vol * np.array([mv @ self.w_u.ravel(),
                                     mv @ self.w_s.ravel(),
                                     v @ self._jit, v @ self._jic])

    def split(self, field):
        """Coefficients (a, b, c_u, c_s) and the remaining center part.

        The coefficients of (t_mode, c_mode, w_u, w_s) solve the 4 x 4
        system of the four center pairings, so the center part satisfies
        all of them to roundoff.  The system is not block-diagonal: c_mode
        differences a branch solved in another discretization than op,
        and the two differ at O(h^2).
        """
        u = field.ravel()
        coef = np.linalg.solve(self._pairing_matrix, self._pairings(u))
        center = PairField.from_vector(field.grid, u - coef @ self._modes,
                                       field.rep)
        return (*(float(x) for x in coef), center)

    def center_constraint_residual(self, center):
        """How far a center field is from satisfying its defining pairings."""
        v = center.ravel()
        return (float(np.abs(self._pairings(v)).max())
                / max(np.linalg.norm(v), 1e-300))


def dichotomy_basis(base, c, branch, spec=None, rate_floor=1e-8):
    """Build the +/- eigenmodes and generalized-kernel projectors at a wave.

    The rate and the modes w_u, w_s come from ``unstable_mode``; the
    speed-derivative direction from central differencing the branch
    profiles.  Raises if the cross pairing <op w_u, w_s> falls
    below `rate_floor` times the mode norms (a degenerate pairing would
    contradict the splitting and flags a discretization failure).
    """
    spec = spec or base.spec
    factor = "Mc" if base.profile.rep == "hydro" else "Lc"
    op = ghost_symmetrized(assemble(factor, base=base, c=c, spec=spec))
    found = unstable_mode(op)
    if found is None:
        raise ValueError("no unstable mode: dichotomy basis needs growth")
    rate, _max_real, _defect, (w_u, w_s) = found
    t_mode = translation_mode(base.profile)
    idx = min(range(len(branch)), key=lambda i: abs(branch[i].c - c))
    c_mode = speed_derivative(branch, idx)
    basis = DichotomyBasis(op, rate, w_u, w_s, t_mode, c_mode)
    mode_scale = 1.0 * basis._vol
    if abs(basis.cross) < rate_floor * mode_scale:
        raise ValueError("degenerate pairing <op w_u, w_s> ~ %.3g" % basis.cross)
    return basis


def center_positivity_sample(basis, n_draws=50):
    """Quadratic-form positivity of the center block on random draws."""
    rng = np.random.default_rng(7)
    grid = basis.op.grid
    violations = 0
    values = []
    for _ in range(n_draws):
        f = random_smooth_pair(grid, rng, cutoff=0.2)
        *_co, center = basis.split(f)
        q = quadratic_form(basis.op, center)
        values.append(q)
        if q <= 0.0:
            violations += 1
    return violations, values
